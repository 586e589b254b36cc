//! How the reactor parks: until one of its sockets can make progress or a
//! worker finishes a request, instead of for a fixed time slice.
//!
//! A fixed sleep makes a request that arrives while the reactor is parked
//! wait out the rest of the slice.  With closed-loop clients whose
//! requests take about as long as the slice, that wait locks onto the
//! clients' phase and swings latency by the slice's length from one second
//! to the next.  [`Park::wait`] blocks in `poll(2)` on the sockets the next
//! tick would act on, plus the read end of a socket pair that [`Notify`]
//! writes a byte to whenever a worker hands back a completion.

#[cfg(not(unix))]
pub(crate) use fallback::{Notify, Park};
#[cfg(unix)]
pub(crate) use imp::{Notify, Park};

#[cfg(unix)]
mod imp {
    use std::io::{self, Read, Write};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// `struct pollfd` of `poll(2)`.
    #[repr(C)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    /// The worker side: wakes a parked [`Park`].  Shared by every worker.
    pub(crate) struct Notify {
        tx: UnixStream,
    }

    impl Notify {
        /// Wake the reactor, or make its next [`Park::wait`] return at once.
        /// A full socket buffer already holds a wake-up, so a failed write
        /// loses nothing.
        pub(crate) fn wake(&self) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The reactor side: what the next tick could act on, and the wait.
    pub(crate) struct Park {
        rx: UnixStream,
        fds: Vec<PollFd>,
    }

    impl Park {
        /// A connected pair: the reactor's park and the workers' notify.
        pub(crate) fn new() -> io::Result<(Park, Notify)> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok((
                Park {
                    rx,
                    fds: Vec::new(),
                },
                Notify { tx },
            ))
        }

        /// Forget the previous tick's interest.
        pub(crate) fn clear(&mut self) {
            self.fds.clear();
        }

        /// Wake on `socket` once it is readable (`read`) or writable (`write`).
        pub(crate) fn watch(&mut self, socket: &impl AsRawFd, read: bool, write: bool) {
            let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
            if events != 0 {
                self.fds.push(PollFd {
                    fd: socket.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
        }

        /// Block until a watched socket is ready, a [`Notify::wake`] arrives,
        /// or `timeout` passes, then consume the wake-ups.
        pub(crate) fn wait(&mut self, timeout: Duration) {
            self.fds.push(PollFd {
                fd: self.rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            let millis = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
            // SAFETY: `fds` is a live, exclusively borrowed array of `len`
            // `pollfd`s for the duration of the call, and every descriptor in
            // it is owned by a socket the caller keeps open until this
            // returns.  An error (EINTR) only ends the wait early.
            unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NFds, millis) };
            self.fds.pop();
            let mut sink = [0u8; 256];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// Elsewhere: a condition variable, so only worker completions end the
/// wait early and new client bytes wait out the timeout.
#[cfg(not(unix))]
mod fallback {
    use std::io;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::Duration;

    pub(crate) struct Notify(Arc<(Mutex<bool>, Condvar)>);

    impl Notify {
        pub(crate) fn wake(&self) {
            *self.0 .0.lock().unwrap_or_else(PoisonError::into_inner) = true;
            self.0 .1.notify_all();
        }
    }

    pub(crate) struct Park(Arc<(Mutex<bool>, Condvar)>);

    impl Park {
        pub(crate) fn new() -> io::Result<(Park, Notify)> {
            let shared = Arc::new((Mutex::new(false), Condvar::new()));
            Ok((Park(Arc::clone(&shared)), Notify(shared)))
        }

        pub(crate) fn clear(&mut self) {}

        pub(crate) fn watch<S>(&mut self, _socket: &S, _read: bool, _write: bool) {}

        pub(crate) fn wait(&mut self, timeout: Duration) {
            let (woken, cv) = &*self.0;
            let guard = woken.lock().unwrap_or_else(PoisonError::into_inner);
            let (mut guard, _) = cv
                .wait_timeout_while(guard, timeout, |woken| !*woken)
                .unwrap_or_else(PoisonError::into_inner);
            *guard = false;
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn a_notify_ends_the_wait_and_is_consumed() {
        let (mut park, notify) = Park::new().unwrap();
        notify.wake();
        notify.wake();
        let start = Instant::now();
        park.wait(Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(5));
        // Both wake-ups were consumed: the next wait runs to its timeout.
        let start = Instant::now();
        park.wait(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn a_readable_socket_ends_the_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let (mut park, _notify) = Park::new().unwrap();
        client.write_all(b"x").unwrap();
        park.watch(&server, true, false);
        let start = Instant::now();
        park.wait(Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn no_interest_waits_for_the_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut park, _notify) = Park::new().unwrap();
        park.watch(&listener, false, false);
        let start = Instant::now();
        park.wait(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
