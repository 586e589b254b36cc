//! The process's one thread pool: persistent workers that serve whole
//! requests ([`Pool::scope`]) and help with the per-item fan-outs of
//! [`crate::par_map`] when they have nothing else to do — on their own
//! requests, or for a thread that [`Pool::install`]ed the pool.
//!
//! Two kinds of work reach a worker, both through one queue under one lock:
//!
//! * **Jobs** — whole units of work (a served request), run in submission
//!   order.  [`Pool::scope`] lends jobs that borrow the caller's stack and
//!   returns only after every one of them has finished.
//! * **Offers** — the helper half of a fan-out.  A fan-out publishes one
//!   offer per worker that is idle *at that moment* and not already spoken
//!   for, then works through the shared cursor itself.  A worker that wakes
//!   takes an offer before a job, so a fan-out finishes sooner than the
//!   next request starts.  When the caller's own loop runs dry it retracts
//!   the offers nobody claimed and waits only for the helpers that did
//!   claim one.  With every worker busy no offer is made at all and the
//!   fan-out runs inline, so under load it costs one atomic load.
//!
//! Progress never depends on a free worker: the fan-out's caller always
//! drains the cursor itself, and a waiting caller waits only for helpers
//! that are already running.  A helper that fans out in turn is a caller of
//! its own fan-out, so the wait-for graph is a tree and cannot deadlock.
//!
//! Panics in lent work are caught on the worker and resumed on the thread
//! that lent it, after the join; a worker thread itself never unwinds.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;
type Panic = Box<dyn Any + Send + 'static>;

thread_local! {
    /// The pool the current thread is a worker of, or has installed;
    /// `None` elsewhere.
    static CURRENT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// The queue both kinds of lent work wait in.
struct Queue {
    /// Whole jobs, in submission order.
    jobs: VecDeque<Job>,
    /// Fan-out helpers, tagged with their fan-out's join so the caller can
    /// retract the ones nobody claimed.
    offers: Vec<(usize, Job)>,
    /// Workers parked waiting for work.
    idle: usize,
    /// Set when the pool is dropped: workers exit once no work is queued.
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
    /// `Queue::idle`, mirrored so a fan-out under load can run inline
    /// without taking the lock.  Advisory only: decisions are re-made under
    /// the lock.
    idle_hint: AtomicUsize,
}

impl Shared {
    /// Every update of the queue leaves it consistent (lent work is wrapped
    /// in `catch_unwind` and never runs under the lock), so a poisoned lock
    /// still guards valid data.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lend `f` to the pool as a job (`offer == false`) or as a fan-out
    /// helper offer, counted on `join`.
    ///
    /// # Safety
    ///
    /// `f` may borrow data that lives only for `'a`.  The caller must not
    /// let `'a` end before `join` has been waited for ([`Join::wait`]
    /// returning), and, for offers, before it has retracted the offers of
    /// `join` that no worker claimed ([`Shared::retract`]).
    unsafe fn lend<'a>(&self, join: &Arc<Join>, offer: bool, f: impl FnOnce() + Send + 'a) {
        let tag = join_tag(join);
        let done = Arc::clone(join);
        let job: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
            let panic = catch_unwind(AssertUnwindSafe(f)).err();
            done.finish(panic);
        });
        // SAFETY: only the lifetime bound changes (same fat-pointer layout).
        // The job runs or is dropped before `'a` ends: a worker that claims
        // it finishes it before `Join::finish` lets the lender's
        // `Join::wait` return, and an unclaimed offer is dropped by
        // `Shared::retract`, which the lender calls before that wait —
        // both guaranteed by this function's contract.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) };
        join.add(1);
        let mut queue = self.lock();
        if offer {
            queue.offers.push((tag, job));
        } else {
            queue.jobs.push_back(job);
        }
        // A worker that is not parked checks the queue under this lock
        // before it parks, so only a parked one needs waking.
        let wake = queue.idle > 0;
        drop(queue);
        if wake {
            self.work.notify_one();
        }
    }

    /// Drop the offers of `join` that no worker claimed, and uncount them.
    fn retract(&self, join: &Arc<Join>) {
        let tag = join_tag(join);
        let mut queue = self.lock();
        let before = queue.offers.len();
        queue.offers.retain(|(t, _)| *t != tag);
        let retracted = before - queue.offers.len();
        drop(queue);
        join.cancel(retracted);
    }

    /// How many helpers a fan-out of `n` items may ask for right now: the
    /// workers parked and not already spoken for by queued work.
    fn helpers_for(&self, n: usize) -> usize {
        if n < 2 || self.idle_hint.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let queue = self.lock();
        queue
            .idle
            .saturating_sub(queue.jobs.len() + queue.offers.len())
            .min(n - 1)
    }

    /// A worker's life: take an offer, else a job, else park.
    fn work_loop(&self) {
        let mut queue = self.lock();
        loop {
            let job = if let Some((_, job)) = queue.offers.pop() {
                job
            } else if let Some(job) = queue.jobs.pop_front() {
                job
            } else if queue.closed {
                return;
            } else {
                queue.idle += 1;
                self.idle_hint.store(queue.idle, Ordering::Relaxed);
                queue = self
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                queue.idle -= 1;
                self.idle_hint.store(queue.idle, Ordering::Relaxed);
                continue;
            };
            drop(queue);
            // Lent work is wrapped in `catch_unwind` by `Shared::lend`.
            job();
            queue = self.lock();
        }
    }
}

/// An offer's tag: its join's address, unique while the join is alive.
fn join_tag(join: &Arc<Join>) -> usize {
    Arc::as_ptr(join) as usize
}

/// The join of a set of lent work items: a count of items lent and not yet
/// finished, plus the first panic among them.
struct Join {
    state: Mutex<(usize, Option<Panic>)>,
    done: Condvar,
}

impl Join {
    fn new() -> Arc<Join> {
        Arc::new(Join {
            state: Mutex::new((0, None)),
            done: Condvar::new(),
        })
    }

    /// A count and an optional payload: valid after any partial update.
    fn lock(&self) -> MutexGuard<'_, (usize, Option<Panic>)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn add(&self, n: usize) {
        self.lock().0 += n;
    }

    fn cancel(&self, n: usize) {
        if n > 0 {
            let mut state = self.lock();
            state.0 -= n;
            if state.0 == 0 {
                self.done.notify_all();
            }
        }
    }

    fn finish(&self, panic: Option<Panic>) {
        let mut state = self.lock();
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every counted item has finished or been retracted; the
    /// first panic among them, if any.
    fn wait(&self) -> Option<Panic> {
        let mut state = self.lock();
        while state.0 > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.1.take()
    }
}

/// A fixed set of worker threads, spawned once in [`Pool::new`] and joined
/// when the pool is dropped.  See the [module docs](self).
pub struct Pool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool of `threads` (at least one) workers.  These are the only
    /// threads the pool ever creates.
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                offers: Vec::new(),
                idle: 0,
                closed: false,
            }),
            work: Condvar::new(),
            idle_hint: AtomicUsize::new(0),
        });
        let threads = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cqdet-pool-{i}"))
                    .spawn(move || {
                        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&shared)));
                        shared.work_loop();
                    })
                    .expect("the OS refused to start a pool thread")
            })
            .collect();
        Pool { shared, threads }
    }

    /// Whether the calling thread is one of this pool's workers or has it
    /// installed.
    fn is_current(&self) -> bool {
        CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(s, &self.shared))
        })
    }

    /// Run `f` with a [`Scope`] whose jobs run on the pool's workers and
    /// may borrow anything that outlives this call.  Returns after `f` and
    /// every job it spawned have finished; a panic in `f` or in any job is
    /// resumed here after that join.
    ///
    /// Must be called from outside the pool (and outside
    /// [`Pool::install`]): a worker waiting on its own pool's queue could
    /// wait for itself.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        assert!(
            !self.is_current(),
            "Pool::scope called from inside its own pool"
        );
        let scope = Scope {
            shared: &self.shared,
            join: Join::new(),
            _env: PhantomData,
        };
        let out = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let job_panic = scope.join.wait();
        match out {
            Err(panic) => resume_unwind(panic),
            Ok(_) if job_panic.is_some() => resume_unwind(job_panic.expect("checked")),
            Ok(r) => r,
        }
    }

    /// Run `f` on the calling thread with this pool as its pool: every
    /// [`crate::par_map`] inside `f` offers its items to the pool's idle
    /// workers, with the caller working alongside them.  For a thread
    /// outside the pool, such as a command-line front end's main thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let previous = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.shared)));
        let _restore = Restore(previous);
        f()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.work.notify_all();
        for thread in self.threads.drain(..) {
            // Workers never unwind (lent work is wrapped), and a Drop must
            // not panic either way.
            let _ = thread.join();
        }
    }
}

/// Spawns jobs onto a [`Pool`] for the duration of one [`Pool::scope`]
/// call.
pub struct Scope<'p, 'env> {
    shared: &'p Shared,
    join: Arc<Join>,
    /// Invariant in `'env`, as in `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queue `f` to run on a pool worker, after the jobs queued before it.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        // SAFETY: `'env` outlives the enclosing `Pool::scope` call, which
        // waits for `self.join` before returning, even when its closure
        // panics.  Jobs are never offers, so there is nothing to retract.
        unsafe { self.shared.lend(&self.join, false, f) }
    }
}

/// Map `f` over `items` in input order, with idle workers of the calling
/// thread's pool helping (see the [module docs](self)).  Inline when the
/// caller is not a pool worker or no worker is idle.
pub(crate) fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let helping = CURRENT.with(|c| {
        let current = c.borrow();
        let shared = current.as_ref()?;
        let helpers = shared.helpers_for(n);
        (helpers > 0).then(|| (Arc::clone(shared), helpers))
    });
    let Some((shared, helpers)) = helping else {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    };
    let cursor = AtomicUsize::new(0);
    let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    let drain = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(local);
    };
    let join = Join::new();
    for _ in 0..helpers {
        // SAFETY: `drain` borrows this frame; `retract` and `join.wait()`
        // below run before it returns, on the panic path as well (the
        // caller's own `drain` is caught).
        unsafe { shared.lend(&join, true, drain) };
    }
    let own = catch_unwind(AssertUnwindSafe(&drain));
    // Nothing is left for a late helper: withdraw what nobody claimed.
    shared.retract(&join);
    let helper_panic = join.wait();
    if let Err(panic) = own {
        resume_unwind(panic);
    }
    if let Some(panic) = helper_panic {
        resume_unwind(panic);
    }
    let mut results = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{par_map, par_map_indexed};
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    /// Runs `f` with a fresh two-worker pool installed, so every fan-out
    /// of `par_map` may be helped.
    fn pooled<R>(f: impl FnOnce() -> R) -> R {
        Pool::new(2).install(f)
    }

    fn spin(x: u64) -> u64 {
        let spins = if x.is_multiple_of(13) { 200_000 } else { 10 };
        (0..spins).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
    }

    #[test]
    fn matches_serial_map_and_preserves_order() {
        pooled(|| {
            for n in [0usize, 1, 2, 7, 8, 9, 100, 1000] {
                let items: Vec<u64> = (0..n as u64).collect();
                let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
                assert_eq!(par_map(&items, |x| x * x + 1), expected, "n={n}");
            }
        });
    }

    #[test]
    fn outside_a_pool_maps_serially_on_the_caller() {
        let me = std::thread::current().id();
        let items: Vec<u64> = (0..64).collect();
        let threads = par_map(&items, |_| std::thread::current().id());
        assert!(threads.iter().all(|&t| t == me));
    }

    #[test]
    fn indexed_variant_sees_correct_indices() {
        let out = pooled(|| {
            let items = vec!["a"; 64];
            par_map_indexed(&items, |i, s| format!("{s}{i}"))
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &format!("a{i}"));
        }
    }

    #[test]
    fn non_clone_results_are_supported() {
        struct NoClone(usize);
        let out = pooled(|| {
            let items: Vec<usize> = (0..50).collect();
            par_map(&items, |&x| NoClone(x + 1))
        });
        assert!(out.iter().enumerate().all(|(i, r)| r.0 == i + 1));
    }

    #[test]
    fn skewed_workloads_balance() {
        // Item cost varies by orders of magnitude; results must still be
        // complete and ordered.
        let items: Vec<u64> = (0..64).collect();
        let out = pooled(|| par_map(&items, |&x| spin(x)));
        let serial: Vec<u64> = items.iter().map(|&x| spin(x)).collect();
        assert_eq!(out, serial);
    }

    #[test]
    #[should_panic(expected = "boom 37")]
    fn item_panics_propagate() {
        pooled(|| {
            let items: Vec<usize> = (0..64).collect();
            par_map(&items, |&x| {
                if x == 37 {
                    panic!("boom {x}");
                }
                x
            })
        });
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller() {
        // Two items that wait for each other on a barrier must run on two
        // threads at once: the caller and one pool helper.  The item that
        // lands on the helper panics.
        let pool = Pool::new(2);
        let caller_ran = Mutex::new(false);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                // The fan-out offers help only to a parked worker.
                while pool
                    .shared
                    .idle_hint
                    .load(std::sync::atomic::Ordering::Relaxed)
                    == 0
                {
                    std::thread::yield_now();
                }
                let caller = std::thread::current().id();
                let both = Barrier::new(2);
                par_map(&[0u8, 1], |_| {
                    both.wait();
                    if std::thread::current().id() != caller {
                        panic!("helper boom");
                    }
                    *caller_ran.lock().unwrap() = true;
                })
            })
        }));
        let payload = outcome.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));
        assert!(*caller_ran.lock().unwrap(), "the caller ran its own item");
        // The pool survives a panic in lent work.
        assert_eq!(pool.install(|| par_map(&[1u8, 2, 3], |x| x + 1)), [2, 3, 4]);
    }

    #[test]
    fn every_worker_busy_and_fanning_out_completes() {
        // Each worker holds a job and, only once all of them do (the
        // barrier), fans out: no worker is idle to help, so every map must
        // complete on its own caller.
        let workers = 3;
        let pool = Pool::new(workers);
        let all_busy = Barrier::new(workers);
        let sums = Mutex::new(Vec::new());
        pool.scope(|s| {
            for w in 0..workers as u64 {
                let (all_busy, sums) = (&all_busy, &sums);
                s.spawn(move || {
                    all_busy.wait();
                    let items: Vec<u64> = (0..500).collect();
                    let out = par_map(&items, |&x| spin(x + w));
                    let expected: Vec<u64> = items.iter().map(|&x| spin(x + w)).collect();
                    assert_eq!(out, expected);
                    sums.lock().unwrap().push(w);
                });
            }
        });
        let mut sums = sums.into_inner().unwrap();
        sums.sort_unstable();
        assert_eq!(sums, [0, 1, 2]);
    }

    #[test]
    fn no_thread_is_created_after_pool_new() {
        // Thread ids are never reused, so every item having run on the
        // installing caller or a pool thread — at most `threads + 1`
        // distinct ids over 1000 fan-outs — shows that no fan-out started a
        // thread.
        let pool = Pool::new(2);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            let items: Vec<u64> = (0..16).collect();
            for round in 0..1000u64 {
                let ids = par_map(&items, |&x| {
                    std::hint::black_box(spin(x + round));
                    std::thread::current().id()
                });
                seen.lock().unwrap().extend(ids);
            }
        });
        let seen = seen.into_inner().unwrap();
        assert!(
            seen.len() <= pool.threads.len() + 1,
            "{} distinct threads ran items of a {}-thread pool",
            seen.len(),
            pool.threads.len()
        );
    }

    #[test]
    fn scope_joins_every_job_before_returning() {
        let pool = Pool::new(2);
        let mut slots = vec![0u64; 64];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = spin(i as u64));
            }
        });
        let expected: Vec<u64> = (0..64).map(spin).collect();
        assert_eq!(slots, expected);
    }

    #[test]
    #[should_panic(expected = "job boom")]
    fn scope_job_panics_resume_on_the_caller() {
        Pool::new(1).scope(|s| s.spawn(|| panic!("job boom")));
    }
}
