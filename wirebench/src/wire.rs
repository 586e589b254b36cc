//! The served side: the `cqdet serve --tcp` child process, client
//! connections, and the closed loop.

use crate::gen::{Req, Stream};
use crate::json::Json;
use crate::oracle::{check_reply, Failure, Ledger};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long the server may take to boot, and to exit after `shutdown`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `cqdet serve --tcp 127.0.0.1:0`.  Dropping it kills and reaps
/// the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait for its `serving` line.
    pub fn spawn(bin: &Path, cache_bytes: Option<u64>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--tcp", "127.0.0.1:0"]);
        if let Some(bytes) = cache_bytes {
            cmd.args(["--cache-bytes", &bytes.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let out = child.stdout.take().ok_or("no server stdout")?;
        let (tx, rx) = mpsc::channel();
        // The reader hands over the first line, then drains stdout until
        // the server exits, so the server never writes into a closed pipe.
        let stdout = std::thread::spawn(move || {
            let mut reader = BufReader::new(out);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = tx.send(line);
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(stdout),
        };
        let line = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| "server did not report its address".to_string())?;
        server.addr = Json::parse(&line)
            .ok()
            .and_then(|j| j.get("addr").and_then(Json::as_str).map(str::to_string))
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server ready line {line:?}"))?;
        Ok(server)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Ask the server to shut down over `conn` and reap it.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.call("{\"id\":\"bye\",\"type\":\"shutdown\"}");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return reply.map(|_| ()).map_err(|e| format!("shutdown: {e}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// One client connection: a request line out, a reply line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Send one request line and read its reply line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.stream.write_all(&frame)?;
        let mut reply = String::new();
        // Cap one reply at 256 MiB: a runaway reply is a failure, not an
        // allocation without bound.
        let n = (&mut self.reader).take(256 << 20).read_line(&mut reply)?;
        if n == 0 || !reply.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the reply ended",
            ));
        }
        Ok(reply)
    }

    /// A `stats` snapshot.
    pub fn stats(&mut self) -> Result<crate::stats::ServerStats, String> {
        let reply = self
            .call("{\"id\":\"stats\",\"type\":\"stats\"}")
            .map_err(|e| format!("stats: {e}"))?;
        crate::stats::ServerStats::parse(&reply)
    }
}

/// The id a generated request line carries (generated lines start with
/// their id, which holds no quote).
pub fn request_id(line: &str) -> &str {
    line.strip_prefix("{\"id\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// Send `req`, check the reply, and count the outcome.  Returns the wire
/// latency of a correct reply; `Err` when the connection can no longer be
/// used.
pub fn send_checked(conn: &mut Conn, req: &Req, ledger: &mut Ledger) -> Result<Option<f64>, ()> {
    let id = request_id(&req.line);
    let sent = Instant::now();
    match conn.call(&req.line) {
        Ok(reply) => {
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            let outcome = check_reply(&reply, id, &req.expect, ledger);
            let ok = outcome.is_ok();
            ledger.record(outcome);
            Ok(ok.then_some(latency_ms))
        }
        Err(e) => {
            ledger.record(Err((Failure::Missing, format!("{id}: {e}"))));
            Err(())
        }
    }
}

/// What one connection measured in the timed phase.
#[derive(Default)]
pub struct ConnRun {
    pub ledger: Ledger,
    /// Each correct reply: its request type, wire latency in ms, and when
    /// it completed, in seconds from the start of the phase.
    pub latencies: Vec<(&'static str, f64, f64)>,
    /// Instance fingerprints sent (for the never-repeats check).
    pub fingerprints: Vec<u64>,
    pub finished: Option<Instant>,
}

/// The closed loop of one connection: send, wait for the reply, check it,
/// repeat from `start` until `deadline`.
pub fn drive(conn: &mut Conn, stream: &mut Stream, start: Instant, deadline: Instant) -> ConnRun {
    let mut run = ConnRun::default();
    while Instant::now() < deadline {
        let req = stream.next_req();
        run.fingerprints.push(fingerprint(&req.line));
        let kind = request_kind(&req.line);
        match send_checked(conn, &req, &mut run.ledger) {
            Ok(Some(ms)) => run
                .latencies
                .push((kind, ms, start.elapsed().as_secs_f64())),
            Ok(None) => {}
            Err(()) => break,
        }
    }
    run.finished = Some(Instant::now());
    run
}

/// The request's `type`, from the fixed prefix the generators write.
fn request_kind(line: &str) -> &'static str {
    for kind in ["decide", "batch", "view_add", "view_remove", "redecide"] {
        if line.contains(&format!("\"type\":\"{kind}\"")) {
            return kind;
        }
    }
    "other"
}

/// A hash of the request's instance (the line without its id).
fn fingerprint(line: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let body = line.find("\"type\"").map_or(line, |i| &line[i..]);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}
