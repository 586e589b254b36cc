//! `cqdet-wirebench`: the served benchmark of `cqdet serve`.
//!
//! ```text
//! cqdet-wirebench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! cqdet-wirebench --workload NAME --seed N --seconds S --dump FILE
//! ```
//!
//! Starts the real server as a child process, sets it up several times
//! (`setup_s` is the median), and drives the last one closed loop from
//! [`gen::CONNECTIONS`] connections for `--seconds`, checking every reply.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same and
//! then replays the generated lines in-process with a span around each
//! layer call, and prints the per-layer metrics.  The last stdout line is
//! the JSON result; the human-readable report goes to stderr.
//! `--dump` writes the request lines a run of that seed and length may
//! send to a file, and exits.

mod gen;
mod json;
mod oracle;
mod stats;
mod trace;
mod wire;

use gen::{Stream, Workload, CONNECTIONS};
use oracle::{Failure, Ledger};
use stats::{hit_ratio, median, percentile, quiet_windows, steal_share, windows, ServerStats};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wire::{Conn, Server};

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The timed phase is cut into windows of this many seconds.  The rate and
/// the latency percentiles come from the windows in which the hypervisor
/// stole no more CPU time than in the median window: on a shared machine,
/// the moments in which other guests took the CPU then move a run's figures
/// less.  Quarter-second windows gave steadier figures than one-second
/// windows on the reference machine: the selection then also passes over
/// bursts shorter than a second.
const WINDOW_S: f64 = 0.25;
/// Timed request lines a dump holds per connection and second of
/// `--seconds`: about twice the fastest workload's rate on one connection
/// of the reference machine, so a dump covers what a run of that length
/// sends.
const DUMP_RATE: u64 = 1000;
/// Bound on the traced replay: wall time and timed lines.
const REPLAY_MAX_LINES: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: Option<PathBuf>,
    dump: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let (mut server, mut dump) = (None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--server" => server = Some(PathBuf::from(value()?)),
            "--dump" => dump = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        server,
        dump,
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        if let Some(path) = &args.dump {
            return dump(&args, path);
        }
        run(&args)
    });
    if let Err(e) = result {
        eprintln!("wirebench: {e}");
        std::process::exit(2);
    }
}

/// Write each connection's warm-up lines and the first `DUMP_RATE` timed
/// lines per second of `--seconds`.
fn dump(args: &Args, path: &Path) -> Result<(), String> {
    let mut out = String::new();
    let mut lines = 0;
    for c in 0..CONNECTIONS {
        let mut stream = Stream::new(args.workload, args.seed, c);
        let warmup = stream.warmup();
        let timed: Vec<_> = (0..args.seconds * DUMP_RATE)
            .map(|_| stream.next_req())
            .collect();
        for req in warmup.iter().chain(&timed) {
            out.push_str(&req.line);
            out.push('\n');
            lines += 1;
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wirebench: wrote {lines} request lines to {}",
        path.display()
    );
    Ok(())
}

/// Everything the served run measured.
struct Served {
    setup_s: Vec<f64>,
    /// Each correct timed reply: type, wire latency in ms, completion time.
    latencies: Vec<(&'static str, f64, f64)>,
    /// The machine's `(steal, total)` CPU ticks at each window boundary of
    /// the timed phase (empty where `/proc/stat` cannot be read).
    cpu: Vec<(u64, u64)>,
    elapsed_s: f64,
    before: ServerStats,
    after: ServerStats,
    peak_rss_mib: f64,
    ledger: Ledger,
}

/// Boot a server and run this workload's warm-up on every connection.
fn set_up(
    args: &Args,
    bin: &Path,
    ledger: &mut Ledger,
) -> Result<(Server, Vec<Conn>, Vec<Stream>), String> {
    let server = Server::spawn(bin, args.workload.cache_bytes())?;
    let mut conns = Vec::new();
    let mut streams = Vec::new();
    for c in 0..CONNECTIONS {
        conns.push(Conn::connect(server.addr)?);
        streams.push(Stream::new(args.workload, args.seed, c));
    }
    for (conn, stream) in conns.iter_mut().zip(&streams) {
        for req in stream.warmup() {
            wire::send_checked(conn, &req, ledger)
                .map_err(|()| "warm-up reply missing".to_string())?;
        }
    }
    Ok((server, conns, streams))
}

/// Set up `SETUP_REPS` times, run the timed phase on the last server, and
/// apply every served-side check.
fn serve(args: &Args) -> Result<Served, String> {
    let bin = args.server.clone().ok_or("--server is required")?;
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (server, mut conns, streams) = set_up(args, &bin, &mut ledger)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            server.shutdown(&mut conns[0])?;
        } else {
            kept = Some((server, conns, streams));
        }
    }
    let (server, mut conns, mut streams) = kept.ok_or("no server")?;
    let before = conns[0].stats()?;

    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let (runs, cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, stream)| s.spawn(move || wire::drive(conn, stream, start, deadline)))
            .collect();
        // Sample the machine's CPU ticks at every window boundary.
        let mut cpu = Vec::new();
        for k in 0..=window_count(args) {
            let at = start + Duration::from_secs_f64(k as f64 * WINDOW_S);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu.extend(stats::cpu_ticks());
        }
        let runs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<Vec<wire::ConnRun>, _>>();
        runs.map(|r| (r, cpu))
    })?;
    let finished = runs.iter().filter_map(|r| r.finished).max();
    let elapsed_s = (finished.unwrap_or(deadline) - start).as_secs_f64();

    let after = conns[0].stats()?;
    let peak_rss_mib = server.peak_rss_mib()?;
    server.shutdown(&mut conns[0])?;

    let mut latencies = Vec::new();
    let mut fingerprints = Vec::new();
    let mut timed = Ledger::default();
    for run in runs {
        latencies.extend(run.latencies);
        fingerprints.extend(run.fingerprints);
        timed.merge(run.ledger);
    }
    // The two `stats` replies bracket exactly the timed phase.
    timed.reconcile_refused(after.refused.saturating_sub(before.refused));
    ledger.merge(timed);
    let evictions = after.evictions.saturating_sub(before.evictions);
    match args.workload {
        Workload::DecideCold => {
            let distinct: HashSet<u64> = fingerprints.iter().copied().collect();
            let repeats = (fingerprints.len() - distinct.len()) as u64;
            ledger.fail_n(
                repeats,
                Failure::Wrong,
                format!("{repeats} repeated instances"),
            );
            if evictions == 0 {
                ledger.fail(Failure::Wrong, "decide-cold saw no cache evictions".into());
            }
        }
        Workload::DecideWarm if evictions > 0 => {
            ledger.fail(
                Failure::Wrong,
                format!("decide-warm evicted {evictions} entries after warm-up"),
            );
        }
        Workload::SessionChurn => oracle::session_oracle(&mut ledger),
        _ => {}
    }
    Ok(Served {
        setup_s,
        latencies,
        cpu,
        elapsed_s,
        before,
        after,
        peak_rss_mib,
        ledger,
    })
}

fn window_count(args: &Args) -> usize {
    (args.seconds as f64 / WINDOW_S) as usize
}

/// `(name, value, unit)` of one metric of the result line.
type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics: the traced replay's medians, and counts from the
/// served run's `stats` delta and records.
fn per_layer(args: &Args, served: &Served, wire_p50_ms: f64, ledger: &mut Ledger) -> Vec<Metric> {
    let budget = Duration::from_secs((args.seconds / 2).clamp(2, 20));
    let spans = trace::replay(args.workload, args.seed, budget, REPLAY_MAX_LINES);
    ledger.attempted += spans.instances;
    for note in &spans.notes {
        eprintln!("{}: replay: {note}", args.workload.name());
    }
    ledger.fail_n(
        spans.mismatches,
        Failure::Wrong,
        "traced replay mismatch".into(),
    );
    eprintln!(
        "{}: replayed {} instances in-process",
        args.workload.name(),
        spans.instances
    );

    let m = |key: &str| spans.samples.get(key).map_or(0.0, |v| median(v));
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let (before, after) = (&served.before, &served.after);
    let requests = after.requests.saturating_sub(before.requests) as f64;
    let searches = (after.gate.1 + after.hom.1).saturating_sub(before.gate.1 + before.hom.1);
    let mut out: Vec<Metric> = [
        "service.decode_us",
        "query.parse_us",
        "service.render_us",
        "service.submit_us",
        "core.freeze_us",
        "core.gate_us",
        "core.basis_us",
        "core.span_us",
        "core.decide_us",
        "parallel.fanout_us",
        "engine.batch_us",
        "core.delta.open_us",
        "core.delta.add_us",
        "core.delta.remove_us",
        "core.delta.redecide_us",
        "core.witness_us",
        "core.verify_us",
    ]
    .into_iter()
    .map(|key| (key, m(key), "us"))
    .collect();
    let bits: f64 = spans.answer_bits.iter().sum();
    out.extend([
        (
            "service.transport_us",
            wire_p50_ms * 1e3
                - m("service.decode_us")
                - m("service.submit_us")
                - m("service.render_us"),
            "us",
        ),
        (
            "structure.hom_searches",
            ratio(searches as f64, requests),
            "count",
        ),
        (
            "core.gate.retained_share",
            ratio(ledger.retained as f64, ledger.views as f64),
            "ratio",
        ),
        (
            "cache.span.hit_ratio",
            hit_ratio(before.span, after.span),
            "ratio",
        ),
        (
            "cache.frozen.hit_ratio",
            hit_ratio(before.frozen, after.frozen),
            "ratio",
        ),
        (
            "cache.gate.hit_ratio",
            hit_ratio(before.gate, after.gate),
            "ratio",
        ),
        (
            "cache.hom.hit_ratio",
            hit_ratio(before.hom, after.hom),
            "ratio",
        ),
        (
            "cache.evictions",
            after.evictions.saturating_sub(before.evictions) as f64,
            "count",
        ),
        (
            "cache.governed_mib",
            after.governed_bytes as f64 / 1048576.0,
            "MiB",
        ),
        (
            "core.iso_classes",
            after.iso_classes as f64 - before.iso_classes as f64,
            "count",
        ),
        (
            "witness.answer_bits",
            ratio(bits, spans.answer_bits.len() as f64),
            "bits",
        ),
        (
            "trace.coverage",
            ratio(spans.stage_total_us, spans.decide_total_us),
            "ratio",
        ),
    ]);
    out
}

fn run(args: &Args) -> Result<(), String> {
    let mut served = serve(args)?;
    let mut ledger = std::mem::take(&mut served.ledger);
    let mut latencies: Vec<f64> = served.latencies.iter().map(|l| l.1).collect();
    latencies.sort_by(f64::total_cmp);
    let p = |q| percentile(&latencies, q).unwrap_or(0.0);
    let name = args.workload.name();
    let timed: Vec<(f64, f64)> = served.latencies.iter().map(|l| (l.2, l.1)).collect();
    let wins = windows(&timed, WINDOW_S, window_count(args));
    let steal: Vec<f64> = served
        .cpu
        .windows(2)
        .map(|w| steal_share(w[0], w[1]))
        .collect();
    let quiet = quiet_windows(&steal, wins.len());
    let mut pool: Vec<f64> = quiet.iter().flat_map(|&i| wins[i].clone()).collect();
    pool.sort_by(f64::total_cmp);
    // The rate is the typical kept window's: a stall that halves one
    // window's rate shows in the pooled tail, not here.
    let rates: Vec<f64> = quiet
        .iter()
        .map(|&i| wins[i].len() as f64 / WINDOW_S)
        .collect();
    let rps = median(&rates);
    let pooled = |q| percentile(&pool, q).unwrap_or(0.0);
    let (p50, p95) = (pooled(50.0), pooled(95.0));
    let stolen = match (served.cpu.first(), served.cpu.last()) {
        (Some(&a), Some(&b)) => steal_share(a, b),
        _ => 0.0,
    };
    eprintln!(
        "{name}: seed {} · {:.1} s timed · {:.1}% cpu stolen · whole phase p50 {:.3} / p90 {:.3} / p95 {:.3} / p99 {:.3} ms · {} samples",
        args.seed,
        served.elapsed_s,
        stolen * 100.0,
        p(50.0),
        p(90.0),
        p(95.0),
        p(99.0),
        latencies.len()
    );
    let rates: Vec<String> = wins
        .iter()
        .zip(steal.iter().chain(std::iter::repeat(&f64::NAN)))
        .map(|(w, s)| format!("{:.0}/{:.0}%", w.len() as f64 / WINDOW_S, s * 100.0))
        .collect();
    eprintln!(
        "{name}:   req/s / cpu stolen per window: {}",
        rates.join(" ")
    );
    let per_window = |q| {
        let p: Vec<f64> = quiet
            .iter()
            .filter_map(|&i| {
                let mut w = wins[i].clone();
                w.sort_by(f64::total_cmp);
                percentile(&w, q)
            })
            .collect();
        median(&p)
    };
    eprintln!(
        "{name}:   {} of {} windows kept · pooled p50 {p50:.3} / p95 {p95:.3} ms · median of per-window p50 {:.3} / p95 {:.3} ms",
        quiet.len(),
        wins.len(),
        per_window(50.0),
        per_window(95.0)
    );
    for kind in ["decide", "batch", "view_add", "redecide", "view_remove"] {
        let mut v: Vec<f64> = served
            .latencies
            .iter()
            .filter(|l| l.0 == kind)
            .map(|l| l.1)
            .collect();
        v.sort_by(f64::total_cmp);
        if let Some(p50) = percentile(&v, 50.0) {
            eprintln!("{name}:   {kind} p50 {p50:.3} ms over {}", v.len());
        }
    }

    let mut metrics: Vec<Metric> = if args.trace {
        per_layer(args, &served, p50, &mut ledger)
    } else {
        vec![
            ("throughput_rps", rps, "1/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p95_ms", p95, "ms"),
            ("setup_s", median(&served.setup_s), "s"),
            ("peak_rss_mib", served.peak_rss_mib, "MiB"),
            (
                "ok_share",
                ledger.ok() as f64 / ledger.attempted.max(1) as f64,
                "share",
            ),
        ]
    };
    metrics.sort_by_key(|m| m.0);

    for note in &ledger.notes {
        eprintln!("{name}: failure: {note}");
    }
    for (metric, value, unit) in &metrics {
        eprintln!("{name}: {metric:<26} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json::escape(metric),
                json::escape(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ledger.failed() == 0,
        ledger.attempted.max(1),
        ledger.failed(),
        body.join(",")
    );
    Ok(())
}
