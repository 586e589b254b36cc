//! `cqdet-bench` — a self-contained perf harness for the two hot kernels
//! (hom-counting and the Theorem 3 decision procedure), with JSON output for
//! baseline tracking (see `EXPERIMENTS.md` and `BENCH_hom.json`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cqdet-bench -- [--json FILE] [--quick] [--only FAMILIES]
//! ```
//!
//! `--only` takes a comma-separated list of workload families (`hom`,
//! `decide`, `batch`, `serve`, `linalg`, `dedup`, `soak`, `cache`, `delta`)
//! and skips the rest — CI uses it to smoke the two kernel families in one release run.  Every JSON
//! row carries a `label` field (the `CQDET_BENCH_LABEL` env var if set, else
//! the current git commit) so baselines in `BENCH_hom.json` stay
//! attributable across PRs.
//!
//! Every hom measurement runs on both homomorphism engines in the same
//! process: the interned flat-index engine (`hom_count`) and the retained
//! naive `BTreeMap` reference engine (`hom::reference::hom_count`).

use cqdet_bench::{
    batch_workload, decide_workload, dedup_components_workload, hom_source, hom_target,
    linalg_workload, linalg_workload_seed, serve_request_line, serve_workload, soak_workload,
    BATCH_SHARED_VIEWS, BATCH_TASK_COUNTS, DECIDE_MANY_VIEW_COUNTS, LINALG_SHAPES,
    SERVE_SHARED_VIEWS, SERVE_TASK_COUNTS, SOAK_CONNECTIONS, SOAK_PIPELINE_WINDOW, SOAK_REQUESTS,
};
use cqdet_core::decide_bag_determinacy;
use cqdet_engine::{DecisionSession, SessionConfig};
use cqdet_linalg::QMat;
use cqdet_structure::{dedup_up_to_iso, hom};
use std::io::Write as _;
use std::time::Instant;

struct Harness {
    json_path: Option<String>,
    samples: usize,
    min_iters: u64,
    /// Provenance stamp written into every JSON row.
    label: String,
    /// `--only` family filter; `None` runs everything.
    families: Option<Vec<String>>,
}

impl Harness {
    /// Whether the `--only` filter admits workload family `family`.
    fn family_enabled(&self, family: &str) -> bool {
        self.families
            .as_ref()
            .is_none_or(|fs| fs.iter().any(|f| f == family))
    }

    /// Time `f`, printing mean per-iteration time and appending a JSON line.
    fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        // Warm up and size the batch so one sample lasts ≥ ~20ms.
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.02 / once) as u64).clamp(self.min_iters, 100_000);
        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let min = per_iter.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_iter.iter().cloned().fold(0.0, f64::max);
        println!(
            "{name:<44} mean {:>12}  (min {:>12}, max {:>12})",
            ns(mean),
            ns(min),
            ns(max)
        );
        self.append_json(format!(
            "{{\"benchmark\":\"{name}\",\"label\":\"{}\",\"mean_ns\":{mean:.1},\"min_ns\":{min:.1},\"max_ns\":{max:.1},\"samples\":{},\"iters_per_sample\":{iters}}}\n",
            self.label, self.samples
        ));
    }

    /// Append one pre-rendered JSON line to the `--json` target (no-op
    /// without one) — the escape hatch for rows that are not mean/min/max
    /// timings, like the §SOAK throughput + latency-quantile rows.
    fn append_json(&self, line: String) {
        if let Some(path) = &self.json_path {
            let mut fh = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .expect("open json output");
            fh.write_all(line.as_bytes()).expect("write json output");
        }
    }
}

fn ns(v: f64) -> String {
    if v < 1e3 {
        format!("{v:.1} ns")
    } else if v < 1e6 {
        format!("{:.2} µs", v / 1e3)
    } else if v < 1e9 {
        format!("{:.2} ms", v / 1e6)
    } else {
        format!("{:.2} s", v / 1e9)
    }
}

/// Provenance label for JSON rows: `CQDET_BENCH_LABEL` if set, else the
/// current git commit (short), else `"unknown"`.  Quotes/backslashes are
/// stripped so the label can be embedded in a JSON string verbatim.
fn bench_label() -> String {
    let raw = std::env::var("CQDET_BENCH_LABEL").ok().or_else(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    });
    raw.map(|s| {
        s.trim()
            .chars()
            .filter(|c| !matches!(c, '"' | '\\'))
            .collect::<String>()
    })
    .filter(|s| !s.is_empty())
    .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    // Measure what a request on an idle server does: run with one worker
    // pool installed, whose idle workers help the pipeline's and the
    // batches' fan-outs (the main thread works too: one thread per core).
    cqdet_parallel::Pool::new(cqdet_parallel::max_parallelism() - 1).install(run);
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = None;
    let mut quick = false;
    let mut families: Option<Vec<String>> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--json" => json_path = iter.next().cloned(),
            "--quick" => quick = true,
            "--only" => {
                let Some(list) = iter.next() else {
                    eprintln!("--only requires a comma-separated family list");
                    std::process::exit(2);
                };
                let fs: Vec<String> = list
                    .split(',')
                    .map(|f| f.trim().to_string())
                    .filter(|f| !f.is_empty())
                    .collect();
                const KNOWN: [&str; 9] = [
                    "hom", "decide", "batch", "serve", "linalg", "dedup", "soak", "cache", "delta",
                ];
                for f in &fs {
                    if !KNOWN.contains(&f.as_str()) {
                        eprintln!("unknown family {f:?}; known: {}", KNOWN.join(", "));
                        std::process::exit(2);
                    }
                }
                families = Some(fs);
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: cqdet-bench [--json FILE] [--quick] [--only FAMILIES]"
                );
                std::process::exit(2);
            }
        }
    }
    // Fail fast on an unwritable JSON target instead of panicking after the
    // first measurement.
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            eprintln!("error: cannot open --json file {path:?}: {e}");
            std::process::exit(2);
        }
    }
    let h = Harness {
        json_path,
        samples: if quick { 3 } else { 10 },
        min_iters: 1,
        label: bench_label(),
        families,
    };
    println!("# cqdet-bench\n");

    // HOM: the acceptance workload — domain 16, 40 facts — plus a sweep.
    // Both engines measured in-process: `hom/flat/...` is the interned
    // flat-index engine, `hom/naive/...` the retained BTreeMap reference.
    if h.family_enabled("hom") {
        let source = hom_source();
        for (dom, facts) in [(8usize, 24usize), (16, 40), (16, 48), (32, 96)] {
            let target = hom_target(dom, facts, 0xBEEF + dom as u64);
            // Sanity: engines agree before we publish numbers for them.
            assert_eq!(
                hom::reference::hom_count(&source, &target),
                cqdet_structure::hom_count(&source, &target),
                "engines disagree on dom={dom} facts={facts}"
            );
            h.bench(&format!("hom/flat/{dom}x{facts}"), || {
                cqdet_structure::hom_count(&source, &target)
            });
            h.bench(&format!("hom/factored/{dom}x{facts}"), || {
                cqdet_structure::hom_count_factored(&source, &target)
            });
            h.bench(&format!("hom/naive/{dom}x{facts}"), || {
                hom::reference::hom_count(&source, &target)
            });
        }
    }

    // DECIDE: the acceptance workload — 16 views × 4 atoms — plus a sweep.
    if h.family_enabled("decide") {
        for (views, atoms) in [(4usize, 3usize), (16, 4), (32, 3)] {
            for planted in [true, false] {
                let (v, q) = decide_workload(views, atoms, planted, 0xC0DE + views as u64);
                let label = if planted { "planted" } else { "independent" };
                h.bench(&format!("decide/{label}/{views}x{atoms}"), || {
                    decide_bag_determinacy(&v, &q).unwrap().determined
                });
            }
        }
    }

    // DEDUP: many planted views — isomorphism-class bookkeeping (basis
    // construction + vector extraction) dominates the pipeline (§DEDUP).
    let many_view_counts: &[usize] = if quick {
        &DECIDE_MANY_VIEW_COUNTS[..1]
    } else {
        DECIDE_MANY_VIEW_COUNTS
    };
    if h.family_enabled("decide") {
        for &views in many_view_counts {
            let (v, q) = decide_workload(views, 3, true, 0xD15C + views as u64);
            h.bench(&format!("decide/many-views/{views}x3"), || {
                decide_bag_determinacy(&v, &q).unwrap().determined
            });
        }
    }
    // BATCH: many tasks sharing one view pool — the cross-request cache
    // regime of the batch engine (§BATCH).  `fresh` runs one-shot
    // `decide_bag_determinacy` per task (caches die with each call);
    // `session` runs the same tasks through one `DecisionSession` per batch
    // (cold caches at batch start, shared within the batch), witnesses off
    // on both sides so the comparison is decision cost only.
    let batch_task_counts: &[usize] = if quick {
        &BATCH_TASK_COUNTS[..1]
    } else {
        BATCH_TASK_COUNTS
    };
    for &num_tasks in batch_task_counts {
        if !h.family_enabled("batch") {
            break;
        }
        let tasks = batch_workload(num_tasks, BATCH_SHARED_VIEWS, 0xBA7C + num_tasks as u64);
        // Sanity: the two paths agree before we publish numbers for them.
        {
            let session = DecisionSession::with_config(SessionConfig {
                witnesses: false,
                verify: false,
                ..Default::default()
            });
            let report = session.decide_batch(&tasks);
            assert!(
                report
                    .records
                    .iter()
                    .all(|r| r.status == cqdet_engine::TaskStatus::Determined),
                "batch workload must be determined by construction"
            );
            let stats = report.stats;
            assert!(
                stats.frozen_hits > 0 && stats.gate_hits > 0,
                "shared session must show cache hits: {stats:?}"
            );
        }
        h.bench(
            &format!("batch/fresh/{num_tasks}x{BATCH_SHARED_VIEWS}"),
            || {
                tasks
                    .iter()
                    .filter(|t| {
                        decide_bag_determinacy(&t.views, &t.query)
                            .unwrap()
                            .determined
                    })
                    .count()
            },
        );
        h.bench(
            &format!("batch/session/{num_tasks}x{BATCH_SHARED_VIEWS}"),
            || {
                let session = DecisionSession::with_config(SessionConfig {
                    witnesses: false,
                    verify: false,
                    ..Default::default()
                });
                session.decide_batch(&tasks).records.len()
            },
        );
    }

    // SERVE: protocol overhead of the JSON-lines server loop (§SERVE).
    // Three series on the same workload:
    //   decide_only — fresh session, `decide_batch` over pre-parsed tasks,
    //                 records kept in memory (the lower bound);
    //   direct      — the full in-process certificate path, exactly what
    //                 `cqdet batch` does: task-file parse + decide_batch +
    //                 every record and the stats line rendered to JSON;
    //   protocol    — the server loop on one batch request: request JSON
    //                 parse + task-file parse + dispatch through
    //                 `Engine::submit` + the response envelope rendered.
    // `direct` and `protocol` both emit the full certificates, so their gap
    // is the protocol framing itself (request decode + response envelope);
    // the acceptance gate is protocol/direct < 1.10.
    let serve_task_counts: &[usize] = if quick {
        &SERVE_TASK_COUNTS[..1]
    } else {
        SERVE_TASK_COUNTS
    };
    for &num_tasks in serve_task_counts {
        if !h.family_enabled("serve") {
            break;
        }
        let tasks = serve_workload(num_tasks, 0x5E4E + num_tasks as u64);
        let line = serve_request_line(&tasks);
        // Sanity: both paths agree before we publish numbers for them.
        {
            let engine = cqdet_service::Engine::new();
            let response =
                cqdet_service::respond_to_line(&engine, &line).expect("non-blank request");
            let wire = response.to_json();
            assert_eq!(
                wire.get("type").and_then(cqdet_engine::Json::as_str),
                Some("batch"),
                "server loop must answer the batch request: {wire:?}"
            );
            let records = wire
                .get("records")
                .and_then(cqdet_engine::Json::as_arr)
                .expect("records");
            assert!(records.iter().all(
                |r| r.get("status").and_then(cqdet_engine::Json::as_str) == Some("determined")
            ));
        }
        let tasks_text = cqdet_bench::tasks_to_taskfile(&tasks);
        h.bench(
            &format!("serve/decide_only/{num_tasks}x{SERVE_SHARED_VIEWS}"),
            || {
                let session = DecisionSession::with_config(SessionConfig {
                    witnesses: false,
                    verify: false,
                    ..Default::default()
                });
                session.decide_batch(&tasks).records.len()
            },
        );
        h.bench(
            &format!("serve/direct/{num_tasks}x{SERVE_SHARED_VIEWS}"),
            || {
                let file = cqdet_engine::parse_task_file(&tasks_text).expect("task file");
                let session = DecisionSession::with_config(SessionConfig {
                    witnesses: false,
                    verify: false,
                    ..Default::default()
                });
                let report = session.decide_batch(&file.tasks);
                let mut bytes = 0usize;
                for record in &report.records {
                    bytes += record.to_json().render().len();
                }
                bytes + cqdet_engine::stats_json(&report.stats).render().len()
            },
        );
        h.bench(
            &format!("serve/protocol/{num_tasks}x{SERVE_SHARED_VIEWS}"),
            || {
                let engine = cqdet_service::Engine::new();
                let response = cqdet_service::respond_to_line(&engine, &line).expect("request");
                response.to_json().render().len()
            },
        );
    }

    // SOAK: the serving layer under sustained concurrent load (§SOAK) —
    // 32 pipelined connections pushing 100k requests (4k under `--quick`)
    // through an in-process `serve_tcp` server (`soak/reactor/...`).  The
    // harness asserts the invariants while it measures: every request
    // answered exactly once, typed, ids echoed in pipeline order, no read
    // stalled ≥ 30 s.  Rows carry throughput and latency quantiles instead
    // of mean/min/max timings.
    if h.family_enabled("soak") {
        let total = if quick { 4_000 } else { SOAK_REQUESTS };
        let r = soak_workload(SOAK_CONNECTIONS, total, SOAK_PIPELINE_WINDOW);
        println!(
            "soak/reactor/{SOAK_CONNECTIONS}x{total:<24} {:>10.0} req/s  p50 {:>9}  p95 {:>9}  p99 {:>9}  mean {:>9}",
            r.throughput_rps,
            ns(r.p50_us * 1e3),
            ns(r.p95_us * 1e3),
            ns(r.p99_us * 1e3),
            ns(r.mean_us * 1e3),
        );
        assert_eq!(r.requests, total, "soak must answer every request");
        assert_eq!(r.shed, 0, "soak budget is sized to never shed");
        assert!(
            r.served >= total as u64,
            "server must count every soak response: served {} < {total}",
            r.served
        );
        h.append_json(format!(
            "{{\"benchmark\":\"soak/reactor/{SOAK_CONNECTIONS}x{total}\",\"label\":\"{}\",\"throughput_rps\":{:.1},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},\"mean_us\":{:.1},\"requests\":{},\"connections\":{SOAK_CONNECTIONS},\"window\":{SOAK_PIPELINE_WINDOW},\"shed\":{},\"elapsed_s\":{:.3}}}\n",
            h.label, r.throughput_rps, r.p50_us, r.p95_us, r.p99_us, r.mean_us, r.requests,
            r.shed, r.elapsed_s
        ));
    }

    // LINALG: `QMat::rank` on tall bignum matrices — the regime where
    // hom-count entries make dense rational elimination pay bignum gcd/mul
    // per pivot step (§LINALG).  Rank is on the witness path
    // (`is_nonsingular`); a full rank mod a word-size prime proves it
    // without bignum elimination.
    for &(k, n, bits) in LINALG_SHAPES {
        if !h.family_enabled("linalg") {
            break;
        }
        let m = QMat::from_cols(&linalg_workload(k, n, bits, linalg_workload_seed(bits)));
        assert_eq!(
            m.rank(),
            n,
            "random columns are independent ({k}x{n}/{bits})"
        );
        h.bench(&format!("linalg/rank/{k}x{n}/{bits}bit"), || m.rank());
    }

    // Micro-bench of the de-duplication kernel itself, on exactly the
    // component list step 2 of the pipeline feeds it.  Each iteration
    // rebuilds fresh structures (`map_constants` identity drops the cached
    // flat form): a plain clone would share the canonical key computed in
    // the first iteration and measure only hash lookups, not the
    // canonization the kernel pays on fresh components.
    for &views in many_view_counts {
        if !h.family_enabled("dedup") {
            break;
        }
        let comps = dedup_components_workload(views, 0xD15C + views as u64);
        h.bench(&format!("dedup/components/{views}"), || {
            let fresh: Vec<_> = comps.iter().map(|s| s.map_constants(|c| c)).collect();
            dedup_up_to_iso(fresh).len()
        });
    }

    // CACHE: cache governance (§CACHE) — what the byte cap costs, and what
    // warm-start persistence buys.
    //   uncapped/capped64k — the same 16-instance decide stream through one
    //     long-lived `Engine`: the uncapped engine reaches steady-state
    //     all-hits, the 64 KiB engine (working set far above the cap) keeps
    //     evicting and recomputing — the gap is the price of the cap.
    //   cold_first/warm_first — one expensive decide on a fresh engine,
    //     cold versus booted from a snapshot of a session that has already
    //     solved it (snapshot load *included* in the warm timing); warm
    //     must win — the acceptance gate of the §CACHE experiment.
    if h.family_enabled("cache") {
        use cqdet_service::{Engine, Request, RequestKind};
        let decide_request = |id: String, program: &str, query: &str| Request {
            id,
            deadline_ms: None,
            budget: None,
            kind: RequestKind::Decide {
                program: program.to_string(),
                query: query.to_string(),
                witness: false,
            },
        };
        let instances: Vec<(String, String)> = (0..16)
            .map(|i| {
                let (views, query) = decide_workload(3, 2, i % 2 == 0, 0xCACE + i as u64);
                let name = query.name().to_string();
                let program = views
                    .iter()
                    .map(|v| v.to_string())
                    .chain(std::iter::once(query.to_string()))
                    .collect::<Vec<_>>()
                    .join("\n");
                (program, name)
            })
            .collect();
        let submit_stream = |engine: &Engine| -> Vec<String> {
            instances
                .iter()
                .enumerate()
                .map(|(i, (program, name))| {
                    let response = engine.submit(decide_request(format!("c{i}"), program, name));
                    assert!(!response.is_error(), "cache stream instance {i} failed");
                    response.to_json().render()
                })
                .collect()
        };
        const CAP: u64 = 64 * 1024;
        // Sanity before publishing numbers: under the cap the answers are
        // byte-identical, the cap is actually binding (evictions observed),
        // and every governed session cache honors its byte budget.
        {
            let uncapped = Engine::new();
            let capped = Engine::new();
            capped.set_cache_bytes(Some(CAP));
            for round in 0..2 {
                let free = submit_stream(&uncapped);
                let governed = submit_stream(&capped);
                assert_eq!(free, governed, "cap changed an answer (round {round})");
            }
            let stats_response = capped.submit(Request {
                id: "stats".into(),
                deadline_ms: None,
                budget: None,
                kind: RequestKind::Stats,
            });
            let cqdet_service::Response::Stats { stats, .. } = stats_response else {
                panic!("stats request failed");
            };
            let evictions = stats.frozen_usage.evictions
                + stats.gate_usage.evictions
                + stats.span_usage.evictions
                + stats.hom_usage.evictions
                + stats.cand_usage.evictions;
            assert!(evictions > 0, "64 KiB cap never evicted: {stats:?}");
            for (tag, usage) in [
                ("frozen", &stats.frozen_usage),
                ("gate", &stats.gate_usage),
                ("span", &stats.span_usage),
                ("hom", &stats.hom_usage),
            ] {
                assert!(
                    usage.bytes <= usage.cap,
                    "{tag} cache over budget: {} > {}",
                    usage.bytes,
                    usage.cap
                );
            }
            capped.set_cache_bytes(None);
        }
        {
            let uncapped = Engine::new();
            h.bench("cache/uncapped/16x3x2", || submit_stream(&uncapped).len());
        }
        {
            let capped = Engine::new();
            capped.set_cache_bytes(Some(CAP));
            h.bench("cache/capped64k/16x3x2", || submit_stream(&capped).len());
            // Cap and watermark of the candidate-memo family are
            // process-global: restore the defaults.
            capped.set_cache_bytes(None);
        }

        let snapshot_path =
            std::env::temp_dir().join(format!("cqdet-bench-snapshot-{}.cqds", std::process::id()));
        // The K8-view/K7-query clique instance: its containment gate check
        // is a backtracking hom search visiting >10k candidate extensions,
        // and the gate *verdict* is exactly what the snapshot persists — so
        // this is the workload where warm start pays, as opposed to
        // canonization-bound instances whose cost no snapshot can carry.
        let clique = |name: &str, n: usize| {
            let atoms: Vec<String> = (0..n)
                .flat_map(|i| {
                    (0..n)
                        .filter(move |&j| j != i)
                        .map(move |j| format!("R(x{i},x{j})"))
                })
                .collect();
            format!("{name}() :- {}", atoms.join(", "))
        };
        let first_name = "q".to_string();
        let first_program = format!("{}\n{}", clique("v", 8), clique("q", 7));
        {
            let warmer = Engine::new();
            let response =
                warmer.submit(decide_request("warm".into(), &first_program, &first_name));
            assert!(!response.is_error(), "warm-up decide failed");
            warmer
                .save_snapshot(&snapshot_path)
                .expect("save bench snapshot");
        }
        let runs = if quick { 5 } else { 15 };
        let mut cold_ns = Vec::with_capacity(runs);
        let mut warm_ns = Vec::with_capacity(runs);
        for _ in 0..runs {
            let engine = Engine::new();
            let t = Instant::now();
            let response =
                engine.submit(decide_request("first".into(), &first_program, &first_name));
            cold_ns.push(t.elapsed().as_secs_f64() * 1e9);
            assert!(!response.is_error(), "cold first request failed");

            let engine = Engine::new();
            let t = Instant::now();
            engine
                .load_snapshot(&snapshot_path)
                .expect("load bench snapshot");
            let response =
                engine.submit(decide_request("first".into(), &first_program, &first_name));
            warm_ns.push(t.elapsed().as_secs_f64() * 1e9);
            assert!(!response.is_error(), "warm first request failed");
        }
        let _ = std::fs::remove_file(&snapshot_path);
        let summarize = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = v.iter().cloned().fold(0.0f64, f64::max);
            (mean, min, max)
        };
        let (cold_mean, cold_min, cold_max) = summarize(&cold_ns);
        let (warm_mean, warm_min, warm_max) = summarize(&warm_ns);
        for (name, mean, min, max) in [
            ("cache/cold_first/clique8x7", cold_mean, cold_min, cold_max),
            ("cache/warm_first/clique8x7", warm_mean, warm_min, warm_max),
        ] {
            println!(
                "{name:<44} mean {:>12}  (min {:>12}, max {:>12})",
                ns(mean),
                ns(min),
                ns(max)
            );
            h.append_json(format!(
                "{{\"benchmark\":\"{name}\",\"label\":\"{}\",\"mean_ns\":{mean:.1},\"min_ns\":{min:.1},\"max_ns\":{max:.1},\"samples\":{runs},\"iters_per_sample\":1}}\n",
                h.label
            ));
        }
        assert!(
            warm_mean < cold_mean,
            "warm start must beat cold start: warm {} >= cold {}",
            ns(warm_mean),
            ns(cold_mean)
        );
    }

    // DELTA: mutable decision sessions (§DELTA) — a warm 64-view
    // `MutableSession` absorbing an add + redecide + remove churn cycle per
    // request, against rebuild-per-request: a client that holds no session
    // open and pays `MutableSession::open` + `redecide` on the full 65-view
    // set for every request, through the *same* shared caches.  Gate
    // verdicts, frozen bodies and Def 29 vectors are warm on both sides, so
    // the gap isolates what the warm session keeps that a rebuild cannot:
    // the prepared layout and the span echelon (the churn add folds one
    // generator into the reduced echelon and its removal compacts a
    // dependent slot; the rebuild re-prepares and re-eliminates all 65
    // rows).  A one-shot `decide_bag_determinacy_in` row rides along as a
    // cache-warm floor reference.  The acceptance gate asserts
    // redecide-after-add beats the rebuild.
    if h.family_enabled("delta") {
        use cqdet_bench::{delta_workload, DELTA_CHURN_VIEWS, DELTA_SESSION_VIEWS};
        use cqdet_core::{
            decide_bag_determinacy_in, Budget, CancelToken, DecisionContext, MutableSession,
        };
        let ctl = CancelToken::none();
        let nb = Budget::none();
        let (views, query, extras) = delta_workload(DELTA_SESSION_VIEWS, DELTA_CHURN_VIEWS);
        let cx = DecisionContext::new();
        let mut session = MutableSession::open(&cx, views.clone(), query.clone(), 8, &ctl, &nb)
            .expect("open delta session");
        // Warm both paths and sanity-check agreement on every churn step
        // before publishing numbers.
        let base = session.redecide(&cx, &ctl, &nb).expect("warm redecide");
        assert!(base.determined, "delta workload must be determined");
        for extra in &extras {
            session
                .view_add(&cx, extra.clone(), &ctl, &nb)
                .expect("churn add");
            let got = session.redecide(&cx, &ctl, &nb).expect("churn redecide");
            let mut wide = views.clone();
            wide.push(extra.clone());
            let oracle = decide_bag_determinacy_in(&cx, &wide, &query).expect("churn oracle");
            assert_eq!(got.determined, oracle.determined, "session diverged");
            assert_eq!(got.coefficients, oracle.coefficients, "session diverged");
            session
                .view_remove(&cx, DELTA_SESSION_VIEWS, &ctl, &nb)
                .expect("churn remove");
        }
        assert!(
            session.counters().fast_removals + session.counters().replays > 0,
            "delta churn must exercise the removal-repair path"
        );
        let runs = if quick { 60 } else { 300 };
        let mut session_ns = Vec::with_capacity(runs);
        let mut rebuild_ns = Vec::with_capacity(runs);
        let mut oneshot_ns = Vec::with_capacity(runs);
        for i in 0..runs {
            let extra = extras[i % extras.len()].clone();
            session.view_add(&cx, extra, &ctl, &nb).expect("timed add");
            let t = Instant::now();
            let got = session.redecide(&cx, &ctl, &nb).expect("timed redecide");
            session_ns.push(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(got.determined);
            session
                .view_remove(&cx, DELTA_SESSION_VIEWS, &ctl, &nb)
                .expect("timed remove");
        }
        for i in 0..runs {
            let mut wide = views.clone();
            wide.push(extras[i % extras.len()].clone());
            let t = Instant::now();
            let mut fresh = MutableSession::open(&cx, wide.clone(), query.clone(), 8, &ctl, &nb)
                .expect("timed reopen");
            let got = fresh.redecide(&cx, &ctl, &nb).expect("timed rebuild");
            rebuild_ns.push(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(got.determined);
            let t = Instant::now();
            let got = decide_bag_determinacy_in(&cx, &wide, &query).expect("timed one-shot");
            oneshot_ns.push(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(got.determined);
        }
        let quantile = |sorted: &[f64], q: f64| -> f64 {
            sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
        };
        let counters = session.counters();
        let mut rows = Vec::new();
        for (name, samples) in [
            ("delta/session/redecide-after-add/64", session_ns),
            ("delta/rebuild/open+redecide/64", rebuild_ns),
            ("delta/reference/one-shot/64", oneshot_ns),
        ] {
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let mut sorted = samples;
            sorted.sort_by(f64::total_cmp);
            let (p50, p95) = (quantile(&sorted, 0.50), quantile(&sorted, 0.95));
            println!(
                "{name:<44} mean {:>12}  (p50 {:>12}, p95 {:>12})",
                ns(mean),
                ns(p50),
                ns(p95)
            );
            h.append_json(format!(
                "{{\"benchmark\":\"{name}\",\"label\":\"{}\",\"mean_ns\":{mean:.1},\"p50_ns\":{p50:.1},\"p95_ns\":{p95:.1},\"runs\":{runs}}}\n",
                h.label
            ));
            rows.push(mean);
        }
        let (session_mean, rebuild_mean, _oneshot_mean) = (rows[0], rows[1], rows[2]);
        let speedup = rebuild_mean / session_mean;
        println!(
            "delta/speedup/64                             {speedup:>9.2}x  (replays {}, fast removals {}, rebuilds {})",
            counters.replays, counters.fast_removals, counters.rebuilds
        );
        h.append_json(format!(
            "{{\"benchmark\":\"delta/speedup/64\",\"label\":\"{}\",\"speedup\":{speedup:.3},\"session_mean_ns\":{session_mean:.1},\"rebuild_mean_ns\":{rebuild_mean:.1},\"replays\":{},\"fast_removals\":{},\"rebuilds\":{},\"runs\":{runs}}}\n",
            h.label, counters.replays, counters.fast_removals, counters.rebuilds
        ));
        assert!(
            session_mean < rebuild_mean,
            "redecide-after-add must beat the full rebuild: session {} >= rebuild {}",
            ns(session_mean),
            ns(rebuild_mean)
        );
    }
}
