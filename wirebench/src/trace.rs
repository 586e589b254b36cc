//! The traced run: the same generated request lines, replayed in-process
//! with a span around each public call into each layer.
//!
//! Each line is timed through the service layer (`Request::from_line`,
//! `Engine::submit`, `Response::to_json().render()`), its program through
//! the query parser, and its instance through the Theorem 3 pipeline twice:
//! once stage by stage (freeze and intern, the Definition 25 gate, the
//! Definition 27 basis and Definition 29 vectors, the Lemma 31 span test),
//! serially on one `DecisionContext`, and once as the whole
//! `decide_bag_determinacy_in` call on another.  The two must agree on the
//! verdict, the retained views, q⃗ and the view vectors, so that the stage
//! spans time what the program computes.  Mutable-session lines are timed through `MutableSession`, and
//! witness requests through `build_counterexample` and its verification.
//!
//! Every context and engine here sees the same line sequence the server
//! saw (warm-up included), so hits and misses fall as they did on the wire.

use crate::gen::{Req, Stream, Workload, CONNECTIONS};
use cqdet_core::witness::{build_counterexample, check_certificate_arithmetic, WitnessConfig};
use cqdet_core::{
    decide_bag_determinacy_in, BagDeterminacy, DecisionContext, FrozenQuery, MutableSession,
    DEFAULT_CHECKPOINT_INTERVAL,
};
use cqdet_engine::{parse_task_file, DecisionSession, SessionConfig};
use cqdet_linalg::{QVec, Rat};
use cqdet_parallel::{Budget, CancelToken};
use cqdet_query::cq::common_schema;
use cqdet_query::{parse_queries, ConjunctiveQuery};
use cqdet_service::{parse_program, Engine, Request, RequestKind};
use cqdet_structure::{dedup_up_to_iso_refs, with_shared_caches, BasisIndex, Structure};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-span samples in µs, keyed by metric name.
#[derive(Default)]
pub struct Spans {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Instances decided both stage by stage and as one call.
    pub instances: u64,
    /// Instances where the two analyses (or a session's) disagreed.
    pub mismatches: u64,
    pub notes: Vec<String>,
    /// Sums over instances of the serial stage spans and of the whole call.
    pub stage_total_us: f64,
    pub decide_total_us: f64,
    /// Bit lengths of every `answers_d` entry built.
    pub answer_bits: Vec<f64>,
}

impl Spans {
    fn push(&mut self, name: &'static str, us: f64) {
        self.samples.entry(name).or_default().push(us);
    }

    fn mismatch(&mut self, note: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The in-process stand-ins for one server.
struct Replay {
    /// Served-path twin: decode → submit → render.
    engine: Engine,
    /// Whole-call decides, batches, sessions and witnesses.
    session: DecisionSession,
    /// The stage-by-stage pipeline.
    staged: DecisionContext,
    /// Open mutable sessions by wire id (opened in order, from 1).
    sessions: HashMap<u64, MutableSession>,
    spans: Spans,
}

/// Replay `workload`'s lines for `seed` until `budget` runs out or
/// `max_lines` timed lines were replayed, alternating the connections'
/// streams as the server interleaved them.
pub fn replay(workload: Workload, seed: u64, budget: Duration, max_lines: usize) -> Spans {
    let cache_bytes = workload.cache_bytes();
    let engine = Engine::new();
    engine.set_cache_bytes(cache_bytes);
    let session = DecisionSession::new();
    session.context().set_cache_bytes(cache_bytes);
    let staged = DecisionContext::with_cache_bytes(cache_bytes);
    let mut r = Replay {
        engine,
        session,
        staged,
        sessions: HashMap::new(),
        spans: Spans::default(),
    };
    let mut streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|c| Stream::new(workload, seed, c))
        .collect();
    // Warm-up: a session open is a measured operation; a warm pool pass is
    // set-up, replayed untimed.
    let timed_warmup = workload == Workload::SessionChurn;
    for stream in &streams {
        for req in stream.warmup() {
            r.step(&req, timed_warmup);
        }
    }
    let start = Instant::now();
    let mut lines = 0;
    while start.elapsed() < budget && lines < max_lines {
        let req = streams[lines % CONNECTIONS].next_req();
        r.step(&req, true);
        lines += 1;
    }
    r.spans
}

impl Replay {
    /// Replay one line; `record` keeps its spans.
    fn step(&mut self, req: &Req, record: bool) {
        let mut local = Spans::default();
        let t = Instant::now();
        let request = match Request::from_line(&req.line) {
            Ok(request) => request,
            Err(e) => {
                self.spans.mismatch(format!("undecodable line: {e}"));
                return;
            }
        };
        local.push("service.decode_us", us(t));
        self.pipeline(&request.kind, &mut local);
        let t = Instant::now();
        let response = self.engine.submit(request);
        local.push("service.submit_us", us(t));
        let t = Instant::now();
        let rendered = response.to_json().render();
        local.push("service.render_us", us(t));
        if response.is_error() {
            local.mismatch(format!("in-process error: {rendered:.200}"));
        }
        // Mismatches always count; spans only for timed lines.
        self.spans.instances += local.instances;
        self.spans.mismatches += local.mismatches;
        for note in local.notes.drain(..) {
            if self.spans.notes.len() < 8 {
                self.spans.notes.push(note);
            }
        }
        if record {
            for (name, values) in local.samples {
                self.spans.samples.entry(name).or_default().extend(values);
            }
            self.spans.stage_total_us += local.stage_total_us;
            self.spans.decide_total_us += local.decide_total_us;
            self.spans.answer_bits.extend(local.answer_bits);
        }
    }

    /// The layer spans below the service for one request.
    fn pipeline(&mut self, kind: &RequestKind, spans: &mut Spans) {
        let none = CancelToken::none();
        let budget = Budget::none();
        match kind {
            RequestKind::Decide {
                program,
                query,
                witness,
            } => {
                let t = Instant::now();
                let Ok((views, query)) = parse_program(program, query) else {
                    return spans.mismatch("program does not parse".into());
                };
                spans.push("query.parse_us", us(t));
                let whole = self.decide_both(&views, &query, spans);
                if let (true, Some(analysis)) = (*witness, whole) {
                    self.witness(&analysis, &views, &query, spans);
                }
            }
            RequestKind::Batch { tasks, .. } => {
                let t = Instant::now();
                let Ok(file) = parse_task_file(tasks) else {
                    return spans.mismatch("task file does not parse".into());
                };
                spans.push("query.parse_us", us(t));
                let config = SessionConfig::default();
                let t = Instant::now();
                let report = self.session.decide_batch_with(&file.tasks, &none, &config);
                spans.push("engine.batch_us", us(t));
                if !report
                    .records
                    .iter()
                    .all(|r| r.analysis.as_ref().is_some_and(|a| a.determined))
                {
                    spans.mismatch("batch task not determined in-process".into());
                }
            }
            RequestKind::SessionOpen { program, query, .. } => {
                let t = Instant::now();
                let Ok((views, query)) = parse_program(program, query) else {
                    return spans.mismatch("program does not parse".into());
                };
                spans.push("query.parse_us", us(t));
                let cx = self.session.context();
                let t = Instant::now();
                let opened = with_shared_caches(cx.caches(), || {
                    MutableSession::open(
                        cx,
                        views,
                        query,
                        DEFAULT_CHECKPOINT_INTERVAL,
                        &none,
                        &budget,
                    )
                });
                spans.push("core.delta.open_us", us(t));
                match opened {
                    Ok(s) => {
                        let id = self.sessions.len() as u64 + 1;
                        self.sessions.insert(id, s);
                    }
                    Err(e) => spans.mismatch(format!("session open failed: {e}")),
                }
            }
            RequestKind::ViewAdd { session, view } => {
                let t = Instant::now();
                let parsed = parse_queries(view)
                    .ok()
                    .and_then(|u| u.first().map(|u| u.disjuncts()[0].clone()));
                spans.push("query.parse_us", us(t));
                let (Some(view), Some(s)) = (parsed, self.sessions.get_mut(session)) else {
                    return spans.mismatch("view_add on no session".into());
                };
                let cx = self.session.context();
                let t = Instant::now();
                let added =
                    with_shared_caches(cx.caches(), || s.view_add(cx, view, &none, &budget));
                spans.push("core.delta.add_us", us(t));
                if let Err(e) = added {
                    spans.mismatch(format!("view_add failed: {e}"));
                }
            }
            RequestKind::ViewRemove { session, view } => {
                let Some(s) = self.sessions.get_mut(session) else {
                    return spans.mismatch("view_remove on no session".into());
                };
                let Some(index) = s.views().iter().position(|v| v.name() == view) else {
                    return spans.mismatch(format!("no view {view} to remove"));
                };
                let cx = self.session.context();
                let t = Instant::now();
                let removed =
                    with_shared_caches(cx.caches(), || s.view_remove(cx, index, &none, &budget));
                spans.push("core.delta.remove_us", us(t));
                if let Err(e) = removed {
                    spans.mismatch(format!("view_remove failed: {e}"));
                }
            }
            RequestKind::Redecide { session, .. } => {
                let Some(s) = self.sessions.get_mut(session) else {
                    return spans.mismatch("redecide on no session".into());
                };
                let cx = self.session.context();
                let t = Instant::now();
                let outcome = with_shared_caches(cx.caches(), || s.redecide(cx, &none, &budget));
                spans.push("core.delta.redecide_us", us(t));
                let (views, query) = (s.views().to_vec(), s.query().clone());
                let whole = self.decide_both(&views, &query, spans);
                match (outcome, whole) {
                    (Ok(delta), Some(whole)) if same_analysis(&delta, &whole) => {}
                    _ => spans.mismatch("redecide disagrees with a one-shot decide".into()),
                }
            }
            _ => spans.mismatch("unexpected request kind".into()),
        }
    }

    /// Decide one instance stage by stage and as one call; count a
    /// mismatch when the two analyses differ.  Returns the whole-call
    /// analysis.
    fn decide_both(
        &self,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
        spans: &mut Spans,
    ) -> Option<BagDeterminacy> {
        let staged = with_shared_caches(self.staged.caches(), || {
            staged_decide(&self.staged, views, query, spans)
        });
        let cx = self.session.context();
        let t = Instant::now();
        let whole = with_shared_caches(cx.caches(), || decide_bag_determinacy_in(cx, views, query));
        let decide_us = us(t);
        spans.push("core.decide_us", decide_us);
        spans.instances += 1;
        let Some(staged) = staged else {
            spans.mismatch("staged replay failed".into());
            return None;
        };
        spans.push("parallel.fanout_us", decide_us - staged.stage_us);
        spans.stage_total_us += staged.stage_us;
        spans.decide_total_us += decide_us;
        match whole {
            Ok(analysis) if staged.agrees_with(&analysis) => Some(analysis),
            Ok(_) => {
                spans.mismatch("staged and whole-call analyses differ".into());
                None
            }
            Err(e) => {
                spans.mismatch(format!("whole-call decide failed: {e}"));
                None
            }
        }
    }

    fn witness(
        &self,
        analysis: &BagDeterminacy,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
        spans: &mut Spans,
    ) {
        let caches = self.session.context().caches();
        let t = Instant::now();
        let built = with_shared_caches(caches, || {
            build_counterexample(analysis, query, &WitnessConfig::default())
        });
        spans.push("core.witness_us", us(t));
        let Ok(witness) = built else {
            return spans.mismatch("no counterexample built".into());
        };
        let t = Instant::now();
        let verified = check_certificate_arithmetic(&witness, analysis)
            && with_shared_caches(caches, || witness.verify(views, query));
        spans.push("core.verify_us", us(t));
        if !verified {
            spans.mismatch("counterexample does not verify".into());
        }
        let (answers_d, _) = with_shared_caches(caches, || witness.answer_vectors());
        spans
            .answer_bits
            .extend(answers_d.iter().map(|n| n.bit_len() as f64));
    }
}

/// Whether two analyses carry the same verdict, vectors and coefficients.
fn same_analysis(a: &BagDeterminacy, b: &BagDeterminacy) -> bool {
    a.determined == b.determined
        && a.retained_views == b.retained_views
        && a.query_vector == b.query_vector
        && a.view_vectors == b.view_vectors
        && a.coefficients == b.coefficients
}

/// What the stage-by-stage pipeline computed, and how long it took.
struct Staged {
    determined: bool,
    retained_views: Vec<usize>,
    query_vector: QVec,
    view_vectors: Vec<QVec>,
    /// The sum of the stage spans, in µs.
    stage_us: f64,
}

impl Staged {
    /// Whether the whole call computed the same verdict, retained views
    /// and vectors (in the same basis order).
    fn agrees_with(&self, whole: &BagDeterminacy) -> bool {
        self.determined == whole.determined
            && self.retained_views == whole.retained_views
            && self.query_vector == whole.query_vector
            && self.view_vectors == whole.view_vectors
    }
}

/// The Theorem 3 pipeline as serial public calls, one span per stage.
fn staged_decide(
    cx: &DecisionContext,
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
    spans: &mut Spans,
) -> Option<Staged> {
    // Freeze and intern: frozen bodies from the session cache (canonized on
    // a miss), then one session-wide class id per view body.
    let t = Instant::now();
    let all: Vec<&ConjunctiveQuery> = views.iter().chain(std::iter::once(query)).collect();
    let schema = common_schema(&all);
    let q_frozen = cx.frozen(&schema, query);
    let view_frozen: Vec<Arc<FrozenQuery>> = views.iter().map(|v| cx.frozen(&schema, v)).collect();
    let mut reps: Vec<usize> = Vec::new();
    let mut rep_ids: Vec<u32> = Vec::new();
    let mut class_of: Vec<usize> = Vec::new();
    let mut seen: HashMap<u32, usize> = HashMap::new();
    for (i, f) in view_frozen.iter().enumerate() {
        let id = cx.class_id(f.iso_key());
        let class = *seen.entry(id).or_insert(reps.len());
        if class == reps.len() {
            reps.push(i);
            rep_ids.push(id);
        }
        class_of.push(class);
    }
    let freeze = us(t);
    spans.push("core.freeze_us", freeze);

    // Definition 25: keep the classes whose body maps into q.
    let t = Instant::now();
    let retained: Vec<usize> = (0..reps.len())
        .filter(|&c| cx.gate(&view_frozen[reps[c]], &q_frozen))
        .collect();
    let gate = us(t);
    spans.push("core.gate_us", gate);

    // Definitions 27 and 29: the basis over V ∪ {q}, view-contributed
    // prefix first, and one multiplicity vector per retained class.
    let t = Instant::now();
    let class_comps: Vec<&[Structure]> = retained
        .iter()
        .map(|&c| view_frozen[reps[c]].components())
        .collect();
    let q_comps = q_frozen.components();
    let view_refs = dedup_up_to_iso_refs(class_comps.iter().flat_map(|c| c.iter()));
    let prefix_dim = view_refs.len();
    let basis: Vec<Structure> = dedup_up_to_iso_refs(view_refs.into_iter().chain(q_comps.iter()))
        .into_iter()
        .cloned()
        .collect();
    let index = BasisIndex::new(&basis);
    let to_qvec = |comps: &[Structure]| {
        index
            .vector(comps)
            .map(|m| QVec(m.into_iter().map(|x| Rat::from_i64(x as i64)).collect()))
    };
    let class_vectors: Vec<QVec> = class_comps
        .iter()
        .map(|c| to_qvec(c))
        .collect::<Option<_>>()?;
    let q_vector = to_qvec(q_comps)?;
    let basis_us = us(t);
    spans.push("core.basis_us", basis_us);

    // Lemma 31: q⃗ in the span of the class vectors, through the session's
    // span cache (keyed as the pipeline keys it).
    let t = Instant::now();
    let determined = if class_vectors.is_empty() {
        q_vector.is_zero()
    } else if basis.len() != prefix_dim {
        false
    } else {
        let mut key: Vec<u32> = retained.iter().map(|&c| rep_ids[c]).collect();
        key.push(u32::MAX);
        key.extend(basis.iter().map(|w| cx.class_id(&w.iso_class_key())));
        cx.span_solve(&key, &class_vectors, &q_vector).is_some()
    };
    let span = us(t);
    spans.push("core.span_us", span);

    // Each retained view carries the vector of its class.
    let mut retained_views = Vec::new();
    let mut view_vectors = Vec::new();
    for (i, &class) in class_of.iter().enumerate() {
        if let Some(pos) = retained.iter().position(|&c| c == class) {
            retained_views.push(i);
            view_vectors.push(class_vectors[pos].clone());
        }
    }
    Some(Staged {
        determined,
        retained_views,
        query_vector: q_vector,
        view_vectors,
        stage_us: freeze + gate + basis_us + span,
    })
}
