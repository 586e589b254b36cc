//! Typed responses: one variant per request family, echoing the request id,
//! with wire JSON projections.
//!
//! A response on the wire is one JSON object per line with the envelope
//! `{"version":1,"id":...,"type":...}` plus the payload members of its
//! variant:
//!
//! * `decide` — the full certificate record ([`cqdet_engine::TaskRecord`]);
//! * `batch` — `records` (array of certificate records), `stats`, and a
//!   `deadline_exceeded` flag when the shared deadline cut the batch short
//!   (completed records survive — partial, not void);
//! * `path` — the Theorem 1 outcome, derivation steps or Appendix B witness;
//! * `hilbert` — the encoding summary and the bounded refutation, if found;
//! * `explain` — the narration as one text member;
//! * `stats` — session cache counters plus the server's request count;
//! * `shutdown` — an acknowledgement;
//! * `error` / `timeout` — the typed [`CqdetError`]; a
//!   [`CqdetError::Deadline`] renders with type `timeout`, everything else
//!   with type `error`.
//!
//! In process, the variants carry the **typed** payloads (records, analyses,
//! parsed queries), so front ends — the CLI included — render without
//! re-parsing; [`Response::to_json`] is the wire projection.

use crate::engine::EngineCounters;
use crate::error::CqdetError;
use crate::request::PROTOCOL_VERSION;
use cqdet_core::{ContextStats, PathAnalysis};
use cqdet_engine::{stats_json, Json, TaskRecord};
use cqdet_query::{ConjunctiveQuery, PathQuery};
use cqdet_structure::Structure;

/// A bounded refutation found by a `hilbert` request: the counterexample
/// pair and its verification outcome.
#[derive(Debug, Clone)]
pub struct HilbertRefutation {
    /// The structure `D`.
    pub d: Structure,
    /// The structure `D′`.
    pub d_prime: Structure,
    /// Outcome of `verify_counterexample` on the pair.
    pub verified: bool,
}

/// A typed response.  See the [module docs](self) for the wire shape.
#[derive(Debug)]
pub enum Response {
    /// Answer to a `decide` request.
    Decide {
        /// The request id, echoed.
        id: String,
        /// The full certificate record.
        record: Box<TaskRecord>,
        /// The parsed views, in program order (in-process only).
        views: Vec<ConjunctiveQuery>,
        /// The parsed query (in-process only).
        query: Box<ConjunctiveQuery>,
    },
    /// Answer to a `batch` request.
    Batch {
        /// The request id, echoed.
        id: String,
        /// One certificate record per task, in task-file order.
        records: Vec<TaskRecord>,
        /// Session cache counters after the batch.
        stats: ContextStats,
        /// Whether the request's deadline expired mid-batch (some records
        /// then carry `timeout_stage`; completed ones are intact).
        deadline_exceeded: bool,
        /// Whether the request's shared fuel budget ran out mid-batch (some
        /// records then carry `fuel_exhausted`; completed ones are intact).
        fuel_exhausted: bool,
    },
    /// Answer to a `path` request.
    Path {
        /// The request id, echoed.
        id: String,
        /// The parsed query word.
        query: PathQuery,
        /// The parsed view words.
        views: Vec<PathQuery>,
        /// The Theorem 1 analysis (derivation steps when determined).
        analysis: PathAnalysis,
        /// The Appendix B witness pair when not determined.
        witness: Option<(Structure, Structure)>,
    },
    /// Answer to a `hilbert` request.
    Hilbert {
        /// The request id, echoed.
        id: String,
        /// The instance, rendered.
        instance: String,
        /// Number of views in the Theorem 2 encoding.
        views: usize,
        /// Total CQ disjuncts across the encoding.
        disjuncts: usize,
        /// The encoding's schema, rendered.
        schema: String,
        /// The search bound that was used.
        bound: u64,
        /// The refutation, when one exists within the bound.
        refutation: Option<HilbertRefutation>,
    },
    /// Answer to an `explain` request: the narration.
    Explain {
        /// The request id, echoed.
        id: String,
        /// The full narration (the `cqdet explain` stdout).
        text: String,
    },
    /// Answer to a `stats` request.
    Stats {
        /// The request id, echoed.
        id: String,
        /// Session cache counters.
        stats: ContextStats,
        /// Requests served by this engine so far (this one included).
        requests: u64,
        /// Per-reason robustness counters (timeouts, contained panics,
        /// shed load, …).
        counters: EngineCounters,
        /// The engine's request count when the TCP reactor admitted this
        /// request (`None` on other transports, and then not rendered):
        /// `requests - admitted_at - 1` requests started while it waited.
        admitted_at: Option<u64>,
    },
    /// Answer to a `session_open` request.
    SessionOpen {
        /// The request id, echoed.
        id: String,
        /// The freshly allocated session id (the handle every later
        /// mutation addresses).
        session: u64,
        /// The session's view names, program order.
        views: Vec<String>,
        /// The session's query name.
        query: String,
    },
    /// Answer to a `view_add` / `view_remove` request.
    SessionDelta {
        /// The request id, echoed.
        id: String,
        /// The target session id, echoed.
        session: u64,
        /// Which mutation ran: `"view_add"` or `"view_remove"` (doubles as
        /// the wire `type`).
        action: &'static str,
        /// The session's view names *after* the mutation.
        views: Vec<String>,
        /// The session's cumulative delta counters (adds, removes,
        /// fast removals, replays, rebuilds) — how the echelon was
        /// repaired is observable, not guessed.
        counters: cqdet_core::DeltaCounters,
    },
    /// Answer to a `redecide` request: the full certificate record against
    /// the session's current view set.
    SessionDecide {
        /// The request id, echoed.
        id: String,
        /// The target session id, echoed.
        session: u64,
        /// The full certificate record (same schema as `decide`).
        record: Box<TaskRecord>,
    },
    /// Acknowledgement of a `session_close` request.
    SessionClosed {
        /// The request id, echoed.
        id: String,
        /// The closed session id, echoed.
        session: u64,
    },
    /// Acknowledgement of a `shutdown` request.
    Shutdown {
        /// The request id, echoed.
        id: String,
    },
    /// A failed request: the typed error, echoing the id when one was
    /// decodable.
    Error {
        /// The request id, when the request got far enough to have one.
        id: Option<String>,
        /// What went wrong.
        error: CqdetError,
    },
}

impl Response {
    /// The echoed request id (`None` only for undecodable requests).
    pub fn id(&self) -> Option<&str> {
        match self {
            Response::Decide { id, .. }
            | Response::Batch { id, .. }
            | Response::Path { id, .. }
            | Response::Hilbert { id, .. }
            | Response::Explain { id, .. }
            | Response::SessionOpen { id, .. }
            | Response::SessionDelta { id, .. }
            | Response::SessionDecide { id, .. }
            | Response::SessionClosed { id, .. }
            | Response::Stats { id, .. }
            | Response::Shutdown { id } => Some(id),
            Response::Error { id, .. } => id.as_deref(),
        }
    }

    /// The wire `"type"` string (`"timeout"` for deadline errors).
    pub fn type_str(&self) -> &'static str {
        match self {
            Response::Decide { .. } => "decide",
            Response::Batch { .. } => "batch",
            Response::Path { .. } => "path",
            Response::Hilbert { .. } => "hilbert",
            Response::Explain { .. } => "explain",
            Response::SessionOpen { .. } => "session_open",
            Response::SessionDelta { action, .. } => action,
            Response::SessionDecide { .. } => "redecide",
            Response::SessionClosed { .. } => "session_close",
            Response::Stats { .. } => "stats",
            Response::Shutdown { .. } => "shutdown",
            Response::Error { error, .. } => match error {
                CqdetError::Deadline { .. } => "timeout",
                _ => "error",
            },
        }
    }

    /// Whether this is an error (or timeout) response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// The wire JSON of this response (the envelope plus the payload).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("version".into(), Json::num(PROTOCOL_VERSION)),
            (
                "id".into(),
                match self.id() {
                    Some(id) => Json::str(id),
                    None => Json::Null,
                },
            ),
            ("type".into(), Json::str(self.type_str())),
        ];
        match self {
            Response::Decide { record, .. } => {
                members.push(("record".into(), record.to_json()));
            }
            Response::Batch {
                records,
                stats,
                deadline_exceeded,
                fuel_exhausted,
                ..
            } => {
                members.push((
                    "records".into(),
                    Json::Arr(records.iter().map(TaskRecord::to_json).collect()),
                ));
                members.push(("stats".into(), stats_json(stats)));
                if *deadline_exceeded {
                    members.push(("deadline_exceeded".into(), Json::Bool(true)));
                }
                if *fuel_exhausted {
                    members.push(("fuel_exhausted".into(), Json::Bool(true)));
                }
            }
            Response::Path {
                query,
                views,
                analysis,
                witness,
                ..
            } => {
                members.push(("query".into(), Json::str(query.to_string())));
                members.push((
                    "views".into(),
                    Json::Arr(views.iter().map(|v| Json::str(v.to_string())).collect()),
                ));
                members.push(("determined".into(), Json::Bool(analysis.determined)));
                if let Some(steps) = &analysis.derivation {
                    members.push((
                        "derivation".into(),
                        Json::Arr(
                            steps
                                .iter()
                                .map(|s| {
                                    Json::obj([
                                        ("view", Json::num(s.view as i64)),
                                        ("sign", Json::num(s.sign as i64)),
                                        ("from_len", Json::num(s.from_len as i64)),
                                        ("to_len", Json::num(s.to_len as i64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                }
                if let Some((d, d_prime)) = witness {
                    members.push((
                        "witness".into(),
                        Json::obj([
                            ("d", Json::str(d.to_string())),
                            ("d_prime", Json::str(d_prime.to_string())),
                        ]),
                    ));
                }
            }
            Response::Hilbert {
                instance,
                views,
                disjuncts,
                schema,
                bound,
                refutation,
                ..
            } => {
                members.push(("instance".into(), Json::str(instance)));
                members.push(("views".into(), Json::num(*views as i64)));
                members.push(("disjuncts".into(), Json::num(*disjuncts as i64)));
                members.push(("schema".into(), Json::str(schema)));
                members.push(("bound".into(), Json::num(*bound as i64)));
                match refutation {
                    Some(r) => members.push((
                        "refutation".into(),
                        Json::obj([
                            ("d", Json::str(r.d.to_string())),
                            ("d_prime", Json::str(r.d_prime.to_string())),
                            ("verified", Json::Bool(r.verified)),
                        ]),
                    )),
                    None => members.push(("refutation".into(), Json::Null)),
                }
            }
            Response::Explain { text, .. } => {
                members.push(("text".into(), Json::str(text)));
            }
            Response::Stats {
                stats,
                requests,
                counters,
                admitted_at,
                ..
            } => {
                members.push(("stats".into(), stats_json(stats)));
                members.push(("requests".into(), Json::num(*requests as i64)));
                members.push(("counters".into(), counters_json(counters)));
                if let Some(at) = admitted_at {
                    members.push(("admitted_at".into(), Json::num(*at as i64)));
                }
            }
            Response::SessionOpen {
                session,
                views,
                query,
                ..
            } => {
                members.push(("session".into(), Json::num(*session as i64)));
                members.push((
                    "views".into(),
                    Json::Arr(views.iter().map(Json::str).collect()),
                ));
                members.push(("query".into(), Json::str(query)));
            }
            Response::SessionDelta {
                session,
                views,
                counters,
                ..
            } => {
                members.push(("session".into(), Json::num(*session as i64)));
                members.push((
                    "views".into(),
                    Json::Arr(views.iter().map(Json::str).collect()),
                ));
                members.push(("delta_counters".into(), delta_counters_json(counters)));
            }
            Response::SessionDecide {
                session, record, ..
            } => {
                members.push(("session".into(), Json::num(*session as i64)));
                members.push(("record".into(), record.to_json()));
            }
            Response::SessionClosed { session, .. } => {
                members.push(("session".into(), Json::num(*session as i64)));
            }
            Response::Shutdown { .. } => {}
            Response::Error { error, .. } => {
                members.push(("error".into(), error_json(error)));
            }
        }
        Json::Obj(members)
    }
}

/// The wire JSON of a [`CqdetError`]: the stable `code` plus the variant's
/// structured members and a rendered `message`.
pub fn error_json(error: &CqdetError) -> Json {
    let mut members: Vec<(String, Json)> = vec![("code".into(), Json::str(error.code()))];
    match error {
        CqdetError::Parse {
            line, col, token, ..
        } => {
            members.push(("line".into(), Json::num(*line as i64)));
            members.push(("col".into(), Json::num(*col as i64)));
            if !token.is_empty() {
                members.push(("token".into(), Json::str(token)));
            }
        }
        CqdetError::Deadline { stage } => {
            members.push(("stage".into(), Json::str(stage)));
        }
        CqdetError::ResourceExhausted { spent, limit, .. } => {
            // Fuel exhaustion carries its ledger so clients can resubmit
            // with an informed budget; capacity errors carry neither.
            if let Some(spent) = spent {
                members.push(("spent".into(), Json::num(*spent as i64)));
            }
            if let Some(limit) = limit {
                members.push(("limit".into(), Json::num(*limit as i64)));
            }
        }
        CqdetError::Schema { .. } | CqdetError::Internal { .. } => {}
    }
    members.push(("message".into(), Json::str(error.to_string())));
    Json::Obj(members)
}

/// The wire JSON of a session's cumulative delta counters (the
/// `"delta_counters"` member of `view_add` / `view_remove` responses).
pub fn delta_counters_json(counters: &cqdet_core::DeltaCounters) -> Json {
    Json::obj([
        ("adds", Json::num(counters.adds as i64)),
        ("removes", Json::num(counters.removes as i64)),
        ("redecides", Json::num(counters.redecides as i64)),
        ("fast_removals", Json::num(counters.fast_removals as i64)),
        ("replays", Json::num(counters.replays as i64)),
        ("rebuilds", Json::num(counters.rebuilds as i64)),
    ])
}

/// The wire JSON of the per-reason robustness counters (the `"counters"`
/// member of `stats` responses).
pub fn counters_json(counters: &EngineCounters) -> Json {
    Json::obj([
        ("timeouts", Json::num(counters.timeouts as i64)),
        ("fuel_exhausted", Json::num(counters.fuel_exhausted as i64)),
        (
            "panics_contained",
            Json::num(counters.panics_contained as i64),
        ),
        (
            "shed_connections",
            Json::num(counters.shed_connections as i64),
        ),
        ("shed_requests", Json::num(counters.shed_requests as i64)),
        (
            "oversized_requests",
            Json::num(counters.oversized_requests as i64),
        ),
        ("accept_retries", Json::num(counters.accept_retries as i64)),
        (
            "snapshot_loaded",
            Json::num(counters.snapshot_loaded as i64),
        ),
        (
            "snapshot_rejected",
            Json::num(counters.snapshot_rejected as i64),
        ),
        ("sessions_open", Json::num(counters.sessions_open as i64)),
        (
            "sessions_reaped",
            Json::num(counters.sessions_reaped as i64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_envelope_distinguishes_timeouts() {
        let timeout = Response::Error {
            id: Some("r1".into()),
            error: CqdetError::Deadline {
                stage: "gate".into(),
            },
        };
        let json = timeout.to_json();
        assert_eq!(json.get("type").unwrap().as_str(), Some("timeout"));
        assert_eq!(json.get("id").unwrap().as_str(), Some("r1"));
        let err = json.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("deadline"));
        assert_eq!(err.get("stage").unwrap().as_str(), Some("gate"));

        let plain = Response::Error {
            id: None,
            error: CqdetError::schema("nope"),
        };
        let json = plain.to_json();
        assert_eq!(json.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(json.get("id"), Some(&Json::Null));
        // Every envelope carries the protocol version and round-trips.
        assert_eq!(json.get("version").unwrap().as_u64(), Some(1));
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }

    #[test]
    fn parse_errors_carry_position_on_the_wire() {
        let e = CqdetError::Parse {
            line: 3,
            col: 7,
            token: "junk".into(),
            message: "unexpected input after atom".into(),
        };
        let json = error_json(&e);
        assert_eq!(json.get("line").unwrap().as_u64(), Some(3));
        assert_eq!(json.get("col").unwrap().as_u64(), Some(7));
        assert_eq!(json.get("token").unwrap().as_str(), Some("junk"));
    }
}
