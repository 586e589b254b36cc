//! Typed requests: one variant per workload family, with JSON-lines
//! decoding/encoding.
//!
//! A request on the wire is one JSON object per line:
//!
//! ```text
//! {"id":"r1","type":"decide","program":"v() :- R(x,y)\nq() :- R(x,y), R(u,w)","query":"q","witness":true}
//! {"id":"r2","type":"batch","tasks":"v() :- R(x,y)\nq() :- R(x,y), R(u,w)\ntask t: q <- v","deadline_ms":5000}
//! {"id":"r3","type":"path","query":"ABCD","views":["ABC","BC","BCD"]}
//! {"id":"r4","type":"hilbert","bound":6,"monomials":["+2:x,y","-12:"]}
//! {"id":"r5","type":"explain","program":"...","query":"q"}
//! {"id":"r6","type":"stats"}
//! {"id":"r7","type":"shutdown"}
//! ```
//!
//! * `id` — caller-chosen, echoed verbatim on the response (pipelining);
//! * `deadline_ms` — optional per-request deadline; checked at the
//!   pipeline's stage boundaries *and* every ~4k fuel steps inside the
//!   kernels; expiry yields a `timeout` response;
//! * `budget` — optional per-request fuel budget: a number (a step limit)
//!   or an object `{"steps": n, "bytes": m}` (either member optional).
//!   Kernels charge steps per unit of work and bytes for big-number growth;
//!   an exhausted ledger yields a `resource_exhausted` error response
//!   within microseconds, with `spent`/`limit` attached;
//! * unknown members are rejected (a typed `schema` error), so typos never
//!   silently change behaviour.
//!
//! Program text travels inside requests (`program`, `tasks`) in the same
//! Datalog-style syntax the CLI reads from files; parse failures come back
//! as positioned `parse` errors against that text.

use crate::error::CqdetError;
use cqdet_engine::Json;

/// Version of the request/response protocol (the `"version"` member of every
/// response envelope).  Currently `1`; requests do not carry a version —
/// unknown members and types are rejected instead.
pub const PROTOCOL_VERSION: i64 = 1;

/// One request: an id for pipelining, optional deadline and fuel budget,
/// and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen identifier, echoed on the response.
    pub id: String,
    /// Optional deadline in milliseconds; checked at pipeline stage
    /// boundaries (gate → basis → span → witness) and inside the metered
    /// kernels every ~4k fuel steps.
    pub deadline_ms: Option<u64>,
    /// Optional fuel budget for the decision kernels (wire member
    /// `budget`); `None` falls back to the engine's default budget.
    pub budget: Option<BudgetSpec>,
    /// The workload payload.
    pub kind: RequestKind,
}

/// A fuel budget on the wire: step and/or byte limits for the decision
/// kernels.  Encoded as a bare number (steps only) or an object
/// `{"steps": n, "bytes": m}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Step-ledger limit (one step ≈ one candidate extension in a hom
    /// search, one row-entry update in an elimination).
    pub steps: Option<u64>,
    /// Byte-ledger limit (charged for big-number coefficient growth in
    /// exact elimination).
    pub bytes: Option<u64>,
}

impl BudgetSpec {
    /// The in-process [`cqdet_parallel::Budget`] of this spec.
    pub fn to_budget(self) -> cqdet_parallel::Budget {
        cqdet_parallel::Budget::with_limits(self.steps, self.bytes)
    }
}

/// The workload families of the protocol — one variant per subcommand of the
/// `cqdet` CLI, which routes through exactly this type.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Decide one instance (Theorem 3): `program` defines one boolean CQ per
    /// line; the definition named `query` is the query, the rest are views.
    Decide {
        /// The program text.
        program: String,
        /// The query definition's name.
        query: String,
        /// Build (and verify) a counterexample when not determined.
        witness: bool,
    },
    /// Run a batch task file through the shared session.
    Batch {
        /// The task-file text (`cqdet_engine::taskfile` grammar).
        tasks: String,
        /// Build counterexamples for undetermined tasks (default `true`).
        witnesses: bool,
        /// Run the full symbolic re-verification (default `true`).
        verify: bool,
    },
    /// Path-query determinacy (Theorem 1) on compact words.
    Path {
        /// The query word (e.g. `"ABCD"`).
        query: String,
        /// The view words.
        views: Vec<String>,
    },
    /// The Theorem 2 reduction: search for a bounded refutation.
    Hilbert {
        /// Box bound on the unknowns.
        bound: u64,
        /// Monomials in `coeff:var^deg,...` syntax.
        monomials: Vec<String>,
    },
    /// The full analysis, narrated (the `explain` subcommand).
    Explain {
        /// The program text.
        program: String,
        /// The query definition's name.
        query: String,
    },
    /// Open a mutable decision session: the program's views and query
    /// become first-class server-side state addressable by the returned
    /// session id (echoed in the response envelope's payload).
    SessionOpen {
        /// The program text (views plus the query definition).
        program: String,
        /// The query definition's name.
        query: String,
    },
    /// Add one view to an open session.
    ViewAdd {
        /// The target session id.
        session: u64,
        /// One CQ definition (the same syntax as a `program` line).
        view: String,
    },
    /// Remove a view (by name) from an open session.
    ViewRemove {
        /// The target session id.
        session: u64,
        /// The name of the view definition to remove.
        view: String,
    },
    /// Decide determinacy for a session's current view set: a one-shot
    /// `decide` of that set through the engine's warm caches.
    Redecide {
        /// The target session id.
        session: u64,
        /// Build (and verify) a counterexample when not determined.
        witness: bool,
    },
    /// Close a session, releasing its server-side state.
    SessionClose {
        /// The target session id.
        session: u64,
    },
    /// Session statistics (cache counters, request count).
    Stats,
    /// Graceful shutdown: the server finishes in-flight requests, answers
    /// this one, and stops accepting.
    Shutdown,
}

impl RequestKind {
    /// The wire `"type"` string of this request kind.
    pub fn type_str(&self) -> &'static str {
        match self {
            RequestKind::Decide { .. } => "decide",
            RequestKind::Batch { .. } => "batch",
            RequestKind::Path { .. } => "path",
            RequestKind::Hilbert { .. } => "hilbert",
            RequestKind::Explain { .. } => "explain",
            RequestKind::SessionOpen { .. } => "session_open",
            RequestKind::ViewAdd { .. } => "view_add",
            RequestKind::ViewRemove { .. } => "view_remove",
            RequestKind::Redecide { .. } => "redecide",
            RequestKind::SessionClose { .. } => "session_close",
            RequestKind::Stats => "stats",
            RequestKind::Shutdown => "shutdown",
        }
    }
}

/// Accessor helpers over a request object that track which members were
/// consumed, so unknown members can be rejected explicitly.
struct Fields<'a> {
    members: &'a [(String, Json)],
    consumed: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    fn new(json: &'a Json) -> Result<Fields<'a>, CqdetError> {
        match json {
            Json::Obj(members) => Ok(Fields {
                members,
                consumed: Vec::new(),
            }),
            other => Err(CqdetError::schema(format!(
                "a request must be a JSON object, got {other:?}"
            ))),
        }
    }

    fn get(&mut self, key: &'static str) -> Option<&'a Json> {
        self.consumed.push(key);
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&mut self, key: &'static str) -> Result<String, CqdetError> {
        self.opt_str(key)?
            .ok_or_else(|| CqdetError::schema(format!("request member {key:?} is required")))
    }

    fn opt_str(&mut self, key: &'static str) -> Result<Option<String>, CqdetError> {
        match self.get(key) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(CqdetError::schema(format!(
                "request member {key:?} must be a string, got {other:?}"
            ))),
        }
    }

    fn opt_bool(&mut self, key: &'static str, default: bool) -> Result<bool, CqdetError> {
        match self.get(key) {
            None => Ok(default),
            Some(Json::Bool(b)) => Ok(*b),
            Some(other) => Err(CqdetError::schema(format!(
                "request member {key:?} must be a boolean, got {other:?}"
            ))),
        }
    }

    fn opt_u64(&mut self, key: &'static str) -> Result<Option<u64>, CqdetError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                CqdetError::schema(format!(
                    "request member {key:?} must be a non-negative integer"
                ))
            }),
        }
    }

    fn u64(&mut self, key: &'static str) -> Result<u64, CqdetError> {
        self.opt_u64(key)?
            .ok_or_else(|| CqdetError::schema(format!("request member {key:?} is required")))
    }

    /// The `budget` member: a bare number (steps) or an object with
    /// optional `steps`/`bytes` members.
    fn opt_budget(&mut self) -> Result<Option<BudgetSpec>, CqdetError> {
        let Some(value) = self.get("budget") else {
            return Ok(None);
        };
        if let Some(n) = value.as_u64() {
            return Ok(Some(BudgetSpec {
                steps: Some(n),
                bytes: None,
            }));
        }
        let Json::Obj(members) = value else {
            return Err(CqdetError::schema(format!(
                "request member \"budget\" must be a non-negative integer \
                 (steps) or an object with \"steps\"/\"bytes\" members, got {value:?}"
            )));
        };
        let mut spec = BudgetSpec {
            steps: None,
            bytes: None,
        };
        for (k, v) in members {
            let slot = match k.as_str() {
                "steps" => &mut spec.steps,
                "bytes" => &mut spec.bytes,
                other => {
                    return Err(CqdetError::schema(format!(
                        "unknown budget member {other:?} (expected \"steps\" or \"bytes\")"
                    )))
                }
            };
            *slot = Some(v.as_u64().ok_or_else(|| {
                CqdetError::schema(format!(
                    "budget member {k:?} must be a non-negative integer"
                ))
            })?);
        }
        Ok(Some(spec))
    }

    fn str_array(&mut self, key: &'static str) -> Result<Vec<String>, CqdetError> {
        let items = match self.get(key) {
            Some(Json::Arr(items)) => items,
            Some(other) => {
                return Err(CqdetError::schema(format!(
                    "request member {key:?} must be an array of strings, got {other:?}"
                )))
            }
            None => {
                return Err(CqdetError::schema(format!(
                    "request member {key:?} is required"
                )))
            }
        };
        items
            .iter()
            .map(|v| {
                v.as_str().map(str::to_string).ok_or_else(|| {
                    CqdetError::schema(format!("request member {key:?} must contain only strings"))
                })
            })
            .collect()
    }

    /// Reject members that no accessor asked about.
    fn reject_unknown(&self) -> Result<(), CqdetError> {
        for (k, _) in self.members {
            if !self.consumed.contains(&k.as_str()) {
                return Err(CqdetError::schema(format!("unknown request member {k:?}")));
            }
        }
        Ok(())
    }
}

impl Request {
    /// Decode one request from its parsed JSON object.
    pub fn from_json(json: &Json) -> Result<Request, CqdetError> {
        let mut fields = Fields::new(json)?;
        let id = fields.opt_str("id")?.unwrap_or_default();
        let deadline_ms = fields.opt_u64("deadline_ms")?;
        let budget = fields.opt_budget()?;
        let kind_str = fields.str("type")?;
        let kind = match kind_str.as_str() {
            "decide" => RequestKind::Decide {
                program: fields.str("program")?,
                query: fields.opt_str("query")?.unwrap_or_else(|| "q".to_string()),
                witness: fields.opt_bool("witness", false)?,
            },
            "batch" => RequestKind::Batch {
                tasks: fields.str("tasks")?,
                witnesses: fields.opt_bool("witnesses", true)?,
                verify: fields.opt_bool("verify", true)?,
            },
            "path" => RequestKind::Path {
                query: fields.str("query")?,
                views: fields.str_array("views")?,
            },
            "hilbert" => RequestKind::Hilbert {
                bound: fields.u64("bound")?,
                monomials: fields.str_array("monomials")?,
            },
            "explain" => RequestKind::Explain {
                program: fields.str("program")?,
                query: fields.opt_str("query")?.unwrap_or_else(|| "q".to_string()),
            },
            "session_open" => RequestKind::SessionOpen {
                program: fields.str("program")?,
                query: fields.opt_str("query")?.unwrap_or_else(|| "q".to_string()),
            },
            "view_add" => RequestKind::ViewAdd {
                session: fields.u64("session")?,
                view: fields.str("view")?,
            },
            "view_remove" => RequestKind::ViewRemove {
                session: fields.u64("session")?,
                view: fields.str("view")?,
            },
            "redecide" => RequestKind::Redecide {
                session: fields.u64("session")?,
                witness: fields.opt_bool("witness", false)?,
            },
            "session_close" => RequestKind::SessionClose {
                session: fields.u64("session")?,
            },
            "stats" => RequestKind::Stats,
            "shutdown" => RequestKind::Shutdown,
            other => {
                return Err(CqdetError::schema(format!(
                    "unknown request type {other:?} \
                     (expected decide|batch|path|hilbert|explain|session_open|\
                      view_add|view_remove|redecide|session_close|stats|shutdown)"
                )))
            }
        };
        fields.reject_unknown()?;
        Ok(Request {
            id,
            deadline_ms,
            budget,
            kind,
        })
    }

    /// Decode one JSON-lines request (parse, then [`Request::from_json`]).
    pub fn from_line(line: &str) -> Result<Request, CqdetError> {
        let json = Json::parse(line)?;
        Request::from_json(&json)
    }

    /// Encode the request back to its wire JSON (clients, tests, the bench
    /// harness).  `from_json(to_json(r)) == r` for every request.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![("id".into(), Json::str(&self.id))];
        if let Some(ms) = self.deadline_ms {
            members.push(("deadline_ms".into(), Json::num(ms as i64)));
        }
        if let Some(budget) = self.budget {
            // Canonical encoding: bare number when only steps are limited,
            // the explicit object otherwise.
            let value = match budget {
                BudgetSpec {
                    steps: Some(steps),
                    bytes: None,
                } => Json::num(steps as i64),
                BudgetSpec { steps, bytes } => {
                    let mut m = Vec::new();
                    if let Some(steps) = steps {
                        m.push(("steps".to_string(), Json::num(steps as i64)));
                    }
                    if let Some(bytes) = bytes {
                        m.push(("bytes".to_string(), Json::num(bytes as i64)));
                    }
                    Json::Obj(m)
                }
            };
            members.push(("budget".into(), value));
        }
        members.push(("type".into(), Json::str(self.kind.type_str())));
        match &self.kind {
            RequestKind::Decide {
                program,
                query,
                witness,
            } => {
                members.push(("program".into(), Json::str(program)));
                members.push(("query".into(), Json::str(query)));
                members.push(("witness".into(), Json::Bool(*witness)));
            }
            RequestKind::Batch {
                tasks,
                witnesses,
                verify,
            } => {
                members.push(("tasks".into(), Json::str(tasks)));
                members.push(("witnesses".into(), Json::Bool(*witnesses)));
                members.push(("verify".into(), Json::Bool(*verify)));
            }
            RequestKind::Path { query, views } => {
                members.push(("query".into(), Json::str(query)));
                members.push((
                    "views".into(),
                    Json::Arr(views.iter().map(Json::str).collect()),
                ));
            }
            RequestKind::Hilbert { bound, monomials } => {
                members.push(("bound".into(), Json::num(*bound as i64)));
                members.push((
                    "monomials".into(),
                    Json::Arr(monomials.iter().map(Json::str).collect()),
                ));
            }
            RequestKind::Explain { program, query } => {
                members.push(("program".into(), Json::str(program)));
                members.push(("query".into(), Json::str(query)));
            }
            RequestKind::SessionOpen { program, query } => {
                members.push(("program".into(), Json::str(program)));
                members.push(("query".into(), Json::str(query)));
            }
            RequestKind::ViewAdd { session, view } | RequestKind::ViewRemove { session, view } => {
                members.push(("session".into(), Json::num(*session as i64)));
                members.push(("view".into(), Json::str(view)));
            }
            RequestKind::Redecide { session, witness } => {
                members.push(("session".into(), Json::num(*session as i64)));
                members.push(("witness".into(), Json::Bool(*witness)));
            }
            RequestKind::SessionClose { session } => {
                members.push(("session".into(), Json::num(*session as i64)));
            }
            RequestKind::Stats | RequestKind::Shutdown => {}
        }
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_every_request_type() {
        let r = Request::from_line(
            r#"{"id":"a","type":"decide","program":"q() :- R(x,y)","witness":true}"#,
        )
        .unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.deadline_ms, None);
        assert!(
            matches!(r.kind, RequestKind::Decide { ref query, witness: true, .. } if query == "q")
        );

        let r = Request::from_line(r#"{"id":"b","type":"batch","tasks":"x","deadline_ms":250}"#)
            .unwrap();
        assert_eq!(r.deadline_ms, Some(250));
        assert!(matches!(
            r.kind,
            RequestKind::Batch {
                witnesses: true,
                verify: true,
                ..
            }
        ));

        let r = Request::from_line(r#"{"id":"c","type":"path","query":"AB","views":["A","B"]}"#)
            .unwrap();
        assert!(matches!(r.kind, RequestKind::Path { ref views, .. } if views.len() == 2));

        let r = Request::from_line(
            r#"{"id":"d","type":"hilbert","bound":6,"monomials":["+2:x","-12:"]}"#,
        )
        .unwrap();
        assert!(matches!(r.kind, RequestKind::Hilbert { bound: 6, .. }));

        for t in ["stats", "shutdown"] {
            let r = Request::from_line(&format!(r#"{{"id":"e","type":"{t}"}}"#)).unwrap();
            assert_eq!(r.kind.type_str(), t);
        }
    }

    #[test]
    fn decodes_the_session_request_family() {
        let r = Request::from_line(
            r#"{"id":"s1","type":"session_open","program":"v() :- R(x,y)","query":"q"}"#,
        )
        .unwrap();
        assert!(matches!(r.kind, RequestKind::SessionOpen { ref query, .. } if query == "q"));
        // `checkpoint_interval` is not a member: rejected like any unknown one.
        let err = Request::from_line(
            r#"{"id":"s1","type":"session_open","program":"v() :- R(x,y)","checkpoint_interval":4}"#,
        )
        .unwrap_err();
        assert_eq!(err.code(), "schema");
        assert!(err.to_string().contains("checkpoint_interval"), "{err}");

        let r = Request::from_line(
            r#"{"id":"s2","type":"view_add","session":7,"view":"v2() :- R(x,y), R(y,z)"}"#,
        )
        .unwrap();
        assert!(matches!(r.kind, RequestKind::ViewAdd { session: 7, .. }));

        let r = Request::from_line(r#"{"id":"s3","type":"view_remove","session":7,"view":"v2"}"#)
            .unwrap();
        assert!(matches!(
            r.kind,
            RequestKind::ViewRemove { session: 7, ref view } if view == "v2"
        ));

        let r = Request::from_line(r#"{"id":"s4","type":"redecide","session":7,"witness":true}"#)
            .unwrap();
        assert!(matches!(
            r.kind,
            RequestKind::Redecide {
                session: 7,
                witness: true
            }
        ));

        let r = Request::from_line(r#"{"id":"s5","type":"session_close","session":7}"#).unwrap();
        assert!(matches!(r.kind, RequestKind::SessionClose { session: 7 }));

        // The session id is mandatory on every mutation kind.
        for t in ["view_add", "view_remove", "redecide", "session_close"] {
            let err = Request::from_line(&format!(
                r#"{{"id":"x","type":"{t}","view":"v() :- R(x,y)"}}"#
            ))
            .unwrap_err();
            assert_eq!(err.code(), "schema", "{t} without a session id");
        }
    }

    #[test]
    fn rejects_malformed_requests_with_typed_errors() {
        // Not JSON at all → parse.
        assert_eq!(Request::from_line("{nope").unwrap_err().code(), "parse");
        // Not an object → schema.
        assert_eq!(Request::from_line("[1,2]").unwrap_err().code(), "schema");
        // Unknown type → schema.
        assert_eq!(
            Request::from_line(r#"{"id":"x","type":"frobnicate"}"#)
                .unwrap_err()
                .code(),
            "schema"
        );
        // Missing required member → schema.
        assert_eq!(
            Request::from_line(r#"{"id":"x","type":"decide"}"#)
                .unwrap_err()
                .code(),
            "schema"
        );
        // Wrong member type → schema.
        assert_eq!(
            Request::from_line(r#"{"id":"x","type":"decide","program":7}"#)
                .unwrap_err()
                .code(),
            "schema"
        );
        // Unknown member → schema (typos never silently change behaviour).
        let err = Request::from_line(r#"{"id":"x","type":"stats","bogus":1}"#).unwrap_err();
        assert_eq!(err.code(), "schema");
        assert!(err.to_string().contains("bogus"), "{err}");
        // Negative deadline → schema.
        assert_eq!(
            Request::from_line(r#"{"id":"x","type":"stats","deadline_ms":-5}"#)
                .unwrap_err()
                .code(),
            "schema"
        );
    }

    #[test]
    fn wire_round_trip_is_the_identity() {
        let requests = vec![
            Request {
                id: "r1".into(),
                deadline_ms: Some(1000),
                budget: Some(BudgetSpec {
                    steps: Some(4096),
                    bytes: None,
                }),
                kind: RequestKind::Decide {
                    program: "q() :- R(x,y)".into(),
                    query: "q".into(),
                    witness: true,
                },
            },
            Request {
                id: "r2".into(),
                deadline_ms: None,
                budget: Some(BudgetSpec {
                    steps: Some(1_000_000),
                    bytes: Some(1 << 20),
                }),
                kind: RequestKind::Path {
                    query: "ABCD".into(),
                    views: vec!["ABC".into(), "BC".into()],
                },
            },
            Request {
                id: "r3".into(),
                deadline_ms: None,
                budget: None,
                kind: RequestKind::Shutdown,
            },
            Request {
                id: "r4".into(),
                deadline_ms: Some(250),
                budget: None,
                kind: RequestKind::SessionOpen {
                    program: "v() :- R(x,y)\nq() :- R(x,y)".into(),
                    query: "q".into(),
                },
            },
            Request {
                id: "r5".into(),
                deadline_ms: None,
                budget: None,
                kind: RequestKind::ViewAdd {
                    session: 9,
                    view: "v2() :- R(x,y), R(y,z)".into(),
                },
            },
            Request {
                id: "r6".into(),
                deadline_ms: None,
                budget: None,
                kind: RequestKind::ViewRemove {
                    session: 9,
                    view: "v2".into(),
                },
            },
            Request {
                id: "r7".into(),
                deadline_ms: None,
                budget: Some(BudgetSpec {
                    steps: Some(1 << 20),
                    bytes: None,
                }),
                kind: RequestKind::Redecide {
                    session: 9,
                    witness: true,
                },
            },
            Request {
                id: "r8".into(),
                deadline_ms: None,
                budget: None,
                kind: RequestKind::SessionClose { session: 9 },
            },
        ];
        for r in requests {
            let line = r.to_json().render();
            assert_eq!(Request::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn budget_member_decodes_both_forms() {
        // Bare number: a steps-only limit.
        let r = Request::from_line(r#"{"id":"a","type":"stats","budget":500}"#).unwrap();
        assert_eq!(
            r.budget,
            Some(BudgetSpec {
                steps: Some(500),
                bytes: None
            })
        );
        // The steps-only spec re-encodes canonically as the bare number.
        assert!(r.to_json().render().contains(r#""budget":500"#));

        // Object form with either or both members.
        let r = Request::from_line(r#"{"id":"b","type":"stats","budget":{"bytes":1024}}"#).unwrap();
        assert_eq!(
            r.budget,
            Some(BudgetSpec {
                steps: None,
                bytes: Some(1024)
            })
        );
        let r = Request::from_line(r#"{"id":"c","type":"stats","budget":{"steps":9,"bytes":8}}"#)
            .unwrap();
        assert_eq!(
            r.budget,
            Some(BudgetSpec {
                steps: Some(9),
                bytes: Some(8)
            })
        );

        // The spec lowers into a live ledger with the same limits.
        let budget = r.budget.unwrap().to_budget();
        assert!(budget.charge(8, 0).is_ok());
        assert!(budget.charge(8, 0).is_err());
    }

    #[test]
    fn budget_member_rejects_bad_shapes() {
        for line in [
            r#"{"id":"x","type":"stats","budget":"fast"}"#,
            r#"{"id":"x","type":"stats","budget":-3}"#,
            r#"{"id":"x","type":"stats","budget":{"steps":"many"}}"#,
            r#"{"id":"x","type":"stats","budget":{"stepz":5}}"#,
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert_eq!(err.code(), "schema", "{line}: {err}");
        }
    }
}
