//! Seeded workload generators: the request lines each connection sends and
//! what the answer oracle expects of each reply.
//!
//! Every input is a pure function of `(workload, seed, connection)`, built
//! from this module's own generator, so the inputs do not change when the
//! program's own generators do.

use crate::json::escape;
use std::fmt::Write as _;

/// The four request mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DecideCold,
    DecideWarm,
    SessionChurn,
    Witness,
}

/// Closed-loop client connections per workload.
pub const CONNECTIONS: usize = 2;

/// Server cache budget of `decide-cold` (`--cache-bytes`): far below the
/// stream's working set, so the governed caches evict throughout the run.
pub const COLD_CACHE_BYTES: u64 = 4 << 20;

/// `decide-cold` shape: views per instance, atoms per view, and the size of
/// the query-only component of an undetermined instance.
const COLD_VIEWS: usize = 12;
const COLD_ATOMS: usize = 4;
const COLD_EXTRA_ATOMS: usize = 6;

/// `decide-warm` shape: the replayed pool, and its batch requests.
const WARM_POOL: usize = 16;
const WARM_VIEWS: usize = 32;
const WARM_ATOMS: usize = 3;
const WARM_BATCH_EVERY: u64 = 8;
const WARM_BATCH_VARIANTS: usize = 2;
const WARM_BATCH_TASKS: usize = 16;
const WARM_BATCH_VIEWS: usize = 8;
const WARM_POOL_SEED: u64 = 0x5EED_F00D;

/// `session-churn` shape: path views of lengths `1..=CHURN_VIEWS`, and the
/// fresh views cycled through add/remove.
pub const CHURN_VIEWS: usize = 64;
pub const CHURN_EXTRAS: usize = 8;

/// `witness` shape: small instances, so the witness tail stays bounded.
const WITNESS_VIEWS: usize = 6;
const WITNESS_ATOMS: usize = 3;
const WITNESS_EXTRA_ATOMS: usize = 4;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DecideCold,
        Workload::DecideWarm,
        Workload::SessionChurn,
        Workload::Witness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecideCold => "decide-cold",
            Workload::DecideWarm => "decide-warm",
            Workload::SessionChurn => "session-churn",
            Workload::Witness => "witness",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The server's cache budget for this workload (`None`: its defaults).
    pub fn cache_bytes(self) -> Option<u64> {
        (self == Workload::DecideCold).then_some(COLD_CACHE_BYTES)
    }
}

/// What the answer oracle expects of one reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A `decide` record with this verdict; `witness` asks for a checked
    /// counterexample.
    Decide { determined: bool, witness: bool },
    /// A `batch` of this many determined records.
    Batch { tasks: usize },
    /// A `session_open` answered with this session id.
    SessionOpen { session: u64 },
    /// A `view_add` / `view_remove` leaving this many views.
    ViewDelta { action: &'static str, views: usize },
    /// A `redecide` of a session holding the base views plus, when
    /// `Some(k)`, churn view `w{k}`.  Checked again after the run against
    /// an in-process one-shot decide of the same view set.
    Redecide { extra: Option<usize> },
}

/// One request line and its expectation.
#[derive(Clone, Debug)]
pub struct Req {
    pub line: String,
    pub expect: Expect,
}

/// splitmix64: small, fast and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and `tag`.
    pub fn fork(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n`, in drawing order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(k);
        while out.len() < k {
            let i = self.below(n);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }
}

/// One atom `rel(a, b)` over numbered variables.
type Atom = (u8, u32, u32);

const RELATIONS: [&str; 2] = ["R", "S"];

/// A random connected body of `atoms` distinct binary atoms over two
/// relations.  Distinct atoms freeze to distinct facts, so a body of more
/// atoms than any view can never be isomorphic to a view component.
fn connected_body(rng: &mut Rng, atoms: usize) -> Vec<Atom> {
    let mut out: Vec<Atom> = vec![(rng.below(2) as u8, 0, 1)];
    let mut vars = 2u32;
    while out.len() < atoms {
        let a = rng.below(vars as usize) as u32;
        // Mostly grow the body; sometimes close a cycle or a loop.
        let b = if rng.below(3) == 0 {
            rng.below(vars as usize) as u32
        } else {
            vars
        };
        let atom = if rng.below(2) == 0 {
            (rng.below(2) as u8, a, b)
        } else {
            (rng.below(2) as u8, b, a)
        };
        if !out.contains(&atom) {
            out.push(atom);
            if b == vars {
                vars += 1;
            }
        }
    }
    out
}

/// Render `name() :- ...` with variables `{prefix}{n}`, shifted by `offset`.
fn push_atoms(out: &mut String, atoms: &[Atom], prefix: &str, offset: u32) {
    for (rel, a, b) in atoms {
        if !out.ends_with("- ") {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}({prefix}{}, {prefix}{})",
            RELATIONS[*rel as usize],
            a + offset,
            b + offset
        );
    }
}

fn definition(name: &str, atoms: &[Atom]) -> String {
    let mut out = format!("{name}() :- ");
    push_atoms(&mut out, atoms, "x", 0);
    out
}

fn var_count(atoms: &[Atom]) -> u32 {
    atoms
        .iter()
        .map(|&(_, a, b)| a.max(b) + 1)
        .max()
        .unwrap_or(0)
}

/// `q() :- ` the disjoint sum of `parts`, variables renamed apart.
fn disjoint_sum(name: &str, parts: &[&[Atom]]) -> String {
    let mut out = format!("{name}() :- ");
    let mut offset = 0;
    for part in parts {
        push_atoms(&mut out, part, "y", offset);
        offset += var_count(part);
    }
    out
}

/// A one-shot instance: `views` random connected views and a query that is
/// either the disjoint sum of `summed` of them (determined: q⃗ is the sum of
/// their vectors) or that sum plus a connected component of `extra` atoms,
/// larger than any view (not determined: q⃗ has a query-only coordinate).
fn instance(
    rng: &mut Rng,
    views: usize,
    atoms: usize,
    summed: usize,
    extra: Option<usize>,
) -> String {
    let bodies: Vec<Vec<Atom>> = (0..views).map(|_| connected_body(rng, atoms)).collect();
    let mut parts: Vec<&[Atom]> = rng
        .distinct(summed, views)
        .into_iter()
        .map(|i| bodies[i].as_slice())
        .collect();
    let tail = extra.map(|n| connected_body(rng, n));
    if let Some(tail) = &tail {
        parts.push(tail);
    }
    let mut program = String::new();
    for (i, body) in bodies.iter().enumerate() {
        program.push_str(&definition(&format!("v{i}"), body));
        program.push('\n');
    }
    program.push_str(&disjoint_sum("q", &parts));
    program
}

fn decide_line(id: &str, program: &str, witness: bool) -> String {
    format!(
        "{{\"id\":{},\"type\":\"decide\",\"program\":{},\"query\":\"q\",\"witness\":{witness}}}",
        escape(id),
        escape(program)
    )
}

/// A directed `E`-path per entry of `lens`, variables renamed apart.
fn path_sum(name: &str, lens: &[usize]) -> String {
    let mut out = format!("{name}() :- ");
    for (p, &len) in lens.iter().enumerate() {
        for i in 0..len {
            if !out.ends_with("- ") {
                out.push_str(", ");
            }
            let _ = write!(out, "E(p{p}x{i}, p{p}x{})", i + 1);
        }
    }
    out
}

/// The `session-churn` program: views `v{i}` = the path of length `i`, and
/// the query = one path of each length (determined, with every view in the
/// span system).
pub fn churn_program() -> String {
    let mut program = String::new();
    for i in 1..=CHURN_VIEWS {
        program.push_str(&path_sum(&format!("v{i}"), &[i]));
        program.push('\n');
    }
    program.push_str(&path_sum("q", &(1..=CHURN_VIEWS).collect::<Vec<_>>()));
    program
}

/// Churn view `w{k}` = paths of lengths `k` and `k+1`: a fresh class whose
/// vector is dependent, so the instance stays determined.
pub fn churn_view(k: usize) -> String {
    path_sum(&format!("w{k}"), &[k, k + 1])
}

/// The `decide-warm` pool and batch requests, shared by both connections.
/// The pool is the same for every seed; the seed picks the replay order.
/// Run-to-run differences then come from the server and the machine, not
/// from a cheaper or dearer pool.
struct WarmPool {
    decides: Vec<String>,
    batches: Vec<String>,
}

impl WarmPool {
    fn new() -> WarmPool {
        let mut rng = Rng::fork(WARM_POOL_SEED, 0x57A2);
        let decides = (0..WARM_POOL)
            .map(|_| instance(&mut rng, WARM_VIEWS, WARM_ATOMS, 3, None))
            .collect();
        let batches = (0..WARM_BATCH_VARIANTS)
            .map(|_| batch_tasks(&mut rng))
            .collect();
        WarmPool { decides, batches }
    }
}

/// A task file of `WARM_BATCH_TASKS` planted tasks over one shared pool of
/// `WARM_BATCH_VIEWS` views: task `t` asks for the sum of views
/// `t, t+1, t+3 (mod pool)`.
fn batch_tasks(rng: &mut Rng) -> String {
    let bodies: Vec<Vec<Atom>> = (0..WARM_BATCH_VIEWS)
        .map(|_| connected_body(rng, WARM_ATOMS))
        .collect();
    let mut text = String::new();
    for (i, body) in bodies.iter().enumerate() {
        text.push_str(&definition(&format!("v{i}"), body));
        text.push('\n');
    }
    let names: Vec<String> = (0..WARM_BATCH_VIEWS).map(|i| format!("v{i}")).collect();
    for t in 0..WARM_BATCH_TASKS {
        let parts: Vec<&[Atom]> = [0, 1, 3]
            .iter()
            .map(|o| bodies[(t + o) % WARM_BATCH_VIEWS].as_slice())
            .collect();
        text.push_str(&disjoint_sum(&format!("q{t}"), &parts));
        text.push('\n');
    }
    for t in 0..WARM_BATCH_TASKS {
        let _ = writeln!(text, "task t{t}: q{t} <- {}", names.join(" "));
    }
    text
}

fn batch_line(id: &str, tasks: &str) -> String {
    format!(
        "{{\"id\":{},\"type\":\"batch\",\"tasks\":{}}}",
        escape(id),
        escape(tasks)
    )
}

/// One connection's request stream.
pub struct Stream {
    workload: Workload,
    conn: usize,
    rng: Rng,
    sent: u64,
    warm: Option<WarmPool>,
    /// `session-churn`: this connection's session id and churn order.
    session: u64,
    churn_order: Vec<usize>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Stream {
        let mut rng = Rng::fork(seed, 1 + conn as u64);
        let mut churn_order: Vec<usize> = (1..=CHURN_EXTRAS).collect();
        for i in (1..churn_order.len()).rev() {
            churn_order.swap(i, rng.below(i + 1));
        }
        Stream {
            workload,
            conn,
            rng,
            sent: 0,
            warm: (workload == Workload::DecideWarm).then(WarmPool::new),
            // Sessions are opened one connection after the other on a fresh
            // server, which numbers them from 1.
            session: conn as u64 + 1,
            churn_order,
        }
    }

    /// The requests this connection sends before the timed phase: the
    /// workload's warm-up, part of `setup_s`.
    pub fn warmup(&self) -> Vec<Req> {
        let c = self.conn;
        match self.workload {
            Workload::DecideCold | Workload::Witness => Vec::new(),
            Workload::DecideWarm => {
                // One pass over the pool, split between the connections.
                let pool = self.warm.as_ref().expect("warm pool");
                let mut out = Vec::new();
                for (i, program) in pool.decides.iter().enumerate() {
                    if i % CONNECTIONS == c {
                        out.push(Req {
                            line: decide_line(&format!("w{c}-pool{i}"), program, false),
                            expect: Expect::Decide {
                                determined: true,
                                witness: false,
                            },
                        });
                    }
                }
                for (i, tasks) in pool.batches.iter().enumerate() {
                    if i % CONNECTIONS == c {
                        out.push(Req {
                            line: batch_line(&format!("w{c}-batch{i}"), tasks),
                            expect: Expect::Batch {
                                tasks: WARM_BATCH_TASKS,
                            },
                        });
                    }
                }
                out
            }
            Workload::SessionChurn => vec![Req {
                line: format!(
                    "{{\"id\":\"s{c}-open\",\"type\":\"session_open\",\"program\":{},\"query\":\"q\"}}",
                    escape(&churn_program())
                ),
                expect: Expect::SessionOpen {
                    session: self.session,
                },
            }],
        }
    }

    /// The next request of the timed phase.
    pub fn next_req(&mut self) -> Req {
        let n = self.sent;
        self.sent += 1;
        let c = self.conn;
        let id = format!("{}{c}-{n}", &self.workload.name()[..1]);
        match self.workload {
            Workload::DecideCold => {
                let determined = self.rng.below(2) == 0;
                let program = if determined {
                    instance(&mut self.rng, COLD_VIEWS, COLD_ATOMS, 3, None)
                } else {
                    instance(
                        &mut self.rng,
                        COLD_VIEWS,
                        COLD_ATOMS,
                        2,
                        Some(COLD_EXTRA_ATOMS),
                    )
                };
                Req {
                    line: decide_line(&id, &program, false),
                    expect: Expect::Decide {
                        determined,
                        witness: false,
                    },
                }
            }
            Workload::Witness => {
                let summed = 1 + self.rng.below(2);
                let program = instance(
                    &mut self.rng,
                    WITNESS_VIEWS,
                    WITNESS_ATOMS,
                    summed,
                    Some(WITNESS_EXTRA_ATOMS),
                );
                Req {
                    line: decide_line(&id, &program, true),
                    expect: Expect::Decide {
                        determined: false,
                        witness: true,
                    },
                }
            }
            Workload::DecideWarm => {
                let pool = self.warm.as_ref().expect("warm pool");
                if self.rng.next_u64().is_multiple_of(WARM_BATCH_EVERY) {
                    let i = self.rng.below(pool.batches.len());
                    Req {
                        line: batch_line(&id, &pool.batches[i]),
                        expect: Expect::Batch {
                            tasks: WARM_BATCH_TASKS,
                        },
                    }
                } else {
                    let i = self.rng.below(pool.decides.len());
                    Req {
                        line: decide_line(&id, &pool.decides[i], false),
                        expect: Expect::Decide {
                            determined: true,
                            witness: false,
                        },
                    }
                }
            }
            Workload::SessionChurn => {
                let step = n as usize % 4;
                let k = self.churn_order[(n as usize / 4) % CHURN_EXTRAS];
                let s = self.session;
                let (line, expect) = match step {
                    0 => (
                        format!(
                            "{{\"id\":\"{id}\",\"type\":\"view_add\",\"session\":{s},\"view\":{}}}",
                            escape(&churn_view(k))
                        ),
                        Expect::ViewDelta {
                            action: "view_add",
                            views: CHURN_VIEWS + 1,
                        },
                    ),
                    2 => (
                        format!(
                            "{{\"id\":\"{id}\",\"type\":\"view_remove\",\"session\":{s},\"view\":\"w{k}\"}}"
                        ),
                        Expect::ViewDelta {
                            action: "view_remove",
                            views: CHURN_VIEWS,
                        },
                    ),
                    _ => (
                        format!("{{\"id\":\"{id}\",\"type\":\"redecide\",\"session\":{s}}}"),
                        Expect::Redecide {
                            extra: (step == 1).then_some(k),
                        },
                    ),
                };
                Req { line, expect }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let lines = |seed| {
                let mut s = Stream::new(w, seed, 1);
                let mut out: Vec<String> = s.warmup().into_iter().map(|r| r.line).collect();
                out.extend((0..20).map(|_| s.next_req().line));
                out
            };
            assert_eq!(lines(7), lines(7), "{}", w.name());
            if w != Workload::SessionChurn || CHURN_EXTRAS > 1 {
                assert_ne!(lines(7), lines(8), "{}", w.name());
            }
        }
    }

    #[test]
    fn bodies_are_connected_and_distinct() {
        let mut rng = Rng::fork(3, 0);
        for _ in 0..200 {
            let body = connected_body(&mut rng, 6);
            let mut unique = body.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), 6);
            // Every atom after the first touches an earlier variable.
            let mut seen = vec![0u32, 1];
            for &(_, a, b) in &body[1..] {
                assert!(seen.contains(&a) || seen.contains(&b));
                seen.extend([a, b]);
            }
        }
    }
}
