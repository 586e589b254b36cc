//! Mutable decision sessions: a named view list over the warm one-shot
//! decide.
//!
//! Theorem 3's verdict is a pure function of the view set, and everything
//! the pipeline computes on the way is cached in the shared
//! [`DecisionContext`]: frozen bodies, canonical keys, gate verdicts and
//! class ids (Definitions 25, 27 and 29 are isomorphism-invariant), plus the
//! Lemma 31 echelon rows under the retained-class-id key.  So a
//! [`MutableSession`] keeps no decision state of its own:
//!
//! * `view_add` checks the new view against the preconditions a decide
//!   enforces (boolean, no nullary relation) and appends it;
//! * `view_remove` drops a view from the list;
//! * `redecide` *is* [`decide_bag_determinacy_budgeted`] over the current
//!   list, so its answer is byte-identical to a fresh one-shot decide by
//!   construction, and a view set the context has seen before is answered
//!   from the caches.
//!
//! A mutation that fails (a precondition, an injected fault) leaves the view
//! list unchanged; an interrupted `redecide` leaves it unchanged too, and
//! the work done so far stays in the context's caches, so a retry with a
//! larger budget resumes rather than restarts.

use crate::boolean::{
    check_instance, decide_bag_determinacy_budgeted, prepare, BagDeterminacy, DeterminacyError,
};
use crate::session::DecisionContext;
use cqdet_failpoint::fail_point;
use cqdet_parallel::{Budget, CancelToken};
use cqdet_query::cq::Atom;
use cqdet_query::ConjunctiveQuery;
use std::mem::size_of;

/// The `interval` argument of [`MutableSession::open`], which is ignored.
/// Kept only for the served benchmark's trace replay
/// (`wirebench/src/trace.rs`), which passes it; drop both together.
pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 8;

/// Per-session operation counters (reported on the wire `view_add` /
/// `view_remove` responses by the serving layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCounters {
    /// Completed `view_add` mutations.
    pub adds: u64,
    /// Completed `view_remove` mutations.
    pub removes: u64,
    /// Completed `redecide` calls.
    pub redecides: u64,
}

/// A first-class mutable decision session; see the [module docs](self).
pub struct MutableSession {
    views: Vec<ConjunctiveQuery>,
    query: ConjunctiveQuery,
    counters: DeltaCounters,
}

impl MutableSession {
    /// Open a session over an initial view set and a fixed query.  Runs the
    /// shared preparation once, which validates the same preconditions as a
    /// one-shot decide and warms every cache the first `redecide` touches.
    /// `interval` is ignored (see [`DEFAULT_CHECKPOINT_INTERVAL`]).
    pub fn open(
        cx: &DecisionContext,
        views: Vec<ConjunctiveQuery>,
        query: ConjunctiveQuery,
        _interval: usize,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<MutableSession, DeterminacyError> {
        fail_point!("session/open", |msg| Err(DeterminacyError::Internal(msg)));
        prepare(cx, &views, &query, ctl, budget)?;
        Ok(MutableSession {
            views,
            query,
            counters: DeltaCounters::default(),
        })
    }

    /// The current view set.
    pub fn views(&self) -> &[ConjunctiveQuery] {
        &self.views
    }

    /// The session's query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The session's operation counters.
    pub fn counters(&self) -> DeltaCounters {
        self.counters
    }

    /// Heap bytes held by the session's view list and query (for the
    /// serving registry's byte accounting); every decision cache is owned
    /// by the shared context and accounted there.
    pub fn heap_bytes(&self) -> usize {
        fn query_bytes(q: &ConjunctiveQuery) -> usize {
            let strings =
                |s: &[String]| -> usize { s.iter().map(|v| size_of::<String>() + v.len()).sum() };
            q.name().len()
                + strings(q.free_vars())
                + q.atoms()
                    .iter()
                    .map(|a| size_of::<Atom>() + a.relation.len() + strings(&a.vars))
                    .sum::<usize>()
        }
        self.views.capacity() * size_of::<ConjunctiveQuery>()
            + self
                .views
                .iter()
                .chain([&self.query])
                .map(query_bytes)
                .sum::<usize>()
    }

    /// Add a view.  Checks it against the preconditions a decide enforces,
    /// then appends it; on a typed error the view list is unchanged.  Does
    /// no decision work, so `cx`, `ctl` and `budget` go unused.
    pub fn view_add(
        &mut self,
        _cx: &DecisionContext,
        view: ConjunctiveQuery,
        _ctl: &CancelToken,
        _budget: &Budget,
    ) -> Result<(), DeterminacyError> {
        fail_point!("session/mutate", |msg| Err(DeterminacyError::Internal(msg)));
        let views: Vec<&ConjunctiveQuery> = self.views.iter().chain([&view]).collect();
        check_instance(&views, &self.query)?;
        self.views.push(view);
        self.counters.adds += 1;
        Ok(())
    }

    /// Remove the view at `index` (the caller resolves names to indices).
    /// A list edit: `cx`, `ctl` and `budget` go unused.
    pub fn view_remove(
        &mut self,
        _cx: &DecisionContext,
        index: usize,
        _ctl: &CancelToken,
        _budget: &Budget,
    ) -> Result<(), DeterminacyError> {
        assert!(index < self.views.len(), "view index out of range");
        fail_point!("session/mutate", |msg| Err(DeterminacyError::Internal(msg)));
        self.views.remove(index);
        self.counters.removes += 1;
        Ok(())
    }

    /// Decide determinacy for the current view set: the one-shot decide
    /// over the shared caches.
    pub fn redecide(
        &mut self,
        cx: &DecisionContext,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<BagDeterminacy, DeterminacyError> {
        let answer = decide_bag_determinacy_budgeted(cx, &self.views, &self.query, ctl, budget)?;
        self.counters.redecides += 1;
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::decide_bag_determinacy_in;

    /// A boolean query that is a disjoint sum of directed paths: one path of
    /// each length in `lens` (fresh variables per path).
    fn path_sum(name: &str, lens: &[usize]) -> ConjunctiveQuery {
        let mut atoms = Vec::new();
        for (p, &len) in lens.iter().enumerate() {
            for i in 0..len {
                atoms.push(Atom {
                    relation: "E".to_string(),
                    vars: vec![format!("p{p}x{i}"), format!("p{p}x{}", i + 1)],
                });
            }
        }
        ConjunctiveQuery::boolean(name, atoms)
    }

    fn assert_agrees(a: &BagDeterminacy, b: &BagDeterminacy) {
        assert_eq!(a.determined, b.determined);
        assert_eq!(a.retained_views, b.retained_views);
        assert_eq!(a.query_vector, b.query_vector);
        assert_eq!(a.view_vectors, b.view_vectors);
        assert_eq!(a.coefficients, b.coefficients);
        assert_eq!(a.basis_size(), b.basis_size());
    }

    #[test]
    fn session_redecide_matches_one_shot_through_churn() {
        let cx = DecisionContext::new();
        let ctl = CancelToken::none();
        let nb = Budget::none();
        // Prefix-sum views over path components: v_i = P_1 ⊕ … ⊕ P_i.
        let view = |i: usize| path_sum(&format!("v{i}"), &(1..=i).collect::<Vec<_>>());
        let query = path_sum("q", &(1..=4).collect::<Vec<_>>());
        let mut session = MutableSession::open(
            &cx,
            (1..=4).map(view).collect(),
            query.clone(),
            8,
            &ctl,
            &nb,
        )
        .unwrap();
        let oracle = |views: &[ConjunctiveQuery]| decide_bag_determinacy_in(&cx, views, &query);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert!(got.determined);
        assert_agrees(&got, &oracle(session.views()).unwrap());
        session.view_add(&cx, view(5), &ctl, &nb).unwrap();
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_agrees(&got, &oracle(session.views()).unwrap());
        session.view_remove(&cx, 1, &ctl, &nb).unwrap();
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_agrees(&got, &oracle(session.views()).unwrap());
        // Remove the view whose shape the query needs: undetermined now.
        session.view_remove(&cx, 2, &ctl, &nb).unwrap();
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert!(!got.determined);
        assert_agrees(&got, &oracle(session.views()).unwrap());
        let counters = session.counters();
        assert_eq!(
            (counters.adds, counters.removes, counters.redecides),
            (1, 2, 4)
        );
    }

    #[test]
    fn rejected_add_and_interrupted_redecide_leave_the_views_unchanged() {
        let cx = DecisionContext::new();
        let ctl = CancelToken::none();
        let nb = Budget::none();
        let view = |i: usize| path_sum(&format!("v{i}"), &(1..=i).collect::<Vec<_>>());
        let query = path_sum("q", &(1..=6).collect::<Vec<_>>());
        let mut session = MutableSession::open(
            &cx,
            (1..=6).map(view).collect(),
            query.clone(),
            8,
            &ctl,
            &nb,
        )
        .unwrap();
        let free = ConjunctiveQuery::new("f", &["x"], vec![Atom::new("E", &["x", "y"])]);
        assert!(matches!(
            session.view_add(&cx, free, &ctl, &nb),
            Err(DeterminacyError::ViewNotBoolean(_))
        ));
        let nullary = ConjunctiveQuery::boolean("n", vec![Atom::new("H", &[])]);
        assert!(matches!(
            session.view_add(&cx, nullary, &ctl, &nb),
            Err(DeterminacyError::NullaryRelation(_))
        ));
        assert_eq!(session.views().len(), 6);
        assert_eq!(session.counters().adds, 0);
        // A tiny step budget trips inside the gate searches of a cold
        // context; the retry completes and agrees with the one-shot decide.
        let cold = DecisionContext::new();
        let tiny = Budget::with_limits(Some(4), None);
        let err = session.redecide(&cold, &ctl, &tiny).unwrap_err();
        assert!(
            matches!(err, DeterminacyError::ResourceExhausted { .. }),
            "typed exhaustion, got {err:?}"
        );
        assert_eq!(session.counters().redecides, 0);
        let got = session.redecide(&cold, &ctl, &nb).unwrap();
        assert_agrees(
            &got,
            &decide_bag_determinacy_in(&cx, session.views(), &query).unwrap(),
        );
    }
}
