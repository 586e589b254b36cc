//! The answer oracle: every reply is checked against what its request was
//! built to produce, and every failure is counted once.
//!
//! A failure is an error reply, a shed or timed-out request, a missing
//! reply, or a wrong answer.  Wrong answers are a verdict other than the
//! planted one, a record without `verified: true`, a determined record whose
//! own coefficients do not recombine its own vectors into q⃗ in exact
//! rational arithmetic, and a counterexample whose arithmetic is not
//! verified or whose two answer vectors agree.

use crate::gen::{churn_program, churn_view, Expect};
use crate::json::Json;
use cqdet_bigint::Int;
use cqdet_core::{decide_bag_determinacy, BagDeterminacy};
use cqdet_linalg::{QVec, Rat};
use cqdet_query::parse_queries;
use std::collections::HashMap;

/// Why one request failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Failure {
    /// An `error` reply other than a shed or a fuel exhaustion.
    Error,
    /// A `resource_exhausted` reply without a fuel ledger: admission
    /// control refused the request.
    Shed,
    /// A `resource_exhausted` reply with a fuel ledger, or a batch whose
    /// tasks ran out of fuel.
    Fuel,
    /// A `timeout` reply, or a batch whose tasks passed their deadline.
    Timeout,
    /// No reply, a closed connection, or a reply to another request.
    Missing,
    /// A reply that answers wrongly.
    Wrong,
}

/// Outcome counts of one phase, plus what the oracle learnt from records.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failures: HashMap<Failure, u64>,
    /// Refusals the server counts in `shed_requests`, `timeouts` and
    /// `fuel_exhausted` that replies already showed: a shed, timeout or
    /// fuel reply, and each out-of-fuel task of a batch.
    pub refusals: u64,
    /// Retained views and views over every checked record.
    pub retained: u64,
    pub views: u64,
    /// `redecide` records by session state (`None`: base views only) and
    /// digest, with how many replies carried each; compared after the run
    /// against a one-shot decide.
    pub redecides: HashMap<(Option<usize>, String), u64>,
    /// First messages of failures, for the report.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Count one attempted request and its outcome.
    pub fn record(&mut self, outcome: Result<(), (Failure, String)>) {
        self.attempted += 1;
        if let Err((failure, note)) = outcome {
            self.fail(failure, note);
        }
    }

    /// Count one failure of an already attempted request.
    pub fn fail(&mut self, failure: Failure, note: String) {
        self.fail_n(1, failure, note);
    }

    /// Count `n` failures of already attempted requests.
    pub fn fail_n(&mut self, n: u64, failure: Failure, note: String) {
        if n == 0 {
            return;
        }
        *self.failures.entry(failure).or_default() += n;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed().min(self.attempted)
    }

    /// Count the server's refusals during a phase (the `stats` delta of
    /// its refusal counters) that no reply of this phase accounted for, so
    /// that each refused request fails once.
    pub fn reconcile_refused(&mut self, refused: u64) {
        let unseen = refused.saturating_sub(self.refusals);
        self.fail_n(
            unseen,
            Failure::Error,
            format!("{unseen} requests shed, timed out or out of fuel without such a reply"),
        );
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.refusals += other.refusals;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_default() += v;
        }
        self.retained += other.retained;
        self.views += other.views;
        for (k, v) in other.redecides {
            *self.redecides.entry(k).or_default() += v;
        }
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

fn wrong(msg: impl Into<String>) -> (Failure, String) {
    (Failure::Wrong, msg.into())
}

/// Check one reply to the request `id` built with expectation `expect`.
pub fn check_reply(
    reply: &str,
    id: &str,
    expect: &Expect,
    ledger: &mut Ledger,
) -> Result<(), (Failure, String)> {
    let json = Json::parse(reply).map_err(|e| wrong(format!("{id}: unparsable reply: {e}")))?;
    if json.get("id").and_then(Json::as_str) != Some(id) {
        return Err((Failure::Missing, format!("{id}: reply carries another id")));
    }
    let kind = json.get("type").and_then(Json::as_str).unwrap_or("");
    match kind {
        "timeout" => {
            ledger.refusals += 1;
            return Err((Failure::Timeout, format!("{id}: timeout")));
        }
        "error" => {
            let error = json.get("error");
            let code = error.and_then(|e| e.get("code")).and_then(Json::as_str);
            let fuel = error.and_then(|e| e.get("spent")).is_some();
            let failure = match (code == Some("resource_exhausted"), fuel) {
                (true, false) => Failure::Shed,
                (true, true) => Failure::Fuel,
                _ => Failure::Error,
            };
            if failure != Failure::Error {
                ledger.refusals += 1;
            }
            return Err((failure, format!("{id}: error reply {reply:.200}")));
        }
        _ => {}
    }
    let expect_kind = match expect {
        Expect::Decide { .. } => "decide",
        Expect::Batch { .. } => "batch",
        Expect::SessionOpen { .. } => "session_open",
        Expect::ViewDelta { action, .. } => action,
        Expect::Redecide { .. } => "redecide",
    };
    if kind != expect_kind {
        return Err(wrong(format!("{id}: {kind} reply, expected {expect_kind}")));
    }
    let record = |json: &Json| {
        json.get("record")
            .cloned()
            .ok_or_else(|| wrong(format!("{id}: reply without record")))
    };
    match expect {
        Expect::Decide {
            determined,
            witness,
        } => check_record(&record(&json)?, *determined, *witness, ledger)
            .map_err(|m| wrong(format!("{id}: {m}"))),
        Expect::Batch { tasks } => {
            let records = json
                .get("records")
                .and_then(Json::as_arr)
                .ok_or_else(|| wrong(format!("{id}: batch without records")))?;
            if records.len() != *tasks {
                return Err(wrong(format!(
                    "{id}: {} records, expected {tasks}",
                    records.len()
                )));
            }
            // The server counts each out-of-fuel task as a refusal, but no
            // batch deadline.
            let out_of_fuel = records
                .iter()
                .filter(|r| r.get("fuel_exhausted").is_some())
                .count() as u64;
            ledger.refusals += out_of_fuel;
            if out_of_fuel > 0 {
                return Err((Failure::Fuel, format!("{id}: batch ran out of fuel")));
            }
            if json.get("deadline_exceeded").is_some() {
                return Err((Failure::Timeout, format!("{id}: batch passed its deadline")));
            }
            for r in records {
                check_record(r, true, false, ledger).map_err(|m| wrong(format!("{id}: {m}")))?;
            }
            Ok(())
        }
        Expect::SessionOpen { session } => match json.get("session").and_then(Json::as_u64) {
            Some(s) if s == *session => Ok(()),
            other => Err(wrong(format!(
                "{id}: session {other:?}, expected {session}"
            ))),
        },
        Expect::ViewDelta { views, .. } => {
            match json.get("views").and_then(Json::as_arr).map(<[Json]>::len) {
                Some(n) if n == *views => Ok(()),
                other => Err(wrong(format!("{id}: {other:?} views, expected {views}"))),
            }
        }
        Expect::Redecide { extra } => {
            let record = record(&json)?;
            check_record(&record, true, false, ledger).map_err(|m| wrong(format!("{id}: {m}")))?;
            let digest = digest(&record).map_err(|m| wrong(format!("{id}: {m}")))?;
            *ledger.redecides.entry((*extra, digest)).or_default() += 1;
            Ok(())
        }
    }
}

/// Check one certificate record.
fn check_record(
    record: &Json,
    determined: bool,
    witness: bool,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let status = record.get("status").and_then(Json::as_str).unwrap_or("");
    let expected = if determined {
        "determined"
    } else {
        "not_determined"
    };
    if status != expected {
        return Err(format!("status {status:?}, expected {expected:?}"));
    }
    // Every certificate a record carries must be verified.  An undetermined
    // record built without a witness carries none, so `verified` is null.
    let verified = record.get("verified").and_then(Json::as_bool);
    let certified = determined || witness;
    if verified != certified.then_some(true) {
        return Err(format!("record verified {verified:?}"));
    }
    let len = |key: &str| {
        record
            .get(key)
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len)
    };
    ledger.retained += len("retained") as u64;
    ledger.views += len("views") as u64;
    if determined {
        recombination_holds(record)?;
    }
    if witness {
        let ce = record
            .get("counterexample")
            .ok_or("undetermined record without counterexample")?;
        if ce.get("arithmetic_verified").and_then(Json::as_bool) != Some(true) {
            return Err("counterexample arithmetic not verified".into());
        }
        let d = ce.get("answers_d").ok_or("no answers_d")?;
        let d_prime = ce.get("answers_d_prime").ok_or("no answers_d_prime")?;
        if d == d_prime {
            return Err("answers_d equals answers_d_prime".into());
        }
    }
    Ok(())
}

fn rat_of(json: &Json, what: &str) -> Result<Rat, String> {
    let int = |s: Option<&str>| {
        s.and_then(|s| Int::from_decimal(s).ok())
            .ok_or_else(|| format!("bad rational in {what}"))
    };
    match json {
        Json::Str(s) => Ok(Rat::from_int(int(Some(s))?)),
        Json::Obj(_) => {
            let num = int(json.get("num").and_then(Json::as_str))?;
            let den = int(json.get("den").and_then(Json::as_str))?;
            if den.is_zero() {
                return Err(format!("zero denominator in {what}"));
            }
            Ok(Rat::new(num, den))
        }
        _ => Err(format!("bad rational in {what}")),
    }
}

fn rat_vec(json: Option<&Json>, what: &str) -> Result<Vec<Rat>, String> {
    json.and_then(Json::as_arr)
        .ok_or_else(|| format!("missing {what}"))?
        .iter()
        .map(|x| rat_of(x, what))
        .collect()
}

/// Recompute q⃗ = Σ cᵢ·v⃗ᵢ from the record's own vectors and coefficients.
pub fn recombination_holds(record: &Json) -> Result<(), String> {
    let q = rat_vec(record.get("query_vector"), "query_vector")?;
    let vectors = record
        .get("view_vectors")
        .and_then(Json::as_arr)
        .ok_or("missing view_vectors")?;
    let coefficients = rat_vec(record.get("coefficients"), "coefficients")?;
    if coefficients.len() != vectors.len() {
        return Err(format!(
            "{} coefficients for {} view vectors",
            coefficients.len(),
            vectors.len()
        ));
    }
    let mut sum = vec![Rat::zero(); q.len()];
    for (c, v) in coefficients.iter().zip(vectors) {
        let v = rat_vec(Some(v), "view_vectors")?;
        if v.len() != q.len() {
            return Err("view vector of the wrong dimension".into());
        }
        for (acc, x) in sum.iter_mut().zip(&v) {
            *acc = acc.add_ref(&c.mul_ref(x));
        }
    }
    if sum != q {
        return Err("coefficients do not recombine the view vectors into q".into());
    }
    Ok(())
}

/// The part of a determinacy record that a one-shot decide of the same
/// view set must reproduce exactly.
pub fn digest(record: &Json) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(record.get("status").and_then(Json::as_str).unwrap_or("?"));
    for key in ["retained", "query_vector", "view_vectors"] {
        out.push('|');
        out.push_str(&flat(record.get(key).ok_or(format!("missing {key}"))?));
    }
    out.push('|');
    for c in record
        .get("coefficients")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let part = |k| c.get(k).and_then(Json::as_str).unwrap_or("?");
        out.push_str(&format!("{}/{},", part("num"), part("den")));
    }
    Ok(out)
}

/// The [`digest`] of a record rendering `analysis`.
fn analysis_digest(a: &BagDeterminacy) -> Result<String, String> {
    use Json::{Arr, Num, Obj, Str};
    let ints = |v: &QVec| Arr(v.iter().map(|r| Str(r.numer().to_string())).collect());
    let status = if a.determined {
        "determined"
    } else {
        "not_determined"
    };
    let mut record = vec![
        ("status".to_string(), Str(status.into())),
        (
            "retained".to_string(),
            Arr(a
                .retained_views
                .iter()
                .map(|i| Num(i.to_string()))
                .collect()),
        ),
        ("query_vector".to_string(), ints(&a.query_vector)),
        (
            "view_vectors".to_string(),
            Arr(a.view_vectors.iter().map(ints).collect()),
        ),
    ];
    if let Some(c) = &a.coefficients {
        let rat = |r: &Rat| {
            Obj(vec![
                ("num".into(), Str(r.numer().to_string())),
                ("den".into(), Str(r.denom().to_string())),
            ])
        };
        record.push(("coefficients".to_string(), Arr(c.iter().map(rat).collect())));
    }
    digest(&Obj(record))
}

/// The session oracle: every `redecide` record, grouped by view set, must
/// equal an in-process one-shot decide of that view set.  A differing group
/// fails every reply in it.
pub fn session_oracle(ledger: &mut Ledger) {
    let parse = |text: &str| {
        parse_queries(text)
            .ok()
            .and_then(|u| u.first().map(|u| u.disjuncts()[0].clone()))
    };
    let Ok((base, query)) = cqdet_service::parse_program(&churn_program(), "q") else {
        return ledger.fail(Failure::Wrong, "churn program does not parse".into());
    };
    let groups: Vec<_> = ledger.redecides.drain().collect();
    for ((extra, got), count) in groups {
        let mut views = base.clone();
        if let Some(k) = extra {
            match parse(&churn_view(k)) {
                Some(view) => views.push(view),
                None => {
                    ledger.fail(Failure::Wrong, format!("churn view w{k} does not parse"));
                    continue;
                }
            }
        }
        let expected = decide_bag_determinacy(&views, &query)
            .map_err(|e| e.to_string())
            .and_then(|a| analysis_digest(&a));
        if expected.as_deref() != Ok(got.as_str()) {
            let note = format!("redecide with extra {extra:?} differs from a one-shot decide");
            ledger.fail_n(count, Failure::Wrong, note);
        }
    }
}

/// A compact rendering of numbers and nested arrays.
fn flat(json: &Json) -> String {
    match json {
        Json::Num(n) | Json::Str(n) => n.clone(),
        Json::Arr(items) => {
            let parts: Vec<String> = items.iter().map(flat).collect();
            format!("[{}]", parts.join(","))
        }
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DETERMINED: &str = r#"{"version":1,"id":"r1","type":"decide","record":{"status":"determined","views":["v1","v2"],"retained":[0,1],"query_vector":["2","1"],"view_vectors":[["1","0"],["0","2"]],"coefficients":[{"view":"v1","num":"2","den":"1"},{"view":"v2","num":"1","den":"2"}],"verified":true}}"#;

    fn decide(determined: bool) -> Expect {
        Expect::Decide {
            determined,
            witness: false,
        }
    }

    #[test]
    fn rational_recombination_is_checked_exactly() {
        let mut ledger = Ledger::default();
        assert_eq!(
            check_reply(DETERMINED, "r1", &decide(true), &mut ledger),
            Ok(())
        );
        assert_eq!((ledger.retained, ledger.views), (2, 2));
        // Coefficient 1/2 → 1/3 breaks q = 2·v1 + ½·v2.
        let broken = DETERMINED.replace(r#""den":"2""#, r#""den":"3""#);
        let json = Json::parse(&broken).unwrap();
        assert!(recombination_holds(json.get("record").unwrap()).is_err());
        let (failure, _) = check_reply(&broken, "r1", &decide(true), &mut ledger).unwrap_err();
        assert_eq!(failure, Failure::Wrong);
    }

    #[test]
    fn flipped_missing_and_shed_replies_each_count_once() {
        let mut ledger = Ledger::default();
        let mut answer = |reply: Option<&str>, expect: &Expect| {
            let outcome = match reply {
                Some(reply) => check_reply(reply, "r1", expect, &mut Ledger::default()),
                None => Err((Failure::Missing, "no reply".into())),
            };
            ledger.record(outcome);
        };
        answer(Some(DETERMINED), &decide(true));
        // The same record, but the request was planted undetermined.
        answer(Some(DETERMINED), &decide(false));
        answer(None, &decide(true));
        answer(
            Some(
                r#"{"version":1,"id":"r1","type":"error","error":{"code":"resource_exhausted","message":"shed"}}"#,
            ),
            &decide(true),
        );
        assert_eq!(ledger.attempted, 4);
        assert_eq!(ledger.failed(), 3);
        assert_eq!(ledger.ok(), 1);
        for f in [Failure::Wrong, Failure::Missing, Failure::Shed] {
            assert_eq!(ledger.failures.get(&f), Some(&1), "{f:?}");
        }
    }

    #[test]
    fn refusals_shown_by_replies_are_not_counted_again() {
        const SHED: &str =
            r#"{"id":"r1","type":"error","error":{"code":"resource_exhausted","message":"shed"}}"#;
        const FUEL_BATCH: &str = r#"{"id":"r1","type":"batch","fuel_exhausted":true,"records":[{"status":"error","fuel_exhausted":{"spent":9}},{"status":"error","fuel_exhausted":{"spent":9}}]}"#;
        let phase = |refused: u64| {
            let mut ledger = Ledger::default();
            let outcome = check_reply(SHED, "r1", &decide(true), &mut ledger);
            ledger.record(outcome);
            let batch = Expect::Batch { tasks: 2 };
            let outcome = check_reply(FUEL_BATCH, "r1", &batch, &mut ledger);
            ledger.record(outcome);
            let outcome = check_reply(DETERMINED, "r1", &decide(true), &mut ledger);
            ledger.record(outcome);
            ledger.reconcile_refused(refused);
            ledger
        };
        // The shed reply and the batch's two out-of-fuel tasks are the
        // server's three refusals: two failed requests, nothing added.
        let ledger = phase(3);
        assert_eq!((ledger.attempted, ledger.failed()), (3, 2));
        assert_eq!(ledger.failures.get(&Failure::Shed), Some(&1));
        assert_eq!(ledger.failures.get(&Failure::Fuel), Some(&1));
        assert_eq!(ledger.failures.get(&Failure::Error), None);
        // Two refusals no reply showed each count once more.
        let ledger = phase(5);
        assert_eq!(ledger.failed(), 4);
        assert_eq!(ledger.failures.get(&Failure::Error), Some(&2));
        // Merged ledgers keep what their replies showed.
        let mut merged = Ledger::default();
        let mut run = Ledger::default();
        let outcome = check_reply(SHED, "r1", &decide(true), &mut run);
        run.record(outcome);
        merged.merge(run);
        merged.reconcile_refused(1);
        assert_eq!(merged.failed(), 1);
    }

    #[test]
    fn fuel_exhaustion_and_timeouts_are_not_sheds() {
        let fuel = r#"{"id":"r1","type":"error","error":{"code":"resource_exhausted","spent":9,"limit":5}}"#;
        let timeout = r#"{"id":"r1","type":"timeout","error":{"code":"deadline"}}"#;
        let mut ledger = Ledger::default();
        assert_eq!(
            check_reply(fuel, "r1", &decide(true), &mut ledger)
                .unwrap_err()
                .0,
            Failure::Fuel
        );
        assert_eq!(
            check_reply(timeout, "r1", &decide(true), &mut ledger)
                .unwrap_err()
                .0,
            Failure::Timeout
        );
        assert_eq!(
            check_reply(DETERMINED, "r2", &decide(true), &mut ledger)
                .unwrap_err()
                .0,
            Failure::Missing
        );
    }

    #[test]
    fn witness_records_need_distinct_verified_answers() {
        let reply = |same: bool, arith: bool| {
            format!(
                r#"{{"id":"r1","type":"decide","record":{{"status":"not_determined","verified":true,"counterexample":{{"answers_d":["1","2"],"answers_d_prime":["1","{}"],"arithmetic_verified":{arith}}}}}}}"#,
                if same { 2 } else { 3 }
            )
        };
        let expect = Expect::Decide {
            determined: false,
            witness: true,
        };
        let mut ledger = Ledger::default();
        assert_eq!(
            check_reply(&reply(false, true), "r1", &expect, &mut ledger),
            Ok(())
        );
        assert!(check_reply(&reply(true, true), "r1", &expect, &mut ledger).is_err());
        assert!(check_reply(&reply(false, false), "r1", &expect, &mut ledger).is_err());
    }
}
