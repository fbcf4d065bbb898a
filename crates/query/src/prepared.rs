//! Prepared statements: parse and plan once, re-execute many times.
//!
//! The warm-cache repeat-query path from the label store is the first-class
//! API here: a dashboard prepares its statement once
//! ([`crate::Session::prepare`]), then calls [`Prepared::run`] each refresh
//! — no re-parsing, no re-planning, and (with the engine's label cache
//! warm) zero oracle calls, because every `run` replays the same sampling
//! stream and the store already holds every verdict it draws.
//!
//! Parameters deferred with `?` in the SQL (`ORACLE LIMIT ?`,
//! `WITH PROBABILITY ?`, `UNTIL CI WIDTH < ?`) are bound with
//! [`Prepared::with_budget`] / [`Prepared::with_probability`] /
//! [`Prepared::with_ci_width`]; a bound value also overrides a literal, so
//! one prepared statement can sweep budgets.

use crate::ast::Query;
use crate::engine::Engine;
use crate::plan::{explain_plan, run_plan, Bindings, QueryPlan};
use crate::result::{QueryError, QueryResult, QuerySnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A parsed-and-planned statement bound to an [`Engine`], ready to run any
/// number of times. `Send + Sync` and `Clone`: clones share nothing
/// mutable, so a pool of worker threads can each run the same statement.
///
/// Determinism: every [`Prepared::run`] restarts the statement's RNG
/// stream (derived from engine seed, session id, and preparation order),
/// so an identical re-run redraws exactly the same records — with a warm
/// label cache that costs **zero** oracle calls — and a re-run under a new
/// budget spends the oracle only on records the cache has not seen.
#[derive(Debug, Clone)]
pub struct Prepared {
    engine: Engine,
    plan: QueryPlan,
    base_seed: u64,
    /// Owning session's id: labeling requests from every `run` are admitted
    /// through the engine's oracle batcher under this session, so shared
    /// batches attribute spend to the preparing client.
    session: u64,
    budget: Option<usize>,
    probability: Option<f64>,
    ci_width: Option<f64>,
}

impl Prepared {
    pub(crate) fn new(engine: Engine, plan: QueryPlan, base_seed: u64, session: u64) -> Self {
        Self {
            engine,
            plan,
            base_seed,
            session,
            budget: None,
            probability: None,
            ci_width: None,
        }
    }

    /// Binds the oracle budget (`ORACLE LIMIT ?`), or overrides a literal
    /// one.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Binds the success probability (`WITH PROBABILITY ?`), or overrides
    /// a literal one.
    pub fn with_probability(mut self, probability: f64) -> Self {
        self.probability = Some(probability);
        self
    }

    /// Binds the early-stop CI width target (`UNTIL CI WIDTH < ?`), or
    /// overrides a literal one — execution then stops at the first chunk
    /// boundary where the CI is narrower than `width`, spending at most
    /// the oracle limit.
    pub fn with_ci_width(mut self, width: f64) -> Self {
        self.ci_width = Some(width);
        self
    }

    /// Executes the planned statement with the current bindings. Fails
    /// with [`QueryError::UnboundParameter`] if a `?` placeholder was
    /// never bound.
    pub fn run(&self) -> Result<QueryResult, QueryError> {
        let mut rng = StdRng::seed_from_u64(self.base_seed);
        run_plan(
            self.engine.catalog(),
            &self.plan,
            self.engine.options(),
            &self.bindings(),
            &mut rng,
            &self.engine.ctx(self.session),
            None,
        )
    }

    /// Executes the planned statement progressively: labeling proceeds in
    /// chunks, and after every chunk a [`QuerySnapshot`] with a
    /// statistically valid intermediate answer is recorded. Returns the
    /// full snapshot sequence plus the final result.
    ///
    /// Determinism: the same RNG stream as [`Prepared::run`] — when no
    /// `UNTIL CI WIDTH` target stops the run early, the final result (and
    /// the last snapshot's rows) is bit-identical to what `run` returns,
    /// for any thread count or chunk size.
    pub fn run_progressive(&self) -> Result<ProgressiveRun, QueryError> {
        let mut rng = StdRng::seed_from_u64(self.base_seed);
        let mut snapshots = Vec::new();
        let result = run_plan(
            self.engine.catalog(),
            &self.plan,
            self.engine.options(),
            &self.bindings(),
            &mut rng,
            &self.engine.ctx(self.session),
            Some(&mut |snap| snapshots.push(snap.clone())),
        )?;
        Ok(ProgressiveRun { snapshots, result })
    }

    /// `EXPLAIN` for the prepared statement, reflecting the current
    /// bindings (an unbound placeholder budget renders as `?`). Same plan
    /// [`Prepared::run`] executes — no drift possible.
    pub fn explain(&self) -> Result<String, QueryError> {
        explain_plan(
            self.engine.catalog(),
            &self.plan,
            self.engine.options(),
            &self.bindings(),
            &self.engine.ctx(self.session),
        )
    }

    /// The parsed query this statement was planned from.
    pub fn query(&self) -> &Query {
        &self.plan.query
    }

    /// The statement rendered back to SQL (placeholders render as `?`).
    pub fn sql(&self) -> String {
        self.plan.query.to_string()
    }

    fn bindings(&self) -> Bindings {
        Bindings {
            oracle_limit: self.budget,
            probability: self.probability,
            until_width: self.ci_width,
        }
    }
}

/// The record of one [`Prepared::run_progressive`] execution: every
/// per-chunk [`QuerySnapshot`] in emission order, plus the final
/// [`QueryResult`]. Iterate it (`for snap in &run` / `for snap in run`)
/// to replay the snapshot stream.
#[derive(Debug, Clone)]
pub struct ProgressiveRun {
    snapshots: Vec<QuerySnapshot>,
    result: QueryResult,
}

impl ProgressiveRun {
    /// The emitted snapshots, in order. The last one has `done == true`
    /// and carries the same rows as [`ProgressiveRun::result`].
    pub fn snapshots(&self) -> &[QuerySnapshot] {
        &self.snapshots
    }

    /// The final answer — bit-identical to [`Prepared::run`] when no
    /// early stop triggered.
    pub fn result(&self) -> &QueryResult {
        &self.result
    }

    /// Consumes the run, returning the final answer.
    pub fn into_result(self) -> QueryResult {
        self.result
    }
}

impl IntoIterator for ProgressiveRun {
    type Item = QuerySnapshot;
    type IntoIter = std::vec::IntoIter<QuerySnapshot>;

    fn into_iter(self) -> Self::IntoIter {
        self.snapshots.into_iter()
    }
}

impl<'a> IntoIterator for &'a ProgressiveRun {
    type Item = &'a QuerySnapshot;
    type IntoIter = std::slice::Iter<'a, QuerySnapshot>;

    fn into_iter(self) -> Self::IntoIter {
        self.snapshots.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(cache: bool) -> Engine {
        let n = 4000;
        let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
        let t = abae_data::Table::builder("emails", values)
            .predicate("is_spam", labels, proxy)
            .build()
            .unwrap();
        Engine::builder().table(t).bootstrap_trials(50).label_cache(cache).seed(5).build()
    }

    #[test]
    fn prepared_is_send_sync_and_replays_exactly() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Prepared>();
        let e = engine(false);
        let p = e
            .session()
            .prepare("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 400")
            .unwrap();
        let a = p.run().unwrap();
        let b = p.run().unwrap();
        assert_eq!(a, b, "each run replays the same stream");
    }

    #[test]
    fn unbound_budget_is_an_error_until_bound() {
        let e = engine(false);
        let p = e
            .session()
            .prepare("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT ?")
            .unwrap();
        assert!(matches!(p.run(), Err(QueryError::UnboundParameter("ORACLE LIMIT ?"))));
        let r = p.with_budget(400).run().unwrap();
        assert!(r.oracle_calls > 0 && r.oracle_calls <= 400);
    }

    #[test]
    fn probability_binding_reaches_the_ci() {
        let e = engine(false);
        let p = e
            .session()
            .prepare(
                "SELECT AVG(links) FROM emails WHERE is_spam \
                 ORACLE LIMIT 400 WITH PROBABILITY ?",
            )
            .unwrap();
        let r = p.with_probability(0.9).run().unwrap();
        let ci = r.ci().expect("scalar CI");
        assert!((ci.confidence - 0.9).abs() < 1e-9);
    }

    #[test]
    fn run_progressive_final_snapshot_matches_run() {
        let e = engine(false);
        let p = e
            .session()
            .prepare("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 400")
            .unwrap();
        let blocking = p.run().unwrap();
        let progressive = p.run_progressive().unwrap();
        assert_eq!(progressive.result(), &blocking, "same stream, same answer");
        let last = progressive.snapshots().last().expect("at least one snapshot");
        assert!(last.done);
        assert_eq!(last.rows, blocking.rows);
        assert_eq!(last.budget_spent, blocking.oracle_calls);
        // Budgets are non-decreasing and only the last snapshot is done.
        let snaps = progressive.snapshots();
        for pair in snaps.windows(2) {
            assert!(pair[0].budget_spent <= pair[1].budget_spent);
        }
        assert!(snaps.iter().filter(|s| s.done).count() == 1);
        // The run iterates.
        assert_eq!((&progressive).into_iter().count(), snaps.len());
    }

    #[test]
    fn ci_width_binding_stops_early() {
        let e = engine(false);
        // Same session id + statement index → same prepared RNG stream for
        // the anytime and blocking statements, so they are comparable.
        let p = e
            .session_with_id(7)
            .prepare(
                "SELECT AVG(links) FROM emails WHERE is_spam \
                 UNTIL CI WIDTH < ? MAX ORACLE LIMIT 3000",
            )
            .unwrap();
        assert!(matches!(p.run(), Err(QueryError::UnboundParameter("UNTIL CI WIDTH < ?"))));
        // A generous target stops well short of the cap and meets the
        // target; accounting reflects only what was actually charged.
        let r = p.clone().with_ci_width(5.0).run().unwrap();
        assert!(r.oracle_calls < 3000, "spent {} of 3000", r.oracle_calls);
        let ci = r.ci().expect("scalar CI");
        assert!(ci.width() < 5.0, "width {}", ci.width());
        // An unreachable target spends the full budget and matches the
        // blocking run for the same statement.
        let full = p.with_ci_width(1e-12).run().unwrap();
        let blocking = e
            .session_with_id(7)
            .prepare("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 3000")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(full, blocking, "no early stop → bit-identical to blocking");
    }

    #[test]
    fn prepare_surfaces_planning_errors_before_any_run() {
        let e = engine(false);
        assert!(matches!(
            e.session().prepare("SELECT AVG(x) FROM nope WHERE p ORACLE LIMIT 10"),
            Err(QueryError::UnknownTable(t)) if t == "nope"
        ));
        assert!(matches!(
            e.session().prepare("SELECT AVG(x) FROM emails WHERE mystery ORACLE LIMIT 10"),
            Err(QueryError::UnresolvedPredicate { .. })
        ));
    }

    #[test]
    fn explain_reflects_bindings() {
        let e = engine(false);
        let p = e
            .session()
            .prepare("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT ?")
            .unwrap();
        let unbound = p.explain().unwrap();
        assert!(unbound.contains("budget : ?"), "{unbound}");
        let bound = p.with_budget(500).explain().unwrap();
        assert!(bound.contains("budget : 500 oracle calls"), "{bound}");
    }

    #[test]
    fn sql_renders_the_planned_statement() {
        let e = engine(false);
        let p = e
            .session()
            .prepare("select avg(links) from emails where is_spam oracle limit ?")
            .unwrap();
        assert_eq!(
            p.sql(),
            "SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT ? \
             WITH PROBABILITY 0.95"
        );
        assert_eq!(p.query().table, "emails");
    }
}
