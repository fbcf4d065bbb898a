//! Per-client sessions over a shared [`Engine`].
//!
//! A [`Session`] is one client's connection: it holds an engine handle
//! (an `Arc` clone) and a private, deterministic RNG stream derived from
//! the engine seed and the session id. Sessions are `Send` — hand each
//! client thread its own — and because the stream depends only on the
//! session's own statement sequence, N sessions produce bit-identical
//! per-session results whether they run serially or interleaved on M
//! threads (`tests/engine_sessions.rs` pins exactly this).

use crate::ast::Statement;
use crate::ddl::{run_create_proxy, run_show_proxies};
use crate::engine::Engine;
use crate::parser::{parse_query, parse_statement};
use crate::plan::{explain_plan, plan_query, run_plan, Bindings};
use crate::prepared::Prepared;
use crate::result::{QueryError, QueryResult, QuerySnapshot, StatementOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One client's handle on a shared [`Engine`]: executes statements with a
/// deterministic per-session RNG stream and prepares statements for
/// re-execution. Open one with [`Engine::session`].
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    id: u64,
    rng: StdRng,
    /// Statements prepared so far; each gets its own derived RNG stream.
    statements: u64,
}

impl Session {
    pub(crate) fn new(engine: Engine, id: u64) -> Self {
        let rng = StdRng::seed_from_u64(engine.session_seed(id));
        Self { engine, id, rng, statements: 0 }
    }

    /// This session's id (unique per [`Engine::session`] call; fixed by
    /// the caller for [`Engine::session_with_id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine this session serves queries against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Parses, plans, and executes one `SELECT`, advancing the session's
    /// RNG stream. Statements with `?` placeholders cannot run here —
    /// [`Session::prepare`] them and bind the parameter instead
    /// ([`QueryError::UnboundParameter`] otherwise). For the
    /// proxy-management statements (`CREATE PROXY`, `SHOW PROXIES`),
    /// which produce no rows, use [`Session::run`].
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, QueryError> {
        let query = parse_query(sql)?;
        self.run_select(&query)
    }

    /// The one `SELECT` execution path behind both [`Session::execute`]
    /// and [`Session::run`]: plan against the engine's catalog, run with
    /// the session's stream.
    fn run_select(&mut self, query: &crate::ast::Query) -> Result<QueryResult, QueryError> {
        let plan = plan_query(self.engine.catalog(), query)?;
        run_plan(
            self.engine.catalog(),
            &plan,
            self.engine.options(),
            &Bindings::default(),
            &mut self.rng,
            &self.engine.ctx(self.id),
            None,
        )
    }

    /// Like [`Session::execute`], but surfaces progress: `on_snapshot`
    /// fires after every labeling chunk with a statistically valid
    /// intermediate answer ([`QuerySnapshot`]) for the same query.
    ///
    /// The session's RNG stream advances exactly as [`Session::execute`]
    /// would, and when no `UNTIL CI WIDTH` target stops the run early the
    /// returned result is bit-identical to what `execute` returns — for
    /// any thread count or chunk size.
    pub fn execute_progressive(
        &mut self,
        sql: &str,
        mut on_snapshot: impl FnMut(&QuerySnapshot),
    ) -> Result<QueryResult, QueryError> {
        let query = parse_query(sql)?;
        let plan = plan_query(self.engine.catalog(), &query)?;
        run_plan(
            self.engine.catalog(),
            &plan,
            self.engine.options(),
            &Bindings::default(),
            &mut self.rng,
            &self.engine.ctx(self.id),
            Some(&mut on_snapshot),
        )
    }

    /// Parses and executes one statement of any kind — `SELECT`,
    /// `CREATE PROXY`, or `SHOW PROXIES` — advancing the session's RNG
    /// stream for the statements that sample (`SELECT` and the training
    /// draw of `CREATE PROXY`; `SHOW PROXIES` is a pure read).
    ///
    /// Determinism: the stream advances per sampling statement exactly as
    /// [`Session::execute`] would, so a train-then-query sequence replays
    /// bit-identically on a fresh session with the same id.
    pub fn run(&mut self, sql: &str) -> Result<StatementOutcome, QueryError> {
        match parse_statement(sql)? {
            Statement::Select(query) => {
                self.run_select(&query).map(StatementOutcome::Rows)
            }
            Statement::CreateProxy(stmt) => run_create_proxy(
                self.engine.catalog(),
                &stmt,
                self.engine.options(),
                &mut self.rng,
                &self.engine.ctx(self.id),
            )
            .map(StatementOutcome::ProxyCreated),
            Statement::ShowProxies(table) => {
                run_show_proxies(self.engine.catalog(), table.as_deref())
                    .map(StatementOutcome::Proxies)
            }
        }
    }

    /// `EXPLAIN`: renders the physical plan for `sql` without spending
    /// oracle calls or advancing the session's RNG stream. The rendering
    /// consumes the same plan [`Session::execute`] runs, so it cannot
    /// drift from execution.
    pub fn explain(&self, sql: &str) -> Result<String, QueryError> {
        let query = parse_query(sql)?;
        let plan = plan_query(self.engine.catalog(), &query)?;
        explain_plan(
            self.engine.catalog(),
            &plan,
            self.engine.options(),
            &Bindings::default(),
            &self.engine.ctx(self.id),
        )
    }

    /// Parses and plans `sql` **once**, returning a [`Prepared`] statement
    /// that re-executes without re-parsing or re-planning. Parameter
    /// placeholders (`ORACLE LIMIT ?`, `WITH PROBABILITY ?`,
    /// `UNTIL CI WIDTH < ?`) are bound through [`Prepared::with_budget`] /
    /// [`Prepared::with_probability`] / [`Prepared::with_ci_width`].
    ///
    /// Each prepared statement owns an RNG stream derived from (engine
    /// seed, session id, preparation order), independent of the session's
    /// own execute stream.
    pub fn prepare(&mut self, sql: &str) -> Result<Prepared, QueryError> {
        let query = parse_query(sql)?;
        let plan = plan_query(self.engine.catalog(), &query)?;
        let statement = self.statements;
        self.statements += 1;
        let base_seed = self.engine.prepared_seed(self.id, statement);
        Ok(Prepared::new(self.engine.clone(), plan, base_seed, self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abae_data::Table;

    fn engine(seed: u64) -> Engine {
        let n = 4000;
        let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
        let t = Table::builder("emails", values)
            .predicate("is_spam", labels, proxy)
            .build()
            .unwrap();
        Engine::builder().table(t).bootstrap_trials(50).seed(seed).build()
    }

    const SQL: &str = "SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 400";

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }

    #[test]
    fn same_session_id_replays_the_same_stream() {
        let e = engine(9);
        let a = e.session_with_id(3).execute(SQL).unwrap();
        let b = e.session_with_id(3).execute(SQL).unwrap();
        assert_eq!(a, b, "identical (seed, id, statement sequence) must reproduce exactly");
        let c = e.session_with_id(4).execute(SQL).unwrap();
        assert_ne!(a.estimate(), c.estimate(), "different session ids should differ");
    }

    #[test]
    fn execute_advances_the_stream_within_a_session() {
        let e = engine(11);
        let mut s = e.session();
        let first = s.execute(SQL).unwrap();
        let second = s.execute(SQL).unwrap();
        // Different draws (stream semantics), both valid answers.
        assert_ne!(first.estimate(), second.estimate());
        // And the whole sequence replays on a fresh session with the id.
        let mut replay = e.session_with_id(s.id());
        assert_eq!(replay.execute(SQL).unwrap(), first);
        assert_eq!(replay.execute(SQL).unwrap(), second);
    }

    #[test]
    fn execute_progressive_matches_execute_and_streams_snapshots() {
        let e = engine(21);
        let blocking = e.session_with_id(1).execute(SQL).unwrap();
        let mut snaps = Vec::new();
        let progressive = e
            .session_with_id(1)
            .execute_progressive(SQL, |s| snaps.push(s.clone()))
            .unwrap();
        assert_eq!(progressive, blocking, "same session stream, same answer");
        let last = snaps.last().expect("at least one snapshot");
        assert!(last.done);
        assert_eq!(last.rows, blocking.rows);
        assert_eq!(last.budget_spent, blocking.oracle_calls);
    }

    #[test]
    fn until_ci_width_stops_early_through_execute() {
        let e = engine(23);
        let r = e
            .session()
            .execute(
                "SELECT AVG(links) FROM emails WHERE is_spam \
                 UNTIL CI WIDTH < 5 MAX ORACLE LIMIT 3000",
            )
            .unwrap();
        assert!(r.oracle_calls < 3000, "spent {} of 3000", r.oracle_calls);
        let ci = r.ci().expect("scalar CI");
        assert!(ci.width() < 5.0, "width {}", ci.width());
    }

    #[test]
    fn placeholders_must_be_prepared() {
        let e = engine(13);
        let mut s = e.session();
        let err = s
            .execute("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT ?")
            .unwrap_err();
        assert!(matches!(err, QueryError::UnboundParameter("ORACLE LIMIT ?")), "{err}");
    }

    #[test]
    fn explain_does_not_advance_the_stream() {
        let e = engine(17);
        let mut s = e.session();
        let _ = s.explain(SQL).unwrap();
        let with_explain = s.execute(SQL).unwrap();
        let without = e.session_with_id(s.id()).execute(SQL).unwrap();
        assert_eq!(with_explain, without, "explain must be side-effect-free");
    }
}
