//! What a statement answers: the result, snapshot and outcome types, and
//! the errors every execution surface ([`crate::Session`],
//! [`crate::Prepared`]) reports.

use crate::ast::AggFunc;
use crate::parser::ParseError;
use abae_core::config::ConfigError;
use abae_core::groupby::GroupByError;
use abae_data::TableError;
use abae_stats::bootstrap::ConfidenceInterval;

/// One answered aggregate of the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRow {
    /// Aggregate function.
    pub func: AggFunc,
    /// Aggregated expression as written in the query.
    pub expr: String,
    /// Point estimate (percent for `PERCENTAGE`).
    pub estimate: f64,
    /// CI at the query's probability, on the same scale as the estimate
    /// (scalar queries only): the percentile bootstrap for a blocking
    /// answer or an `UNTIL` run that spends its cap, the closed-form
    /// (delta-method) interval for an intermediate snapshot or an `UNTIL`
    /// run that stops early.
    pub ci: Option<ConfidenceInterval>,
}

/// Per-group result row.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Group name (from the table's group key).
    pub name: String,
    /// Estimated per-group aggregate.
    pub estimate: f64,
    /// Per-group CI, on the same scale as the estimate: the percentile
    /// bootstrap, widened to reach the estimate, for a blocking or capped
    /// answer, the closed-form blend of
    /// the group's stratifications for an intermediate snapshot or an
    /// early stop (`None` when no stratification can estimate the group's
    /// variance yet).
    pub ci: Option<ConfidenceInterval>,
}

/// Result of executing a query: one [`AggRow`] per `SELECT`-list
/// aggregate — all answered from a single labeling pass, so a
/// three-aggregate query spends exactly the oracle budget of a
/// one-aggregate query — plus cache accounting and, for `GROUP BY`
/// queries, the per-group rows.
///
/// Invariant: `rows` is **never empty** — the parser guarantees at least
/// one aggregate and the only constructor asserts it — so
/// [`QueryResult::estimate`] and [`QueryResult::ci`] are total. The struct
/// is `#[non_exhaustive]`: it can only be built by the query layer, which
/// is what makes the invariant enforceable.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct QueryResult {
    /// Answered aggregates, in `SELECT`-list order (never empty).
    pub rows: Vec<AggRow>,
    /// Oracle invocations actually spent (cache hits are free).
    pub oracle_calls: u64,
    /// Records answered from the catalog's label store without an oracle
    /// invocation (0 when the store is disabled).
    pub cache_hits: u64,
    /// Records that reached the real oracle (equals `oracle_calls` when
    /// the store is enabled; 0 only if every draw was cached).
    pub cache_misses: u64,
    /// Group rows for `GROUP BY` queries.
    pub groups: Option<Vec<GroupRow>>,
}

impl QueryResult {
    /// The one constructor: asserts the never-empty `rows` invariant the
    /// accessors rely on.
    pub(crate) fn new(
        rows: Vec<AggRow>,
        oracle_calls: u64,
        cache_hits: u64,
        cache_misses: u64,
        groups: Option<Vec<GroupRow>>,
    ) -> Self {
        assert!(!rows.is_empty(), "QueryResult invariant: rows is never empty");
        Self { rows, oracle_calls, cache_hits, cache_misses, groups }
    }

    /// The primary (first) aggregate's estimate. For group-by queries
    /// this is the mean of the group estimates; inspect
    /// [`QueryResult::groups`] for the rows.
    pub fn estimate(&self) -> f64 {
        self.rows.first().expect("QueryResult invariant: rows is never empty").estimate
    }

    /// The primary (first) aggregate's CI.
    pub fn ci(&self) -> Option<ConfidenceInterval> {
        self.rows.first().expect("QueryResult invariant: rows is never empty").ci
    }
}

/// One progressive snapshot of an executing query: a statistically valid
/// intermediate answer emitted after a labeling chunk. Rows mirror
/// [`QueryResult::rows`] (same `PERCENTAGE` scaling and confidence);
/// `budget_spent` counts oracle labels actually charged so far. An
/// intermediate snapshot's CIs are closed-form (delta-method), cheap
/// enough to compute at every chunk; the final snapshot of a run that
/// exhausts its budget (`done == true`) carries the same estimates and
/// bootstrap CIs as the blocking answer, and an early stop's is the
/// snapshot that met the target.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySnapshot {
    /// Intermediate per-aggregate answers, in `SELECT`-list order.
    pub rows: Vec<AggRow>,
    /// Intermediate group rows for `GROUP BY` queries.
    pub groups: Option<Vec<GroupRow>>,
    /// Oracle labels charged up to and including this snapshot's chunk.
    pub budget_spent: u64,
    /// `true` on the run's last snapshot — budget exhausted or the
    /// `UNTIL CI WIDTH` target reached.
    pub done: bool,
}

impl QuerySnapshot {
    /// The primary (first) aggregate's estimate as of this snapshot.
    pub fn estimate(&self) -> Option<f64> {
        self.rows.first().map(|r| r.estimate)
    }

    /// The primary (first) aggregate's CI as of this snapshot.
    pub fn ci(&self) -> Option<ConfidenceInterval> {
        self.rows.first().and_then(|r| r.ci)
    }
}

/// Result of executing one statement through [`crate::Session::run`]: the
/// rows of a `SELECT`, or the proxy-management statements' artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutcome {
    /// A `SELECT`'s answer.
    Rows(QueryResult),
    /// `CREATE PROXY` trained and registered this artifact.
    ProxyCreated(std::sync::Arc<abae_data::TrainedProxy>),
    /// `SHOW PROXIES` listing, in deterministic (table, registration)
    /// order.
    Proxies(Vec<std::sync::Arc<abae_data::TrainedProxy>>),
}

impl StatementOutcome {
    /// The query rows, if the statement was a `SELECT`.
    pub fn rows(&self) -> Option<&QueryResult> {
        match self {
            StatementOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// Errors from query execution.
#[derive(Debug)]
pub enum QueryError {
    /// Parsing failed.
    Parse(ParseError),
    /// The `FROM` table is not in the catalog.
    UnknownTable(String),
    /// A predicate atom could not be resolved to a column.
    UnresolvedPredicate {
        /// The atom's canonical key.
        atom: String,
        /// The table searched.
        table: String,
    },
    /// `USING <proxy>` named something that is neither a predicate column,
    /// a registered binding, nor a trained proxy of the table.
    UnknownProxy {
        /// The proxy name from the query.
        proxy: String,
        /// The table searched.
        table: String,
        /// Every proxy name the table *does* have (predicate columns first,
        /// then trained artifacts), so the error is self-correcting.
        available: Vec<String>,
    },
    /// The query has a `?` placeholder that was never bound (the payload
    /// names the clause). Bind it with `Prepared::with_budget` /
    /// `Prepared::with_probability` / `Prepared::with_ci_width`, or write a
    /// literal.
    UnboundParameter(&'static str),
    /// Proxy training failed (`CREATE PROXY`).
    Train(abae_ml::logistic::TrainError),
    /// Table-level failure.
    Table(TableError),
    /// Invalid ABae configuration derived from the query.
    Config(ConfigError),
    /// Group-by execution failure.
    GroupBy(GroupByError),
    /// The query shape is not supported.
    Unsupported(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            QueryError::UnresolvedPredicate { atom, table } => {
                write!(f, "predicate `{atom}` is not a column or binding of `{table}`")
            }
            QueryError::UnknownProxy { proxy, table, available } => {
                write!(
                    f,
                    "USING proxy `{proxy}` is not a column, binding, or trained proxy \
                     of `{table}`"
                )?;
                if available.is_empty() {
                    write!(f, " (the table has no proxies)")
                } else {
                    write!(f, " (available: {})", available.join(", "))
                }
            }
            QueryError::UnboundParameter(clause) => {
                write!(
                    f,
                    "unbound parameter `{clause}`: bind it through a prepared statement \
                     or write a literal value"
                )
            }
            QueryError::Train(e) => write!(f, "proxy training: {e}"),
            QueryError::Table(e) => write!(f, "table: {e}"),
            QueryError::Config(e) => write!(f, "config: {e}"),
            QueryError::GroupBy(e) => write!(f, "group-by: {e}"),
            QueryError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, EngineBuilder};
    use abae_data::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spam_table(n: usize) -> Table {
        let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
        Table::builder("emails", values)
            .predicate("is_spam", labels, proxy)
            .build()
            .unwrap()
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register_table(spam_table(20_000));
        cat
    }

    #[test]
    fn executes_single_predicate_avg() {
        let cat = catalog();
        let table = cat.table("emails").unwrap();
        let exact = table.exact_avg("is_spam").unwrap();
        let engine = EngineBuilder::from_catalog(cat).bootstrap_trials(200).build();
        let r = engine
            .session_with_id(1)
            .execute(
                "SELECT AVG(nb_links) FROM emails WHERE is_spam \
                 ORACLE LIMIT 3000 WITH PROBABILITY 0.95",
            )
            .unwrap();
        assert!((r.estimate() - exact).abs() < 0.3, "{} vs {exact}", r.estimate());
        let ci = r.ci().unwrap();
        assert!((ci.confidence - 0.95).abs() < 1e-9);
        assert!(ci.lo <= r.estimate() && r.estimate() <= ci.hi);
        assert!(r.oracle_calls <= 3000);
        // No label store: cache accounting is all zeros.
        assert_eq!((r.cache_hits, r.cache_misses), (0, 0));
    }

    #[test]
    fn executes_count_query() {
        let cat = catalog();
        let engine = EngineBuilder::from_catalog(cat).bootstrap_trials(100).build();
        let r = engine
            .session_with_id(2)
            .execute("SELECT COUNT(*) FROM emails WHERE is_spam ORACLE LIMIT 4000")
            .unwrap();
        assert!((r.estimate() - 5000.0).abs() < 400.0, "{}", r.estimate());
    }

    #[test]
    fn multi_aggregate_query_answers_all_for_one_budget() {
        let cat = catalog();
        let engine = EngineBuilder::from_catalog(cat).bootstrap_trials(100).build();
        let sql_multi = "SELECT COUNT(*), SUM(nb_links), AVG(nb_links) FROM emails \
                         WHERE is_spam ORACLE LIMIT 3000";
        let sql_single = "SELECT COUNT(*) FROM emails WHERE is_spam ORACLE LIMIT 3000";
        let multi = engine.session_with_id(7).execute(sql_multi).unwrap();
        let single = engine.session_with_id(7).execute(sql_single).unwrap();
        // Shared labeling pass: 3 aggregates cost exactly 1 budget.
        assert_eq!(multi.oracle_calls, single.oracle_calls);
        assert_eq!(multi.rows.len(), 3);
        assert_eq!(multi.rows[0].estimate, single.rows[0].estimate);
        assert_eq!(multi.rows[0].ci, single.rows[0].ci);
        assert_eq!(multi.rows[0].func, AggFunc::Count);
        assert_eq!(multi.rows[1].expr, "nb_links");
        for row in &multi.rows {
            let ci = row.ci.expect("scalar rows carry CIs");
            assert!(ci.lo <= row.estimate && row.estimate <= ci.hi, "{row:?}");
        }
        // COUNT ≈ 5000 positives, AVG within the statistic's range.
        assert!((multi.rows[0].estimate - 5000.0).abs() < 400.0);
        assert!(multi.rows[2].estimate > 0.0 && multi.rows[2].estimate < 9.0);
    }

    #[test]
    fn binds_atoms_through_the_catalog() {
        let mut cat = catalog();
        cat.bind_predicate("emails", "sentiment=spamish", "is_spam");
        let engine = EngineBuilder::from_catalog(cat).bootstrap_trials(50).build();
        let r = engine
            .session_with_id(3)
            .execute("SELECT AVG(x) FROM emails WHERE sentiment(text) = 'spamish' ORACLE LIMIT 1000")
            .unwrap();
        assert!(r.estimate() > 0.0);
    }

    #[test]
    fn error_paths_are_reported() {
        let cat = catalog();
        let mut session = EngineBuilder::from_catalog(cat).build().session_with_id(4);
        assert!(matches!(
            session.execute("SELECT AVG(x) FROM nowhere WHERE p ORACLE LIMIT 10"),
            Err(QueryError::UnknownTable(t)) if t == "nowhere"
        ));
        assert!(matches!(
            session.execute("SELECT AVG(x) FROM emails WHERE mystery ORACLE LIMIT 10"),
            Err(QueryError::UnresolvedPredicate { atom, .. }) if atom == "mystery"
        ));
        assert!(matches!(
            session.execute("SELECT oops"),
            Err(QueryError::Parse(_))
        ));
        // Group-by on a table without a group key.
        assert!(matches!(
            session.execute(
                "SELECT AVG(x) FROM emails WHERE is_spam GROUP BY kind ORACLE LIMIT 100"
            ),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn malformed_with_probability_is_a_parse_error() {
        let cat = catalog();
        let mut session = EngineBuilder::from_catalog(cat).build().session_with_id(40);
        // Non-numeric probability.
        assert!(matches!(
            session.execute(
                "SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 100 \
                 WITH PROBABILITY banana"
            ),
            Err(QueryError::Parse(_))
        ));
        // Clause cut off before the number.
        assert!(matches!(
            session.execute(
                "SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 100 WITH PROBABILITY"
            ),
            Err(QueryError::Parse(_))
        ));
        // `WITH` without `PROBABILITY`.
        assert!(matches!(
            session.execute("SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 100 WITH 0.95"),
            Err(QueryError::Parse(_))
        ));
    }

    #[test]
    fn out_of_range_probability_is_a_config_error() {
        // Parses fine, but 1 − p falls outside (0, 1) and config validation
        // reports it rather than panicking inside the bootstrap.
        let cat = catalog();
        let mut session = EngineBuilder::from_catalog(cat).build().session_with_id(41);
        for p in ["1.5", "0", "1"] {
            let sql = format!(
                "SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 100 WITH PROBABILITY {p}"
            );
            assert!(
                matches!(session.execute(&sql), Err(QueryError::Config(_))),
                "probability {p} should be rejected as a config error"
            );
        }
    }

    #[test]
    fn using_a_missing_proxy_column_errors_instead_of_falling_back() {
        let cat = catalog();
        let mut session =
            EngineBuilder::from_catalog(cat).bootstrap_trials(50).build().session_with_id(42);
        let err = session
            .execute("SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 500 USING mystery_scores")
            .unwrap_err();
        match err {
            QueryError::UnknownProxy { proxy, table, available } => {
                assert_eq!(proxy, "mystery_scores");
                assert_eq!(table, "emails");
                assert_eq!(available, vec!["is_spam".to_string()]);
                let msg = QueryError::UnknownProxy { proxy, table, available }.to_string();
                assert!(msg.contains("mystery_scores") && msg.contains("emails"), "{msg}");
                assert!(msg.contains("available: is_spam"), "{msg}");
            }
            other => panic!("expected UnknownProxy, got {other:?}"),
        }
        // Positive control: a resolvable proxy still executes.
        let r = session
            .execute("SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 500 USING is_spam")
            .unwrap();
        assert!(r.oracle_calls <= 500);
    }

    fn grouped_table(n: usize) -> Table {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(99);
        let mut key = Vec::with_capacity(n);
        let mut labels: Vec<Vec<bool>> = vec![Vec::new(); 2];
        let mut proxies: Vec<Vec<f64>> = vec![Vec::new(); 2];
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = rng.gen();
            let g = if u < 0.1 {
                Some(0u16)
            } else if u < 0.3 {
                Some(1)
            } else {
                None
            };
            key.push(g);
            for j in 0..2 {
                let member = g == Some(j as u16);
                labels[j].push(member);
                proxies[j].push(if member { 0.8 } else { 0.2 });
            }
            values.push(match g {
                Some(0) => 30.0,
                Some(1) => 60.0,
                _ => 0.0,
            });
        }
        Table::builder("images", values)
            .predicate("is_gray", std::mem::take(&mut labels[0]), std::mem::take(&mut proxies[0]))
            .predicate("is_blond", std::mem::take(&mut labels[1]), std::mem::take(&mut proxies[1]))
            .group_key(vec!["gray".into(), "blond".into()], key)
            .build()
            .unwrap()
    }

    #[test]
    fn executes_group_by_query() {
        let mut cat = Catalog::new();
        cat.register_table(grouped_table(20_000));
        cat.bind_predicate("images", "hair=gray", "is_gray");
        cat.bind_predicate("images", "hair=blond", "is_blond");
        let engine = EngineBuilder::from_catalog(cat).build();
        let r = engine
            .session_with_id(5)
            .execute(
                "SELECT AVG(smile), hair FROM images \
                 WHERE hair(img) = 'gray' OR hair(img) = 'blond' \
                 GROUP BY hair(img) ORACLE LIMIT 3000",
            )
            .unwrap();
        let rows = r.groups.unwrap();
        assert_eq!(rows.len(), 2);
        let gray = rows.iter().find(|g| g.name == "gray").unwrap();
        let blond = rows.iter().find(|g| g.name == "blond").unwrap();
        assert!((gray.estimate - 30.0).abs() < 3.0, "gray {}", gray.estimate);
        assert!((blond.estimate - 60.0).abs() < 3.0, "blond {}", blond.estimate);
        assert!(r.oracle_calls <= 3000);
        // Each group row carries a CI bracketing its estimate — grouped
        // queries keep the WITH PROBABILITY guarantee.
        for row in [gray, blond] {
            let ci = row.ci.expect("per-group bootstrap CI");
            assert!((ci.confidence - 0.95).abs() < 1e-9);
            assert!(
                ci.lo <= row.estimate && row.estimate <= ci.hi,
                "{}: [{}, {}] vs {}",
                row.name,
                ci.lo,
                ci.hi,
                row.estimate
            );
        }
    }

    #[test]
    fn group_by_rejects_multi_aggregate_select_lists() {
        let mut cat = Catalog::new();
        cat.register_table(grouped_table(1_000));
        cat.bind_predicate("images", "hair=gray", "is_gray");
        cat.bind_predicate("images", "hair=blond", "is_blond");
        let engine = EngineBuilder::from_catalog(cat).build();
        assert!(matches!(
            engine.session_with_id(50).execute(
                "SELECT AVG(smile), COUNT(*), hair FROM images \
                 WHERE hair(img) = 'gray' OR hair(img) = 'blond' \
                 GROUP BY hair(img) ORACLE LIMIT 500",
            ),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn percentage_scales_estimate_and_ci_together() {
        // Statistic in {0, 1}: PERCENTAGE reports percent, and the CI is
        // scaled identically so it still brackets the estimate.
        let n = 10_000;
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.9 } else { 0.1 }).collect();
        let values: Vec<f64> = (0..n).map(|i| f64::from(i % 3 == 0)).collect();
        let t = Table::builder("faces", values).predicate("p", labels, proxy).build().unwrap();
        let mut cat = Catalog::new();
        cat.register_table(t);
        let engine = EngineBuilder::from_catalog(cat).bootstrap_trials(50).build();
        let r = engine
            .session_with_id(6)
            .execute("SELECT PERCENTAGE(is_smiling(img)) FROM faces WHERE p ORACLE LIMIT 2000")
            .unwrap();
        assert!(r.estimate() > 20.0 && r.estimate() < 50.0, "{}", r.estimate());
        let ci = r.ci().expect("scalar query CI");
        assert!(
            ci.lo <= r.estimate() && r.estimate() <= ci.hi,
            "PERCENTAGE CI [{}, {}] must bracket {}",
            ci.lo,
            ci.hi,
            r.estimate()
        );
        // The CI is on the percent scale too, not the raw 0–1 scale.
        assert!(ci.hi > 1.0, "CI upper bound {} still on the unscaled scale", ci.hi);
    }
}

#[cfg(test)]
mod explain_tests {
    use crate::{Catalog, Engine, EngineBuilder};
    use abae_data::Table;

    #[test]
    fn explain_describes_plan_without_oracle_calls() {
        let labels = vec![true, false, true, false];
        let proxy = vec![0.9, 0.1, 0.8, 0.2];
        let t = Table::builder("emails", vec![1.0, 2.0, 3.0, 4.0])
            .predicate("is_spam", labels, proxy)
            .build()
            .unwrap();
        let mut cat = Catalog::new();
        cat.register_table(t);
        let engine = EngineBuilder::from_catalog(cat).build();
        let plan = engine
            .session()
            .explain("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 1000")
            .unwrap();
        assert!(plan.contains("two-stage"), "{plan}");
        assert!(plan.contains("is_spam"), "{plan}");
        assert!(plan.contains("1000"), "{plan}");
        assert!(plan.contains("stage 1"), "{plan}");
        assert!(plan.contains("label store disabled"), "{plan}");
    }

    #[test]
    fn explain_budget_split_comes_from_stage_split() {
        // The printed split must be stage_split's, for any knob setting —
        // not a re-derived formula that can drift from execution.
        let t = Table::builder("t", vec![1.0; 100])
            .predicate("p", vec![true; 100], vec![0.5; 100])
            .build()
            .unwrap();
        for (strata, frac, limit) in [(5, 0.5, 1000), (7, 0.3, 999), (3, 0.9, 10)] {
            let engine =
                Engine::builder().table(t.clone()).strata(strata).stage1_fraction(frac).build();
            let plan = engine
                .session()
                .explain(&format!("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT {limit}"))
                .unwrap();
            let split = abae_sampling::budget::stage_split(limit, frac, strata);
            let expected = format!(
                "budget : {limit} oracle calls = stage 1 ({strata} strata x {}) + stage 2 ({})",
                split.n1_per_stratum, split.n2_total
            );
            assert!(plan.contains(&expected), "{plan}\nexpected line: {expected}");
        }
    }

    #[test]
    fn explain_group_by_budget_split_is_the_shared_pilot() {
        // GROUP BY spends one uniform pilot of ⌊C·budget⌋ records, capped
        // at the table size and shared by every group's stratification,
        // then gives the rest to the minimax allocation — not K strata x
        // ⌊C·budget/K⌋.
        let grouped = |n: usize| {
            let key: Vec<Option<u16>> = (0..n).map(|i| Some((i % 2) as u16)).collect();
            let proxy: Vec<f64> = (0..n).map(|i| (i % 10) as f64 / 10.0).collect();
            Table::builder("images", (0..n).map(|i| (i % 5) as f64).collect::<Vec<_>>())
                .predicate("is_a", (0..n).map(|i| i % 2 == 0).collect(), proxy.clone())
                .predicate("is_b", (0..n).map(|i| i % 2 == 1).collect(), proxy)
                .group_key(vec!["a".into(), "b".into()], key)
                .build()
                .unwrap()
        };
        let sql = |limit: usize| {
            format!(
                "SELECT AVG(x), g FROM images WHERE g(img) = 'a' OR g(img) = 'b' \
                 GROUP BY g(img) ORACLE LIMIT {limit}"
            )
        };
        let catalog = |n: usize| {
            let mut cat = Catalog::new();
            cat.register_table(grouped(n));
            cat.bind_predicate("images", "g=a", "is_a");
            cat.bind_predicate("images", "g=b", "is_b");
            cat
        };
        let line = |pilot: usize, rest: usize, limit: usize| {
            format!(
                "budget : {limit} oracle calls = pilot ({pilot} uniform draws shared by 2 group \
                 stratifications) + stage 2 ({rest}, minimax across groups)"
            )
        };

        let engine = EngineBuilder::from_catalog(catalog(5_000)).build();
        let session = engine.session();
        for (limit, pilot, rest) in [(1000, 500, 500), (1003, 501, 502), (10, 5, 5)] {
            let plan = session.explain(&sql(limit)).unwrap();
            assert_eq!(
                pilot,
                abae_core::groupby::single_oracle_pilot(
                    limit,
                    engine.options().stage1_fraction,
                    5_000
                )
            );
            let expected = line(pilot, rest, limit);
            assert!(plan.contains(&expected), "{plan}\nexpected line: {expected}");
        }

        // A table smaller than the pilot caps it at the table size: the run
        // labels every record once and nothing more.
        let small = EngineBuilder::from_catalog(catalog(100)).bootstrap_trials(20).build();
        let mut session = small.session_with_id(4);
        let plan = session.explain(&sql(1000)).unwrap();
        assert!(plan.contains(&line(100, 900, 1000)), "{plan}");
        let r = session.execute(&sql(1000)).unwrap();
        assert_eq!(r.oracle_calls, 100, "the pilot labeled the whole table");
    }

    #[test]
    fn explain_reports_multi_aggregate_plans_and_cache_state() {
        let n = 100;
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.9 } else { 0.1 }).collect();
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Table::builder("emails", values)
            .predicate("is_spam", labels, proxy)
            .build()
            .unwrap();
        let mut cat = Catalog::new();
        cat.register_table(t);
        cat.enable_label_cache();
        let mut session =
            EngineBuilder::from_catalog(cat).bootstrap_trials(20).build().session_with_id(1);
        let sql = "SELECT COUNT(*), AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 50";
        let plan = session.explain(sql).unwrap();
        assert!(plan.contains("2 aggregates"), "{plan}");
        assert!(plan.contains("label store enabled — 0 verdicts"), "{plan}");
        // Execute once, then EXPLAIN reflects the warm cache.
        let r = session.execute(sql).unwrap();
        assert!(r.cache_misses > 0);
        let plan = session.explain(sql).unwrap();
        assert!(
            plan.contains(&format!("label store enabled — {} verdicts", r.cache_misses)),
            "{plan}"
        );
    }

    #[test]
    fn explain_does_not_promise_cache_reuse_for_group_by() {
        // GROUP BY execution never consults the cross-query store; the
        // plan must say so instead of printing entry occupancy.
        let n = 1000;
        let key: Vec<Option<u16>> = (0..n).map(|i| (i % 3 == 0).then_some(0)).collect();
        let labels: Vec<bool> = key.iter().map(Option::is_some).collect();
        let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
        let t = Table::builder("images", vec![1.0; n])
            .predicate("is_gray", labels, proxy)
            .group_key(vec!["gray".into()], key)
            .build()
            .unwrap();
        let mut cat = Catalog::new();
        cat.register_table(t);
        cat.bind_predicate("images", "hair=gray", "is_gray");
        cat.enable_label_cache();
        let plan = EngineBuilder::from_catalog(cat)
            .build()
            .session()
            .explain(
                "SELECT AVG(smile), hair FROM images WHERE hair(img) = 'gray' \
                 GROUP BY hair(img) ORACLE LIMIT 100",
            )
            .unwrap();
        assert!(plan.contains("not used by GROUP BY"), "{plan}");
        assert!(!plan.contains("verdicts cached"), "{plan}");
    }

    #[test]
    fn explain_says_which_interval_each_answer_gets() {
        let t = Table::builder("emails", vec![1.0, 2.0, 3.0, 4.0])
            .predicate("is_spam", vec![true, false, true, false], vec![0.9, 0.1, 0.8, 0.2])
            .build()
            .unwrap();
        let mut cat = Catalog::new();
        cat.register_table(t);
        let engine = EngineBuilder::from_catalog(cat).build();
        let session = engine.session();
        let ci_line = format!(
            "ci     : percentile bootstrap, {} resamples, confidence 0.9",
            engine.options().bootstrap_trials
        );
        let blocking = session
            .explain("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 100 WITH PROBABILITY 0.9")
            .unwrap();
        assert!(blocking.lines().any(|l| l == ci_line), "{blocking}");
        assert!(!blocking.contains("stop   :"), "{blocking}");
        let until = session
            .explain(
                "SELECT AVG(links) FROM emails WHERE is_spam \
                 UNTIL CI WIDTH < 0.5 MAX ORACLE LIMIT 100 WITH PROBABILITY 0.9",
            )
            .unwrap();
        let stop = until.lines().find(|l| l.starts_with("stop   :")).expect("a stop line");
        assert!(
            stop.ends_with(
                "the oracle limit is a cap, not a target; snapshots carry a closed-form \
                 (delta-method) CI at confidence 0.9, and a run that spends its cap ends \
                 with the percentile bootstrap"
            ),
            "{stop}"
        );
        assert!(until.lines().any(|l| l == ci_line), "{until}");
    }

    #[test]
    fn explain_reports_multipred_and_errors() {
        let t = Table::builder("t", vec![1.0])
            .predicate("a", vec![true], vec![0.5])
            .predicate("b", vec![false], vec![0.5])
            .build()
            .unwrap();
        let mut cat = Catalog::new();
        cat.register_table(t);
        let session = EngineBuilder::from_catalog(cat).build().session();
        let plan = session.explain("SELECT AVG(x) FROM t WHERE a AND b ORACLE LIMIT 10").unwrap();
        assert!(plan.contains("MultiPred"), "{plan}");
        assert!(session.explain("SELECT AVG(x) FROM nope WHERE a ORACLE LIMIT 10").is_err());
        assert!(session.explain("SELECT AVG(x) FROM t WHERE zzz ORACLE LIMIT 10").is_err());
    }
}
