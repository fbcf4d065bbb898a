//! Stratification-cache acceptance tests — the catalog stratifies each
//! score source once per `K` and every statement over it shares the
//! result. A score source is a proxy column (named by `USING`, by a bare
//! atom, or as a `GROUP BY` group's predicate column), a trained model, or
//! a §3.3 combination of several atoms:
//!
//! * **bit-identity** — blocking multi-aggregate and `UNTIL` progressive
//!   statements, `USING` a column, `USING` a trained model, over a bare
//!   atom, over a composite predicate and `GROUP BY`, answer the same
//!   rows, CIs, oracle calls and snapshots on a cold engine (the
//!   statement sorts) and a warm one (it hits the cache);
//! * **sharing** — sixteen prepared statements over one score source,
//!   each run three times, sort the table once, with or without `USING`;
//!   an `anytime_until`-shaped stream sorts once per distinct key;
//! * **model replacement** — after `CREATE PROXY` replaces a name, new
//!   statements stratify on the new scores, a statement prepared before
//!   keeps its old answers, and repeated replacements do not grow the
//!   cache;
//! * **concurrency** — sessions first-touching one key at once, a column
//!   or a combination, answer exactly like a serial replay and leave one
//!   entry;
//! * **validation order** — an invalid statement, scalar or `GROUP BY`,
//!   fails with the same error as before the cache existed and sorts
//!   nothing;
//! * **`EXPLAIN`** — the plan says whether its strata are cached, per
//!   group for `GROUP BY`, and sorts nothing itself.
//!
//! Eviction of combination entries past their bound is tested in
//! `abae_query`'s `strata_cache` module, under a bound small enough to
//! reach; the engine's bound is a constant.
//!
//! The engines build with default [`ExecOptions`], so CI's
//! `ABAE_THREADS=1/8` matrix exercises every test at both thread counts.
//!
//! [`ExecOptions`]: abae::core::pipeline::ExecOptions

use abae::core::groupby::GroupByError;
use abae::core::{ConfigError, Stratification};
use abae::data::{Table, TrainedProxy};
use abae::query::{
    Engine, EngineStats, QueryError, QueryResult, QuerySnapshot, Session, StatementOutcome,
};
use std::sync::{Arc, Barrier};
use std::thread;

const N: usize = 12_000;

/// A noisy proxy column for `labels` whose scores are nearly all
/// distinct, so the sort order is set by the scores rather than by index
/// ties.
fn noisy_proxy(labels: &[bool], salt: usize) -> Vec<f64> {
    labels
        .iter()
        .enumerate()
        .map(|(i, &l)| if l { 0.5 } else { 0.1 } + ((i * 7919 + salt) % 1000) as f64 / 2500.0)
        .collect()
}

/// `emails`: ~25% spam with text payloads to train on, ~25% promotions,
/// and a `kind` group key whose groups are those two predicates.
fn table() -> Table {
    table_named("emails")
}

fn table_named(name: &str) -> Table {
    let labels: Vec<bool> = (0..N).map(|i| i % 4 == 0).collect();
    let promo: Vec<bool> = (0..N).map(|i| i % 4 == 2).collect();
    let kind: Vec<Option<u16>> = (0..N)
        .map(|i| match i % 4 {
            0 => Some(0),
            2 => Some(1),
            _ => None,
        })
        .collect();
    let proxy = noisy_proxy(&labels, 0);
    let promo_proxy = noisy_proxy(&promo, 457);
    let values: Vec<f64> = (0..N).map(|i| (i % 9) as f64).collect();
    let texts: Vec<String> = labels
        .iter()
        .enumerate()
        .map(|(i, &spam)| match (spam, i % 5) {
            (true, 0) => format!("meeting notes offer {i}"),
            (true, _) => format!("buy cheap pills now offer {i}"),
            (false, 0) => format!("cheap agenda thursday {i}"),
            (false, _) => format!("meeting agenda notes thursday {i}"),
        })
        .collect();
    Table::builder(name, values)
        .predicate("is_spam", labels, proxy)
        .predicate("is_promo", promo, promo_proxy)
        .group_key(vec!["spam".into(), "promo".into()], kind)
        .texts(texts)
        .build()
        .unwrap()
}

fn new_engine() -> Engine {
    Engine::builder()
        .table(table())
        .bind_predicate("emails", "kind=spam", "is_spam")
        .bind_predicate("emails", "kind=promo", "is_promo")
        .bootstrap_trials(60)
        .seed(0x57A7)
        .build()
}

/// The strata-cache counters `(builds, hits, cached records)`.
fn strata_counts(stats: &EngineStats) -> (u64, u64, u64) {
    (stats.strata_builds, stats.strata_hits, stats.strata_cached_records)
}

const CREATE: &str = "CREATE PROXY spamnet ON emails(is_spam) USING keyword TRAIN LIMIT 400";
const CREATE_OTHER: &str =
    "CREATE PROXY spamnet ON emails(is_spam) USING logistic TRAIN LIMIT 600";

/// Runs `sql` on `session`: through `execute_progressive`, collecting every
/// snapshot, when it has an `UNTIL` clause, else through `execute`.
fn answer(session: &mut Session, sql: &str) -> (QueryResult, Vec<QuerySnapshot>) {
    if sql.contains("UNTIL") {
        let mut snapshots = Vec::new();
        let result = session
            .execute_progressive(sql, |s| snapshots.push(s.clone()))
            .expect("progressive statement");
        (result, snapshots)
    } else {
        (session.execute(sql).expect("blocking statement"), Vec::new())
    }
}

#[test]
fn cold_and_warm_engines_answer_bit_for_bit() {
    let statements = [
        "SELECT AVG(nb_links), COUNT(*), SUM(nb_links) FROM emails WHERE is_spam \
         ORACLE LIMIT 900 USING is_spam",
        "SELECT AVG(nb_links), COUNT(*) FROM emails WHERE is_spam \
         UNTIL CI WIDTH < 0.9 MAX ORACLE LIMIT 1500 USING is_spam",
        "SELECT AVG(nb_links), COUNT(*), SUM(nb_links) FROM emails WHERE is_spam \
         ORACLE LIMIT 900 USING spamnet",
        "SELECT SUM(nb_links), AVG(nb_links) FROM emails WHERE is_spam \
         UNTIL CI WIDTH < 3000 MAX ORACLE LIMIT 1500 USING spamnet",
        "SELECT AVG(nb_links), COUNT(*) FROM emails WHERE is_spam ORACLE LIMIT 900",
        "SELECT AVG(nb_links), SUM(nb_links) FROM emails WHERE is_spam \
         UNTIL CI WIDTH < 0.9 MAX ORACLE LIMIT 1500",
        "SELECT AVG(nb_links), COUNT(*) FROM emails WHERE is_spam OR NOT is_promo \
         ORACLE LIMIT 900",
        "SELECT COUNT(*), AVG(nb_links) FROM emails WHERE is_spam OR NOT is_promo \
         UNTIL CI WIDTH < 900 MAX ORACLE LIMIT 1500",
        "SELECT AVG(nb_links), SUM(nb_links) FROM emails WHERE NOT is_spam AND is_promo \
         ORACLE LIMIT 900",
        "SELECT AVG(nb_links), kind FROM emails \
         WHERE kind(text) = 'spam' OR kind(text) = 'promo' GROUP BY kind(text) \
         ORACLE LIMIT 900",
        "SELECT AVG(nb_links), kind FROM emails \
         WHERE kind(text) = 'spam' OR kind(text) = 'promo' GROUP BY kind(text) \
         UNTIL CI WIDTH < 2.5 MAX ORACLE LIMIT 1500",
    ];
    // One warm engine runs every statement, so entries built for earlier
    // statements are in place when later ones look theirs up; a fresh
    // cold engine per statement sorts everything it needs. Both train the
    // model on session 0.
    let warm = new_engine();
    warm.session_with_id(0).run(CREATE).expect("training");
    for sql in statements {
        let cold = new_engine();
        cold.session_with_id(0).run(CREATE).expect("training");
        // The warm engine runs the statement on another session first, so
        // session 1 finds all its strata cached.
        answer(&mut warm.session_with_id(99), sql);
        let before = strata_counts(&warm.stats());
        let cold_answer = answer(&mut cold.session_with_id(1), sql);
        let warm_answer = answer(&mut warm.session_with_id(1), sql);
        assert_eq!(warm_answer, cold_answer, "{sql}");
        if sql.contains("UNTIL") {
            assert!(cold_answer.1.last().is_some_and(|s| s.done), "{sql}");
        }

        // One stratification per group, else one per statement.
        let keys = if sql.contains("GROUP BY") { 2 } else { 1 };
        assert_eq!(strata_counts(&cold.stats()), (keys, 0, keys * N as u64), "{sql}");
        let after = strata_counts(&warm.stats());
        assert_eq!((after.0, after.1 - before.1), (before.0, keys), "{sql}");
    }
    // One entry per distinct score source: the `is_spam` column (`USING`,
    // bare atom, `spam` group), the model, two combinations and the
    // `is_promo` column (`promo` group).
    assert_eq!(strata_counts(&warm.stats()).0, 5);
}

/// Shaped like a dashboard refresh: every panel stratifies on the same
/// score source, so the table is sorted once for all 48 runs — whether the
/// panels name a column with `USING`, filter on a bare atom without one
/// (the identity combination is the column), or filter on a composite
/// predicate without one.
#[test]
fn sixteen_prepared_panels_share_one_build() {
    for (predicate, using) in
        [("is_spam", " USING is_spam"), ("is_spam", ""), ("is_spam AND NOT is_promo", "")]
    {
        let case = format!("WHERE {predicate}{using}");
        let engine = Engine::builder()
            .table(table())
            .bootstrap_trials(20)
            .label_cache(true)
            .seed(5)
            .build();
        let mut session = engine.session_with_id(7);
        let panels: Vec<_> = (0..16)
            .map(|i| {
                let sql = format!(
                    "SELECT AVG(nb_links), COUNT(*) FROM emails WHERE {predicate} \
                     ORACLE LIMIT {}{using}",
                    400 + 50 * i
                );
                session.prepare(&sql).expect("panel plans")
            })
            .collect();
        assert_eq!(engine.stats().strata_builds, 0, "preparing sorts nothing: {case}");
        let first: Vec<QueryResult> =
            panels.iter().map(|p| p.run().expect("first run")).collect();
        for _ in 0..2 {
            for (panel, first) in panels.iter().zip(&first) {
                let again = panel.run().expect("re-run");
                assert_eq!(again.rows, first.rows, "{case}");
                assert_eq!(again.oracle_calls, 0, "the warm label store answers every draw");
            }
        }
        assert_eq!(strata_counts(&engine.stats()), (1, 47, N as u64), "{case}");
    }
}

/// Shaped like the `anytime_until` benchmark: bare-atom `UNTIL` statements
/// over one table and two-group `GROUP BY` `UNTIL` statements over another,
/// on one engine. Each distinct key — the atom's column and the two group
/// columns — is sorted once, and every other lookup hits.
#[test]
fn an_anytime_stream_builds_once_per_distinct_key() {
    let engine = Engine::builder()
        .table(table())
        .table(table_named("inbox"))
        .bind_predicate("inbox", "kind=spam", "is_spam")
        .bind_predicate("inbox", "kind=promo", "is_promo")
        .bootstrap_trials(20)
        .seed(0xA17)
        .build();
    let scalar = |budget: usize| {
        format!(
            "SELECT AVG(nb_links) FROM emails WHERE is_spam \
             UNTIL CI WIDTH < 1.5 MAX ORACLE LIMIT {budget}"
        )
    };
    let grouped = |budget: usize| {
        format!(
            "SELECT AVG(nb_links), kind FROM inbox \
             WHERE kind(text) = 'spam' OR kind(text) = 'promo' GROUP BY kind(text) \
             UNTIL CI WIDTH < 3 MAX ORACLE LIMIT {budget}"
        )
    };
    let mut lookups = 0;
    for i in 0..10usize {
        let mut session = engine.session_with_id(i as u64);
        let (sql, keys) =
            if i % 10 < 3 { (grouped(600 + 100 * i), 2) } else { (scalar(400 + 100 * i), 1) };
        let (result, snapshots) = answer(&mut session, &sql);
        assert!(snapshots.last().is_some_and(|s| s.done), "{sql}");
        assert!(result.oracle_calls > 0, "{sql}");
        lookups += keys;
    }
    assert_eq!(strata_counts(&engine.stats()), (3, lookups - 3, 3 * N as u64));
}

#[test]
fn replacing_a_model_restratifies_new_statements_only() {
    const SELECT: &str = "SELECT AVG(nb_links), COUNT(*) FROM emails WHERE is_spam \
                          ORACLE LIMIT 900 USING spamnet";
    let engine = new_engine();
    let old_model = train(&mut engine.session_with_id(0), CREATE);
    let old = engine.session_with_id(1).prepare(SELECT).expect("plans");
    let old_answer = old.run().expect("old model run");

    // Replace the model, then query it on the same session.
    let mut session = engine.session_with_id(2);
    let new_model = train(&mut session, CREATE_OTHER);
    let new_answer = session.execute(SELECT).expect("new model run");
    // The two models stratify differently, so serving the old strata to
    // the new statement would change its answer.
    let strata = |scores: &[f64]| Stratification::by_proxy_quantile(scores, 5);
    assert_ne!(strata(&old_model.scores), strata(&new_model.scores));
    drop((old_model, new_model));

    // Same as an engine that only ever trained the new model.
    let fresh = new_engine();
    let mut fresh_session = fresh.session_with_id(2);
    fresh_session.run(CREATE_OTHER).expect("training");
    assert_eq!(new_answer, fresh_session.execute(SELECT).expect("fresh run"));

    // The statement prepared before the replacement keeps the old model,
    // and its answer bit for bit.
    assert_eq!(old.run().expect("old statement re-run"), old_answer);
    assert_eq!(engine.stats().strata_cached_records, 2 * N as u64, "both models are in use");

    // With no older statement alive, replacements do not grow the cache.
    drop(old);
    for id in 10..20u64 {
        let mut session = engine.session_with_id(id);
        session.run(if id % 2 == 0 { CREATE } else { CREATE_OTHER }).expect("retraining");
        session.execute(SELECT).expect("query");
    }
    let stats = engine.stats();
    assert_eq!(stats.strata_cached_records, N as u64, "one table's worth");
    assert_eq!(stats.strata_builds, 12, "each model is sorted once");
}

/// Runs a `CREATE PROXY` and returns the registered model.
fn train(session: &mut Session, sql: &str) -> Arc<TrainedProxy> {
    match session.run(sql).expect("training") {
        StatementOutcome::ProxyCreated(model) => model,
        other => panic!("expected a trained proxy, got {other:?}"),
    }
}

/// Session `id`'s statement over `score_source`: a `USING` clause, or a
/// composite predicate stratified by its §3.3 combination.
fn concurrent_sql(score_source: &str, id: u64) -> String {
    let (predicate, using) = match score_source {
        "column" => ("is_spam", " USING is_spam"),
        _ => ("is_spam OR is_promo", ""),
    };
    format!(
        "SELECT AVG(nb_links), SUM(nb_links) FROM emails WHERE {predicate} \
         ORACLE LIMIT {}{using}",
        500 + 100 * id
    )
}

#[test]
fn sessions_first_touching_one_key_at_once_match_a_serial_replay() {
    const SESSIONS: usize = 4;
    for score_source in ["column", "combination"] {
        let engine = new_engine();
        let barrier = Barrier::new(SESSIONS);
        let concurrent: Vec<QueryResult> = thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS as u64)
                .map(|id| {
                    let mut session = engine.session_with_id(id);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let sql = concurrent_sql(score_source, id);
                        session.execute(&sql).expect("concurrent query")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread")).collect()
        });

        let serial_engine = new_engine();
        let serial: Vec<QueryResult> = (0..SESSIONS as u64)
            .map(|id| {
                let sql = concurrent_sql(score_source, id);
                serial_engine.session_with_id(id).execute(&sql).expect("query")
            })
            .collect();
        assert_eq!(concurrent, serial, "{score_source}");

        let stats = engine.stats();
        assert_eq!(stats.strata_cached_records, N as u64, "one entry remains: {score_source}");
        assert!(stats.strata_builds >= 1);
        assert_eq!(stats.strata_builds + stats.strata_hits, SESSIONS as u64, "{score_source}");
        assert_eq!(strata_counts(&serial_engine.stats()), (1, 3, N as u64), "{score_source}");
    }
}

/// Validation runs before stratification, so each of these fails with the
/// error it always did — and a zero `K` never reaches the sort, which
/// would panic.
#[test]
fn invalid_statements_fail_as_before_and_sort_nothing() {
    let engine = new_engine();
    let err = engine
        .session()
        .execute("SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 3 USING is_spam")
        .unwrap_err();
    assert!(
        matches!(err, QueryError::Config(ConfigError::BudgetBelowStrata { budget: 3, strata: 5 })),
        "{err}"
    );

    let err = engine
        .session()
        .prepare(
            "SELECT AVG(nb_links) FROM emails WHERE is_spam \
             UNTIL CI WIDTH < ? MAX ORACLE LIMIT 500 USING is_spam",
        )
        .expect("plans")
        .with_ci_width(0.0)
        .run()
        .unwrap_err();
    assert!(matches!(err, QueryError::Config(ConfigError::BadTargetWidth(w)) if w == 0.0), "{err}");

    let zero_k = Engine::builder()
        .table(table())
        .bind_predicate("emails", "kind=spam", "is_spam")
        .bind_predicate("emails", "kind=promo", "is_promo")
        .strata(0)
        .build();
    for sql in [
        "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500 USING is_spam",
        "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500",
        "SELECT AVG(nb_links) FROM emails WHERE is_spam AND is_promo ORACLE LIMIT 500",
    ] {
        let err = zero_k.session().execute(sql).unwrap_err();
        assert!(matches!(err, QueryError::Config(ConfigError::ZeroStrata)), "{sql}: {err}");
    }

    // GROUP BY runs core's checks in core's order — the bootstrap alpha,
    // the `UNTIL` target, then the configuration — before it fetches any
    // group's strata.
    const GROUPED: &str = "SELECT AVG(nb_links), kind FROM emails \
         WHERE kind(text) = 'spam' OR kind(text) = 'promo' GROUP BY kind(text) \
         UNTIL CI WIDTH < ? MAX ORACLE LIMIT 500 WITH PROBABILITY ?";
    let grouped = |engine: &Engine, width: f64, probability: f64| {
        let prepared = engine.session().prepare(GROUPED).expect("plans");
        prepared.with_ci_width(width).with_probability(probability).run().unwrap_err()
    };
    let config = |e: QueryError| match e {
        QueryError::GroupBy(GroupByError::Config(e)) => e,
        other => panic!("expected a GROUP BY config error, got {other}"),
    };
    let blocking = zero_k
        .session()
        .execute(
            "SELECT AVG(nb_links), kind FROM emails \
             WHERE kind(text) = 'spam' OR kind(text) = 'promo' GROUP BY kind(text) \
             ORACLE LIMIT 500",
        )
        .unwrap_err();
    assert_eq!(config(blocking), ConfigError::ZeroStrata);
    assert_eq!(config(grouped(&zero_k, 1.0, 0.9)), ConfigError::ZeroStrata);
    assert_eq!(config(grouped(&engine, 0.0, 0.9)), ConfigError::BadTargetWidth(0.0));
    assert_eq!(config(grouped(&engine, 1.0, 1.0)), ConfigError::BadAlpha(0.0));
    assert_eq!(config(grouped(&zero_k, 0.0, 1.0)), ConfigError::BadAlpha(0.0));
    assert_eq!(config(grouped(&zero_k, -1.0, 0.9)), ConfigError::BadTargetWidth(-1.0));

    for e in [&engine, &zero_k] {
        let stats = e.stats();
        assert_eq!((stats.strata_builds, stats.strata_cached_records), (0, 0));
    }
}

#[test]
fn explain_says_whether_the_strata_are_cached() {
    const COLUMN: &str =
        "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500 USING is_spam";
    const BARE: &str = "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500";
    const COMBINED: &str =
        "SELECT AVG(nb_links) FROM emails WHERE is_spam OR is_promo ORACLE LIMIT 500";
    const GROUPED: &str = "SELECT AVG(nb_links), kind FROM emails \
         WHERE kind(text) = 'promo' OR kind(text) = 'spam' GROUP BY kind(text) ORACLE LIMIT 500";
    let engine = new_engine();
    let mut session = engine.session_with_id(1);
    let strata_lines = |session: &Session, sql: &str| -> Vec<String> {
        let plan = session.explain(sql).expect("explain");
        plan.lines().filter(|l| l.starts_with("strata : ")).map(str::to_string).collect()
    };
    const NOT_CACHED: &str = "not cached yet — the first run sorts 12000 records into 5 strata";
    const CACHED: &str = "cached — 5 strata over 12000 records";
    for sql in [COLUMN, BARE, COMBINED] {
        let before = strata_lines(&session, sql);
        assert_eq!(before.len(), 1, "{sql}");
        assert!(before[0].starts_with(&format!("strata : {NOT_CACHED}")), "{}", before[0]);
    }
    let before = strata_lines(&session, GROUPED);
    assert_eq!(
        before,
        ["'spam' by column `is_spam`", "'promo' by column `is_promo`"]
            .map(|g| format!("strata : group {g}: {NOT_CACHED} and caches them"))
    );
    assert_eq!(engine.stats().strata_builds, 0, "EXPLAIN sorts nothing");

    // The column's entry serves the bare atom, and only the combination
    // misses.
    session.execute(COLUMN).expect("query");
    for sql in [COLUMN, BARE] {
        let after = strata_lines(&session, sql);
        assert!(after[0].starts_with(&format!("strata : {CACHED}")), "{}", after[0]);
    }
    let combined = strata_lines(&session, COMBINED);
    assert!(combined[0].starts_with(&format!("strata : {NOT_CACHED}")), "{}", combined[0]);
    let grouped = strata_lines(&session, GROUPED);
    assert!(grouped[0].starts_with(&format!("strata : group 'spam' by column `is_spam`: {CACHED}")));
    assert!(grouped[1].contains(NOT_CACHED), "{}", grouped[1]);

    session.execute(COMBINED).expect("query");
    session.execute(BARE).expect("query");
    session.execute(GROUPED).expect("query");
    let combined = strata_lines(&session, COMBINED);
    assert!(combined[0].starts_with(&format!("strata : {CACHED}")), "{}", combined[0]);
    for line in strata_lines(&session, GROUPED) {
        assert!(line.contains(CACHED), "{line}");
    }
    // Builds: `is_spam`, the combination, `is_promo`; hits: the bare atom
    // and the `is_spam` group.
    assert_eq!(strata_counts(&engine.stats()), (3, 2, 3 * N as u64));
}
