//! Stratification-cache acceptance tests — the catalog stratifies each
//! resident score vector (a proxy column or a trained model) once per `K`
//! and every scalar statement over it shares the result:
//!
//! * **bit-identity** — blocking multi-aggregate and `UNTIL` progressive
//!   statements, `USING` a column and `USING` a trained model, answer the
//!   same rows, CIs, oracle calls and snapshots on a cold engine (the
//!   statement sorts) and a warm one (it hits the cache);
//! * **sharing** — sixteen prepared statements over one column, each run
//!   three times, sort the table once;
//! * **model replacement** — after `CREATE PROXY` replaces a name, new
//!   statements stratify on the new scores, a statement prepared before
//!   keeps its old answers, and repeated replacements do not grow the
//!   cache;
//! * **concurrency** — sessions first-touching one key at once answer
//!   exactly like a serial replay and leave one entry;
//! * **validation order** — an invalid statement fails with the same
//!   error as before the cache existed and sorts nothing;
//! * **`EXPLAIN`** — the plan says whether its strata are cached, and
//!   sorts nothing itself.
//!
//! The engines build with default [`ExecOptions`], so CI's
//! `ABAE_THREADS=1/8` matrix exercises every test at both thread counts.
//!
//! [`ExecOptions`]: abae::core::pipeline::ExecOptions

use abae::core::{ConfigError, Stratification};
use abae::data::{Table, TrainedProxy};
use abae::query::{Engine, QueryError, QueryResult, QuerySnapshot, Session, StatementOutcome};
use std::sync::{Arc, Barrier};
use std::thread;

const N: usize = 12_000;

/// ~25% positives with text payloads to train on, and a noisy proxy
/// column whose scores are nearly all distinct, so the sort order is set
/// by the scores rather than by index ties.
fn table() -> Table {
    let labels: Vec<bool> = (0..N).map(|i| i % 4 == 0).collect();
    let proxy: Vec<f64> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| if l { 0.5 } else { 0.1 } + ((i * 7919) % 1000) as f64 / 2500.0)
        .collect();
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
    Table::builder("emails", values)
        .predicate("is_spam", labels, proxy)
        .texts(texts)
        .build()
        .unwrap()
}

fn new_engine() -> Engine {
    Engine::builder().table(table()).bootstrap_trials(60).seed(0x57A7).build()
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
    ];
    for sql in statements {
        // Identically built engines, both with the model trained on
        // session 0; the warm one has already run the statement on
        // another session, so session 1 finds its strata cached.
        let (cold, warm) = (new_engine(), new_engine());
        for e in [&cold, &warm] {
            e.session_with_id(0).run(CREATE).expect("training");
        }
        answer(&mut warm.session_with_id(99), sql);
        let cold_answer = answer(&mut cold.session_with_id(1), sql);
        let warm_answer = answer(&mut warm.session_with_id(1), sql);
        assert_eq!(warm_answer, cold_answer, "{sql}");
        if sql.contains("UNTIL") {
            assert!(cold_answer.1.last().is_some_and(|s| s.done), "{sql}");
        }

        let (c, w) = (cold.stats(), warm.stats());
        assert_eq!((c.strata_builds, c.strata_hits), (1, 0), "{sql}");
        assert_eq!((w.strata_builds, w.strata_hits), (1, 1), "{sql}");
        assert_eq!(w.strata_cached_records, N as u64, "{sql}");
    }
}

/// Shaped like a dashboard refresh: every panel stratifies on the same
/// column, so the table is sorted once for all 48 runs.
#[test]
fn sixteen_prepared_panels_share_one_build() {
    let engine =
        Engine::builder().table(table()).bootstrap_trials(20).label_cache(true).seed(5).build();
    let mut session = engine.session_with_id(7);
    let panels: Vec<_> = (0..16)
        .map(|i| {
            let sql = format!(
                "SELECT AVG(nb_links), COUNT(*) FROM emails WHERE is_spam \
                 ORACLE LIMIT {} USING is_spam",
                400 + 50 * i
            );
            session.prepare(&sql).expect("panel plans")
        })
        .collect();
    assert_eq!(engine.stats().strata_builds, 0, "preparing sorts nothing");
    let first: Vec<QueryResult> = panels.iter().map(|p| p.run().expect("first run")).collect();
    for _ in 0..2 {
        for (panel, first) in panels.iter().zip(&first) {
            let again = panel.run().expect("re-run");
            assert_eq!(again.rows, first.rows);
            assert_eq!(again.oracle_calls, 0, "the warm label store answers every draw");
        }
    }
    let stats = engine.stats();
    assert_eq!(
        (stats.strata_builds, stats.strata_hits, stats.strata_cached_records),
        (1, 47, N as u64)
    );
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

fn concurrent_sql(id: u64) -> String {
    format!(
        "SELECT AVG(nb_links), SUM(nb_links) FROM emails WHERE is_spam \
         ORACLE LIMIT {} USING is_spam",
        500 + 100 * id
    )
}

#[test]
fn sessions_first_touching_one_key_at_once_match_a_serial_replay() {
    const SESSIONS: usize = 4;
    let engine = new_engine();
    let barrier = Barrier::new(SESSIONS);
    let concurrent: Vec<QueryResult> = thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS as u64)
            .map(|id| {
                let mut session = engine.session_with_id(id);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    session.execute(&concurrent_sql(id)).expect("concurrent query")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread")).collect()
    });

    let serial_engine = new_engine();
    let serial: Vec<QueryResult> = (0..SESSIONS as u64)
        .map(|id| serial_engine.session_with_id(id).execute(&concurrent_sql(id)).expect("query"))
        .collect();
    assert_eq!(concurrent, serial);

    let stats = engine.stats();
    assert_eq!(stats.strata_cached_records, N as u64, "one entry remains");
    assert!(stats.strata_builds >= 1);
    assert_eq!(stats.strata_builds + stats.strata_hits, SESSIONS as u64);
    let serial_stats = serial_engine.stats();
    assert_eq!((serial_stats.strata_builds, serial_stats.strata_hits), (1, 3));
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

    let zero_k = Engine::builder().table(table()).strata(0).build();
    let err = zero_k
        .session()
        .execute("SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500 USING is_spam")
        .unwrap_err();
    assert!(matches!(err, QueryError::Config(ConfigError::ZeroStrata)), "{err}");

    for e in [&engine, &zero_k] {
        let stats = e.stats();
        assert_eq!((stats.strata_builds, stats.strata_cached_records), (0, 0));
    }
}

#[test]
fn explain_says_whether_the_strata_are_cached() {
    const COLUMN: &str =
        "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500 USING is_spam";
    const COMBINED: &str = "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500";
    let engine = new_engine();
    let mut session = engine.session_with_id(1);
    let strata_line = |session: &Session, sql: &str| -> String {
        let plan = session.explain(sql).expect("explain");
        plan.lines().find(|l| l.starts_with("strata : ")).expect("a strata line").to_string()
    };
    let before = strata_line(&session, COLUMN);
    assert!(before.contains("not cached yet — the first run sorts 12000 records"), "{before}");
    assert_eq!(engine.stats().strata_builds, 0, "EXPLAIN sorts nothing");

    session.execute(COLUMN).expect("query");
    let after = strata_line(&session, COLUMN);
    assert!(after.starts_with("strata : cached — 5 strata over 12000 records"), "{after}");
    let combined = strata_line(&session, COMBINED);
    assert!(combined.starts_with("strata : built on every run"), "{combined}");

    session.execute(COMBINED).expect("query");
    let stats = engine.stats();
    assert_eq!(
        (stats.strata_builds, stats.strata_hits, stats.strata_cached_records),
        (1, 0, N as u64),
        "combined scores bypass the cache"
    );
}
