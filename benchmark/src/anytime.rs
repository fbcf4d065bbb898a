//! `anytime_until`: anytime queries with `UNTIL CI WIDTH < w MAX ORACLE
//! LIMIT n`.
//!
//! One client, in process, calling `Session::execute_progressive` and
//! consuming every snapshot. Seven statements in ten are scalar over
//! `trec05p` (52,578 records); three in ten are a `GROUP BY` over
//! `celeba-groupby` (202,599 records, 2 groups), which takes several times
//! longer. That split keeps `latency_p50_ms` among the scalar statements
//! and `latency_tail_ms` among the `GROUP BY` ones, away from the boundary
//! between the two. The label store is off and the batcher has no device
//! cost, so the stopping rule alone sets the oracle spend.

use crate::common::{derive, engine_builder, Answer, Cell, Kind, Phase, SetupTimes, Stmt, Truth};
use crate::replay::{self, session_seed, Counts};
use crate::trace::{attribute, Recorder};
use crate::{Args, Report, Traced};
use abae_core::BatcherOptions;
use abae_data::emulators::{celeba_groupby, trec05p, EmulatorOptions};
use abae_query::{Engine, QuerySnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The client's session id.
const CLIENT: u64 = 0;

/// Session that runs the set-up warm-up.
const SETUP_SESSION: u64 = 1000;

/// Statements per second of `--seconds`.
const RATE: f64 = 4.0;

/// Set-ups per run. A set-up takes about a second, mostly table builds
/// that vary by ±20% from one to the next, so `setup_s` takes the median
/// of five.
const SETUPS: usize = 5;

/// Smallest stream: enough `GROUP BY` statements that the tail
/// percentile (10 statements beyond it) lands inside their cluster.
const MIN_STATEMENTS: usize = 48;

/// The `i`-th scalar statement shape: every combination of SELECT list,
/// proxy, width target and cap in turn, so a stream's multiset of shapes
/// depends only on its length.
fn scalar_sql(i: usize) -> String {
    let width = [0.55, 0.6, 0.65][i % 3];
    let using = ["", " USING is_spam_kw2", ""][(i / 3) % 3];
    let aggs = [
        "AVG(links)",
        "AVG(links), COUNT(*)",
        "AVG(links), SUM(links)",
    ][(i / 9) % 3];
    let cap = [4000, 5000][(i / 27) % 2];
    format!(
        "SELECT {aggs} FROM trec05p WHERE is_spam UNTIL CI WIDTH < {width} MAX ORACLE LIMIT {cap}{using}"
    )
}

/// The `i`-th `GROUP BY` statement shape. One cap keeps the `GROUP BY`
/// latencies in one cluster, so the tail percentile does not fall between
/// two.
fn groupby_sql(i: usize) -> String {
    let width = [16.0, 18.0, 20.0][i % 3];
    format!(
        "SELECT AVG(smile), hair FROM celeba-groupby \
         WHERE hair(img) = 'gray' OR hair(img) = 'blond' GROUP BY hair(img) \
         UNTIL CI WIDTH < {width} MAX ORACLE LIMIT 1000"
    )
}

/// The seeded stream: three statements in ten are a `GROUP BY`; the seed
/// shuffles the order of the shapes.
fn stream(seed: u64, n: usize) -> Vec<String> {
    let grouped = 3 * n / 10;
    let mut sqls: Vec<String> = (0..grouped)
        .map(groupby_sql)
        .chain((0..n - grouped).map(scalar_sql))
        .collect();
    crate::common::shuffle(&mut sqls, &mut StdRng::seed_from_u64(derive(seed, 30)));
    sqls
}

/// Builds the tables and the engine and warms up with one blocking
/// statement of each kind (blocking, so the warm-up does the same work
/// whatever the seed).
fn set_up(seed: u64, start: Instant) -> (Engine, SetupTimes) {
    let spam = trec05p(&EmulatorOptions::default());
    let faces = celeba_groupby(&EmulatorOptions::default());
    let table_s = start.elapsed().as_secs_f64();
    let engine = engine_builder(derive(seed, 33))
        .table(spam)
        .table(faces)
        .bind_predicate("celeba-groupby", "hair=gray", "is_gray")
        .bind_predicate("celeba-groupby", "hair=blond", "is_blond")
        .label_cache(false)
        .batcher(BatcherOptions::default())
        .build();
    let warm_start = Instant::now();
    let mut session = engine.session_with_id(SETUP_SESSION);
    let mut oracle_calls = 0;
    for sql in [
        "SELECT AVG(links) FROM trec05p WHERE is_spam ORACLE LIMIT 4000",
        "SELECT AVG(smile), hair FROM celeba-groupby \
         WHERE hair(img) = 'gray' OR hair(img) = 'blond' GROUP BY hair(img) ORACLE LIMIT 1000",
    ] {
        oracle_calls += session
            .execute(sql)
            .expect("warm-up statement")
            .oracle_calls;
    }
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        table_s,
        proxy_s: 0.0,
        warmup_s: warm_start.elapsed().as_secs_f64(),
        oracle_calls,
    };
    (engine, times)
}

fn snapshot_answer(s: &QuerySnapshot) -> Answer {
    let cells = match &s.groups {
        Some(groups) => groups
            .iter()
            .map(|g| Cell {
                estimate: g.estimate,
                ci: g.ci.map(|c| (c.lo, c.hi)),
            })
            .collect(),
        None => s
            .rows
            .iter()
            .map(|r| Cell {
                estimate: r.estimate,
                ci: r.ci.map(|c| (c.lo, c.hi)),
            })
            .collect(),
    };
    Answer {
        cells,
        oracle_calls: s.budget_spent,
    }
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> Report {
    let (engine, setups) =
        crate::set_up_repeatedly(process_start, SETUPS, |start| set_up(args.seed, start));
    let n = ((RATE * args.seconds as f64).round() as usize).max(MIN_STATEMENTS);
    let sqls = stream(args.seed, n);
    let mut truth = Truth::default();
    let stmts: Vec<Stmt> = sqls
        .iter()
        .map(|sql| replay::statement(engine.catalog(), &mut truth, sql.clone()))
        .collect();

    let mut phase = Phase::default();
    let mut answers = Vec::with_capacity(n);
    let mut snapshots = Vec::with_capacity(n);
    let mut session = engine.session_with_id(CLIENT);
    let started = Instant::now();
    for (i, stmt) in stmts.iter().enumerate() {
        phase.attempted += 1;
        let mut count = 0u64;
        let mut last: Option<QuerySnapshot> = None;
        let t = Instant::now();
        let result = session.execute_progressive(&stmt.sql, |s| {
            count += 1;
            last = Some(s.clone());
        });
        phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let Ok(result) = result else {
            phase.failed += 1;
            answers.push(None);
            snapshots.push(count);
            continue;
        };
        let answer = Answer::from_result(&result);
        phase.oracle_calls += answer.oracle_calls;
        phase.tally.add(stmt, &answer);
        if let Err(e) = crate::common::check(stmt, &answer) {
            phase.fail_check(format!("statement {i}: {e}: {}", stmt.sql));
        }
        match &last {
            Some(s) if s.done && snapshot_answer(s).same_rows(&answer) => {}
            _ => phase.fail_check(format!(
                "statement {i}: the last snapshot is not the final answer"
            )),
        }
        answers.push(Some(answer));
        snapshots.push(count);
    }
    phase.wall_s = started.elapsed().as_secs_f64();

    let traced = args.trace.then(|| {
        let mut traced = traced_phase(&engine, &stmts, &answers, &snapshots, args.seed);
        traced.per_record_ms = crate::adhoc::oracle_cost_per_record(args);
        traced
    });
    let catalog = engine.catalog();
    let tables: Vec<(&str, usize)> = ["trec05p", "celeba-groupby"]
        .iter()
        .map(|t| (*t, catalog.table(t).expect("registered").len()))
        .collect();
    let grouped = stmts.iter().filter(|s| s.kind == Kind::GroupBy).count();
    let conditions = crate::conditions(&tables, &n.to_string())
        .with(
            "groupby_statements",
            crate::report::Json::Int(grouped as u64),
        )
        .with(
            "snapshots",
            crate::report::Json::Int(snapshots.iter().sum()),
        )
        .with("label_store", crate::report::Json::Str("off".into()))
        .with(
            "batcher",
            crate::report::Json::Str("coalescing off, no device cost".into()),
        );
    Report {
        phase,
        setups,
        conditions,
        traced,
    }
}

/// Replays the stream through the layer entry points on the same engine
/// and the client's session stream.
fn traced_phase(
    engine: &Engine,
    stmts: &[Stmt],
    answers: &[Option<Answer>],
    snapshots: &[u64],
    seed: u64,
) -> Traced {
    let rec = Recorder::new(Instant::now());
    let mut rng = StdRng::seed_from_u64(session_seed(derive(seed, 33), CLIENT));
    let mut traced = Traced::default();
    let mut counts = vec![Counts::default(); stmts.len()];
    let mut scored = Vec::with_capacity(stmts.len());
    let before = engine.batcher().stats();
    let k = engine.options().strata;
    for (i, stmt) in stmts.iter().enumerate() {
        rec.begin_statement(i as u32);
        let (answer, plan) = rec.span("statement", || {
            let q = rec.span("query.parse", || replay::parse(&stmt.sql));
            let plan = rec.span("query.plan", || replay::plan(engine.catalog(), q));
            let answer = replay::execute(engine, &plan, CLIENT, &mut rng, &rec, &mut counts[i]);
            (answer, plan)
        });
        replay::shadow_strata(&plan, k, &rec);
        scored.push(plan.records_scored() as f64);
        if answers[i].as_ref() != Some(&answer) {
            traced.mismatches += 1;
        }
    }
    let after = engine.batcher().stats();
    let spans = rec.into_spans();
    let layers = attribute(&spans);
    for (i, stmt) in stmts.iter().enumerate() {
        traced.push(stmt.kind, &layers, i as u32, &counts[i], scored[i]);
        if traced.stmts[i].1.snapshots as u64 != snapshots[i] {
            traced.mismatches += 1;
        }
    }
    traced.set_batcher(before, after);
    traced.spans = spans;
    traced
}
