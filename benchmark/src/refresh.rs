//! `refresh_1m`: a dashboard refresh over `taipei` at paper scale
//! (1,187,850 records).
//!
//! One client, in process. Set-up builds the table, prepares sixteen panel
//! statements on one session and runs each once, which fills the label
//! store. The timed phase re-runs the panels round-robin with
//! `Prepared::run`; every re-run replays its statement's stream, is
//! answered from the store (0 oracle calls) and re-stratifies the whole
//! table. The panels (aggregate lists, budgets 1k–4k) are fixed; the seed
//! picks the engine seed (which records each panel draws) and the refresh
//! order. Every panel stratifies on the table's stored `has_car` proxy
//! column (`USING has_car`), so the dashboard has one repeated score
//! source, shared by all panels rather than materialized per plan.
//!
//! A re-run repeats its panel's answer bit for bit, and a panel's
//! aggregates share one sample, so a run holds one independent coverage
//! event per panel: with eight panels `ci_coverage` moved in steps of 13%
//! between seeds; sixteen halve that.

use crate::common::{
    derive, engine_builder, shuffle, Answer, Kind, Phase, SetupTimes, Stmt, Truth,
};
use crate::replay::{self, prepared_seed, Counts};
use crate::trace::{attribute, Recorder};
use crate::{Args, Report, Traced};
use abae_core::BatcherOptions;
use abae_data::emulators::{taipei, EmulatorOptions};
use abae_query::{Engine, Prepared};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Session the dashboard prepares its panels on.
const SESSION: u64 = 7;

/// Panels on the dashboard.
const PANELS: usize = 16;

/// Set-ups per run; each warms every panel, about 4 s.
const SETUPS: usize = 3;

/// Aggregate lists; panel `i` takes list `i % 8` and budget
/// `1000 + 200 i`, so a run checks 46 distinct CIs against the truth.
const AGGREGATES: [&str; 8] = [
    "AVG(cars), SUM(cars), COUNT(*)",
    "COUNT(*), AVG(cars), PERCENTAGE(cars)",
    "SUM(cars), COUNT(*)",
    "AVG(cars), PERCENTAGE(cars), SUM(cars), COUNT(*)",
    "PERCENTAGE(cars), SUM(cars)",
    "COUNT(*), SUM(cars), AVG(cars)",
    "SUM(cars), AVG(cars), COUNT(*), PERCENTAGE(cars)",
    "AVG(cars), COUNT(*)",
];

/// Re-runs per second of `--seconds` (a re-run takes 0.2–0.27 s on a
/// 2-core Xeon VM).
const RATE: f64 = 4.0;

fn panel_sqls() -> Vec<String> {
    (0..PANELS)
        .map(|i| {
            let (a, b) = (AGGREGATES[i % AGGREGATES.len()], 1000 + 200 * i);
            format!("SELECT {a} FROM taipei WHERE has_car ORACLE LIMIT {b} USING has_car")
        })
        .collect()
}

struct Dashboard {
    engine: Engine,
    panels: Vec<Prepared>,
    warm: Vec<Answer>,
}

/// Builds the table and engine, prepares the panels and runs each once.
fn set_up(seed: u64, start: Instant) -> (Dashboard, SetupTimes) {
    let table = taipei(&EmulatorOptions::default());
    let table_s = start.elapsed().as_secs_f64();
    let engine = engine_builder(derive(seed, 2))
        .table(table)
        .label_cache(true)
        .batcher(BatcherOptions::default())
        .build();
    let warm_start = Instant::now();
    let mut session = engine.session_with_id(SESSION);
    let panels: Vec<Prepared> = panel_sqls()
        .iter()
        .map(|sql| session.prepare(sql).expect("panel statements plan"))
        .collect();
    let warm: Vec<Answer> = panels
        .iter()
        .map(|p| Answer::from_result(&p.run().expect("warm-up run")))
        .collect();
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        table_s,
        proxy_s: 0.0,
        warmup_s: warm_start.elapsed().as_secs_f64(),
        oracle_calls: warm.iter().map(|a| a.oracle_calls).sum(),
    };
    (
        Dashboard {
            engine,
            panels,
            warm,
        },
        times,
    )
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> Report {
    let (dash, setups) =
        crate::set_up_repeatedly(process_start, SETUPS, |start| set_up(args.seed, start));
    let catalog = dash.engine.catalog();
    let mut truth = Truth::default();
    let stmts: Vec<Stmt> = dash
        .panels
        .iter()
        .map(|p| replay::statement(catalog, &mut truth, p.sql()))
        .collect();

    let cycles = ((RATE * args.seconds as f64) / PANELS as f64)
        .ceil()
        .max(2.0) as usize;
    let mut order: Vec<usize> = (0..PANELS).collect();
    shuffle(&mut order, &mut StdRng::seed_from_u64(derive(args.seed, 4)));
    let order: Vec<usize> = (0..cycles).flat_map(|_| order.iter().copied()).collect();

    let mut phase = Phase::default();
    for (j, (stmt, warm)) in stmts.iter().zip(&dash.warm).enumerate() {
        if let Err(e) = crate::common::check(stmt, warm) {
            phase.fail_check(format!("panel {j} set-up answer: {e}"));
        }
    }
    let started = Instant::now();
    for &j in &order {
        phase.attempted += 1;
        let t = Instant::now();
        let result = dash.panels[j].run();
        phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let Ok(result) = result else {
            phase.failed += 1;
            continue;
        };
        let answer = Answer::from_result(&result);
        phase.oracle_calls += answer.oracle_calls;
        phase.tally.add(&stmts[j], &answer);
        if !(answer.oracle_calls == 0 && answer.same_rows(&dash.warm[j])) {
            phase.fail_check(format!(
                "panel {j} re-run differs from its set-up answer or spent {} oracle calls",
                answer.oracle_calls
            ));
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();

    let traced = args.trace.then(|| {
        let mut traced = traced_phase(&dash, &order, args.seed);
        traced.per_record_ms = crate::adhoc::oracle_cost_per_record(args);
        traced
    });
    let table = catalog.table("taipei").expect("taipei is registered");
    let conditions = crate::conditions(&[(table.name(), table.len())], &order.len().to_string())
        .with("panels", crate::report::Json::Int(PANELS as u64))
        .with(
            "label_store",
            crate::report::Json::Str("on, warm after set-up".into()),
        )
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

/// Replays every re-run through the layer entry points on the same
/// engine (its warm store answers every draw, as in the timed phase).
fn traced_phase(dash: &Dashboard, order: &[usize], seed: u64) -> Traced {
    let engine = &dash.engine;
    let plans: Vec<replay::Plan<'_>> = dash
        .panels
        .iter()
        .map(|p| replay::plan(engine.catalog(), p.query().clone()))
        .collect();
    let rec = Recorder::new(Instant::now());
    let mut counts = vec![Counts::default(); order.len()];
    let mut mismatches = 0;
    let before = engine.batcher().stats();
    for (i, &j) in order.iter().enumerate() {
        rec.begin_statement(i as u32);
        let mut rng = StdRng::seed_from_u64(prepared_seed(derive(seed, 2), SESSION, j as u64));
        let answer = rec.span("statement", || {
            replay::execute(engine, &plans[j], SESSION, &mut rng, &rec, &mut counts[i])
        });
        if !(answer.oracle_calls == 0 && answer.same_rows(&dash.warm[j])) {
            mismatches += 1;
        }
    }
    let after = engine.batcher().stats();
    let spans = rec.into_spans();
    let layers = attribute(&spans);
    let mut traced = Traced {
        mismatches,
        ..Traced::default()
    };
    for (i, c) in counts.iter().enumerate() {
        traced.push(Kind::Scalar, &layers, i as u32, c, 0.0);
    }
    traced.set_batcher(before, after);
    traced.spans = spans;
    traced
}
