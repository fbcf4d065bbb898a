//! `anytime` — CI width vs oracle budget through progressive snapshots,
//! plus the budget saved by `UNTIL CI WIDTH` early stopping.
//!
//! The paper's cost model (§5.1) counts oracle invocations; the anytime
//! executor makes that spend *interruptible* by labeling in chunks and
//! emitting a statistically valid answer (estimate + CI) after every
//! chunk: closed-form CIs at intermediate snapshots, the blocking run's
//! bootstrap at the last one. This bench traces one full-budget
//! progressive run over the trec05p emulator — the budget → (estimate, CI
//! width, wall-clock) curve — then replays the same session stream with an
//! `UNTIL CI WIDTH < x MAX` stopping rule and reports how much of the
//! budget the early stop leaves unspent for the same answer quality.
//!
//! It also prices the anytime run against the blocking one: after one
//! untimed warm-up statement (so neither pays for the stratification
//! sort), it times the full-budget progressive statement and the blocking
//! statement in `PAIRS` alternating pairs and reports both medians and
//! their ratio, `full_over_blocking`.
//!
//! Output: a human table on stdout and a machine-readable
//! `BENCH_anytime.json` at the repository root.
//!
//! ```sh
//! cargo run --release -p abae_bench --bin anytime
//! ABAE_BUDGET=20000 ABAE_SCALE=0.2 cargo run --release -p abae_bench --bin anytime
//! ```

use abae_bench::artifact::{emit_artifact, json_f64};
use abae_bench::config::ExpConfig;
use abae_data::emulators::{trec05p, EmulatorOptions};
use abae_query::Engine;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Alternating (progressive, blocking) timing pairs.
const PAIRS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One point on the anytime curve: the state of the answer at a chunk
/// boundary.
struct Point {
    budget_spent: u64,
    estimate: f64,
    ci_width: f64,
    wall_ms: f64,
}

fn main() {
    let cfg = ExpConfig::from_env();
    cfg.banner(
        "anytime — CI width vs budget, and UNTIL CI WIDTH savings",
        "§4 Algorithm 2 CIs, anytime execution (beyond the paper)",
    );
    let budget = env_usize("ABAE_BUDGET", 8_000);

    let table = trec05p(&EmulatorOptions { scale: cfg.scale.max(0.02), seed: cfg.seed });
    let records = table.len();
    let engine = Engine::builder().table(table).seed(cfg.seed).build();
    let chunk = engine.options().exec.batch_size;
    let sql = format!("SELECT AVG(links) FROM trec05p WHERE is_spam ORACLE LIMIT {budget}");

    // Warm-up: the first statement sorts the table into the strata cache.
    engine.session_with_id(1).execute(&sql).expect("blocking query executes");

    // The full-budget progressive run: one labeling pass, one snapshot per
    // chunk boundary, wall-clock stamped as each snapshot arrives. The
    // first run draws the curve; every run is timed against the blocking
    // statement that follows it.
    let mut curve: Vec<Point> = Vec::new();
    let (mut full_ms, mut blocking_ms) = (Vec::new(), Vec::new());
    let mut progressive = None;
    let mut blocking = None;
    for _ in 0..PAIRS {
        let mut points: Vec<Point> = Vec::new();
        let start = Instant::now();
        let result = engine
            .session_with_id(1)
            .execute_progressive(&sql, |snap| {
                points.push(Point {
                    budget_spent: snap.budget_spent,
                    estimate: snap.estimate().unwrap_or(f64::NAN),
                    ci_width: snap.ci().map(|ci| ci.width()).unwrap_or(f64::NAN),
                    wall_ms: elapsed_ms(start),
                });
            })
            .expect("progressive query executes");
        full_ms.push(elapsed_ms(start));
        let start = Instant::now();
        let answer = engine.session_with_id(1).execute(&sql).expect("blocking query executes");
        blocking_ms.push(elapsed_ms(start));
        if progressive.is_none() {
            curve = points;
            progressive = Some(result);
            blocking = Some(answer);
        }
    }
    let (progressive, blocking) = (progressive.expect("a run"), blocking.expect("a run"));
    let (full_ms, blocking_ms) = (median(full_ms), median(blocking_ms));
    let full_over_blocking = full_ms / blocking_ms;

    // The anytime guarantee: the final snapshot IS the blocking answer.
    let bit_identical =
        progressive.rows == blocking.rows && progressive.oracle_calls == blocking.oracle_calls;

    println!("dataset    : trec05p emulator, {records} records");
    println!("query      : {sql}");
    println!("chunk size : {chunk} labels/snapshot ({} snapshots)\n", curve.len());
    println!("{:>12} {:>14} {:>12} {:>12}", "budget", "estimate", "ci_width", "wall_ms");
    for p in &curve {
        println!(
            "{:>12} {:>14.4} {:>12.4} {:>12.2}",
            p.budget_spent, p.estimate, p.ci_width, p.wall_ms
        );
    }

    // Early stop: target the CI width the full run reached halfway through
    // its budget, so the stopping rule provably fires before the cap.
    let mid = &curve[curve.len() / 2];
    let target = mid.ci_width;
    let until_sql = format!(
        "SELECT AVG(links) FROM trec05p WHERE is_spam \
         UNTIL CI WIDTH < {target} MAX ORACLE LIMIT {budget}"
    );
    let stop_start = Instant::now();
    let stopped = engine.session_with_id(1).execute(&until_sql).expect("UNTIL query executes");
    let stop_ms = stop_start.elapsed().as_secs_f64() * 1e3;
    let full_spent = progressive.oracle_calls;
    let savings = 1.0 - stopped.oracle_calls as f64 / full_spent.max(1) as f64;
    let stopped_width = stopped.ci().map(|ci| ci.width()).unwrap_or(f64::NAN);

    println!("\nearly stop : UNTIL CI WIDTH < {target:.4} MAX ORACLE LIMIT {budget}");
    println!(
        "             spent {} of {} labels ({:.1}% saved), ci_width {:.4}, wall {:.2}ms",
        stopped.oracle_calls,
        full_spent,
        100.0 * savings,
        stopped_width,
        stop_ms
    );
    println!(
        "final snapshot bit-identical to blocking run: {}",
        if bit_identical { "yes" } else { "NO — INVARIANT VIOLATED" }
    );
    println!(
        "cost       : full-budget anytime {full_ms:.2}ms vs blocking {blocking_ms:.2}ms \
         (x{full_over_blocking:.2}, medians of {PAIRS} alternating pairs)"
    );

    let curve_json: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                "{{\"budget\":{},\"estimate\":{},\"ci_width\":{},\"wall_ms\":{}}}",
                p.budget_spent,
                json_f64(p.estimate),
                json_f64(p.ci_width),
                json_f64(p.wall_ms)
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let json = format!(
        "{{\"bench\":\"anytime\",\"dataset\":\"trec05p\",\"records\":{records},\
         \"budget\":{budget},\"chunk\":{chunk},\"seed\":{},\"nproc\":{nproc},\
         \"curve\":[{}],\
         \"early_stop\":{{\"target_ci_width\":{},\"budget_spent\":{},\
         \"full_budget_spent\":{full_spent},\"savings_pct\":{},\
         \"estimate\":{},\"ci_width\":{},\"wall_ms\":{}}},\
         \"timing_pairs\":{PAIRS},\"full_wall_ms\":{},\"blocking_wall_ms\":{},\
         \"full_over_blocking\":{},\
         \"final_bit_identical\":{bit_identical}}}",
        cfg.seed,
        curve_json.join(","),
        json_f64(target),
        stopped.oracle_calls,
        json_f64(100.0 * savings),
        json_f64(stopped.estimate()),
        json_f64(stopped_width),
        json_f64(stop_ms),
        json_f64(full_ms),
        json_f64(blocking_ms),
        json_f64(full_over_blocking),
    );
    emit_artifact("anytime", &json, cfg.scale == ExpConfig::default().scale && budget == 8_000);

    assert!(bit_identical, "progressive final answer must equal the blocking answer");
    assert!(
        stopped.oracle_calls <= full_spent,
        "the stopping rule must never spend more than the cap"
    );
}
