//! `governor` — multi-session labeling throughput, oracle batcher off vs
//! on, under a simulated per-invocation device cost.
//!
//! The paper's cost model charges per oracle *invocation*: the expensive
//! predicate is a DNN served in batches (§5.1), so every dispatch pays a
//! fixed overhead (kernel launch, RPC round-trip) regardless of how many
//! records ride in it. Single-session ABae already amortizes that cost by
//! batching its own draws; this bench measures the next layer — the
//! engine's cross-session **oracle batcher** coalescing concurrent
//! sessions' requests for the same `(table, predicate)` into shared
//! invocations.
//!
//! Both modes charge the identical per-invocation overhead (100µs),
//! serialized the way one accelerator serializes dispatches; the
//! only difference is coalescing. The sweep runs 1/2/4/8 concurrent
//! sessions twice — governor off, then on — and reports aggregate
//! labeled-records/sec. Two claims are checked every run:
//!
//! * **bit-identity** — each session's `QueryResult`s (estimates, CIs,
//!   oracle-call accounting) are `assert_eq!`-identical between modes:
//!   the batcher changes invocation grouping and timing only.
//! * **throughput** — at 8 concurrent sessions, coalescing must deliver
//!   ≥ 2× the no-batching aggregate throughput (skipped with
//!   `ABAE_GOVERNOR_RELAX=1` for reduced-scale smoke runs on loaded CI
//!   hosts, where estimation CPU time can drown the simulated device).
//!
//! ```sh
//! cargo run --release -p abae_bench --bin governor
//! ABAE_GOVERNOR_QUERIES=2 ABAE_GOVERNOR_RELAX=1 \
//!     cargo run --release -p abae_bench --bin governor
//! ```

use abae_bench::artifact::emit_artifact;
use abae_bench::config::ExpConfig;
use abae_core::pipeline::ExecOptions;
use abae_data::Table;
use abae_query::{Engine, QueryResult};
use std::time::{Duration, Instant};

const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Simulated serialized device overhead per oracle invocation, in µs.
const OVERHEAD_US: u64 = 100;

/// Pipeline batch size.
const PIPELINE_BATCH: usize = 20;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Deterministic synthetic corpus: 25% positives, an informative proxy,
/// values cycling 0..9 — the same shape the query-layer tests use, sized
/// so stratification is non-trivial but table setup is instant.
fn table(n: usize) -> Table {
    let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
    let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
    Table::builder("emails", values).predicate("is_spam", labels, proxy).build().unwrap()
}

/// One engine per (mode, sweep point) so the batcher counters in the
/// artifact are that point's alone. A small pipeline batch size keeps the
/// invocation count high — the regime where per-invocation overhead is
/// the bottleneck and coalescing has something to amortize.
fn build_engine(n: usize, seed: u64, coalesce: bool) -> Engine {
    Engine::builder()
        .table(table(n))
        .seed(seed)
        .bootstrap_trials(20)
        .exec(ExecOptions::default().with_batch_size(PIPELINE_BATCH))
        .governor(coalesce)
        .oracle_overhead(Duration::from_micros(OVERHEAD_US))
        .build()
}

/// Runs `queries` per session across `sessions` concurrent threads
/// (session ids 1..=sessions, so the same ids replay in both modes) and
/// returns (elapsed, per-session result sequences).
fn run_mode(
    engine: &Engine,
    sessions: usize,
    queries: usize,
    sql: &str,
) -> (Duration, Vec<Vec<QueryResult>>) {
    let mut handles: Vec<_> =
        (0..sessions).map(|i| engine.session_with_id(i as u64 + 1)).collect();
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let join: Vec<_> = handles
            .iter_mut()
            .map(|session| {
                scope.spawn(move || {
                    (0..queries)
                        .map(|_| session.execute(sql).expect("query runs"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        join.into_iter().map(|h| h.join().expect("session thread")).collect::<Vec<_>>()
    });
    (start.elapsed(), results)
}

fn labeled_records(results: &[Vec<QueryResult>]) -> u64 {
    results.iter().flatten().map(|r| r.oracle_calls).sum()
}

fn main() {
    let cfg = ExpConfig::from_env();
    cfg.banner(
        "governor — aggregate labeled-records/sec, oracle batcher off vs on",
        "beyond the paper: cross-session invocation coalescing (§5.1 cost model)",
    );
    let records = (20_000.0 * cfg.scale.max(0.05)) as usize;
    let queries = env_u64("ABAE_GOVERNOR_QUERIES", 6) as usize;
    let budget = env_u64("ABAE_GOVERNOR_BUDGET", 1500);
    let default_scale =
        cfg.scale == ExpConfig::default().scale && (queries, budget) == (6, 1500);
    let relax = std::env::var("ABAE_GOVERNOR_RELAX").is_ok_and(|v| v == "1");
    let sql =
        format!("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT {budget}");
    eprintln!(
        "# {records} records, {queries} queries/session at budget {budget}, \
         {OVERHEAD_US}µs serialized overhead per invocation, pipeline batch {PIPELINE_BATCH}"
    );

    let mut points = Vec::new();
    let mut speedup_at_8 = 0.0_f64;
    for &sessions in &SESSION_COUNTS {
        let off = build_engine(records, cfg.seed, false);
        let (off_elapsed, off_results) = run_mode(&off, sessions, queries, &sql);
        let off_stats = off.stats();

        let on = build_engine(records, cfg.seed, true);
        let (on_elapsed, on_results) = run_mode(&on, sessions, queries, &sql);
        let on_stats = on.stats();

        // The determinism contract, checked on every sweep point: same
        // session id + same seed → the same answers to the last bit,
        // whatever the invocation grouping did to the clock.
        assert_eq!(
            off_results, on_results,
            "per-session results must be bit-identical with the governor on"
        );

        let labeled = labeled_records(&on_results);
        let off_rps = labeled as f64 / off_elapsed.as_secs_f64();
        let on_rps = labeled as f64 / on_elapsed.as_secs_f64();
        let speedup = on_rps / off_rps;
        if sessions == 8 {
            speedup_at_8 = speedup;
        }
        let spend: Vec<String> = on_stats
            .per_session_spend
            .iter()
            .map(|(id, records)| format!("{{\"session\":{id},\"records\":{records}}}"))
            .collect();
        let point = format!(
            "{{\"bench\":\"governor\",\"sessions\":{sessions},\
             \"labeled_records\":{labeled},\
             \"off_elapsed_ms\":{:.3},\"on_elapsed_ms\":{:.3},\
             \"off_records_per_sec\":{off_rps:.1},\"on_records_per_sec\":{on_rps:.1},\
             \"speedup\":{speedup:.3},\
             \"off_invocations\":{},\"on_invocations\":{},\
             \"shared_batches\":{},\"coalesced_requests\":{},\
             \"bit_identical\":true,\
             \"per_session_spend\":[{}]}}",
            off_elapsed.as_secs_f64() * 1e3,
            on_elapsed.as_secs_f64() * 1e3,
            off_stats.batcher.invocations,
            on_stats.batcher.invocations,
            on_stats.batcher.shared_batches,
            on_stats.batcher.coalesced_requests,
            spend.join(",")
        );
        println!("{point}");
        points.push(point);
    }

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    emit_artifact(
        "governor",
        &format!(
            "{{\"bench\":\"governor\",\"records\":{records},\"budget\":{budget},\
             \"queries_per_session\":{queries},\"overhead_us\":{OVERHEAD_US},\
             \"pipeline_batch\":{PIPELINE_BATCH},\"seed\":{},\"nproc\":{nproc},\
             \"speedup_at_8_sessions\":{speedup_at_8:.3},\
             \"points\":[{}]}}",
            cfg.seed,
            points.join(",")
        ),
        default_scale,
    );
    eprintln!(
        "# expected shape: off-mode throughput is flat (the serialized device charges \
         every session's every batch), on-mode throughput grows with session count as \
         concurrent requests share invocations; the 8-session speedup is the headline."
    );
    if relax {
        eprintln!("# ABAE_GOVERNOR_RELAX=1: skipping the ≥2x speedup assertion");
    } else {
        assert!(
            speedup_at_8 >= 2.0,
            "coalescing must deliver >=2x aggregate throughput at 8 sessions \
             (measured {speedup_at_8:.3}x)"
        );
    }
}
