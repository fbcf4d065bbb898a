//! Oracle-labeling throughput sweep: records/sec vs threads × batch size.
//!
//! The paper counts cost in oracle invocations because the oracle (a DNN
//! served in batches) dominates wall-clock time by orders of magnitude
//! (§5.1). This sweep makes that wall-clock dimension visible offline: a
//! [`FnOracle`] simulates a fixed per-invocation inference latency
//! (default 100µs, the ballpark of an amortized batched GPU invocation),
//! and the full two-stage algorithm runs under every (threads, batch size)
//! combination of the `core::pipeline` executor.
//!
//! What to expect: records/sec scales near-linearly with threads until the
//! batch count per stratum-stage stops covering the workers; at 8 threads
//! the speedup over 1 thread should exceed 4× (asserted by
//! `tests/parallel_determinism.rs` at test scale). The estimate column is
//! constant down the table — scheduling never changes results.
//!
//! ```sh
//! cargo run --release -p abae_bench --bin throughput
//! ABAE_LATENCY_US=500 ABAE_BUDGET=2000 cargo run --release -p abae_bench --bin throughput
//! ```

use abae_bench::artifact::emit_artifact;
use abae_bench::ExpConfig;
use abae_core::pipeline::ExecOptions;
use abae_core::{run_abae, AbaeConfig, Aggregate};
use abae_data::{FnOracle, Labeled, Oracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let exp = ExpConfig::from_env();
    exp.banner("throughput", "§5.1 cost model: the oracle is a batched DNN");
    let n = env_usize("ABAE_RECORDS", 50_000);
    let budget = env_usize("ABAE_BUDGET", 4_000);
    let latency_us = env_usize("ABAE_LATENCY_US", 100);
    let latency = Duration::from_micros(latency_us as u64);
    let default_scale = (n, budget, latency_us) == (50_000, 4_000, 100);
    let seed = exp.seed;

    // The population from the two-stage doctest: proxy orders positives
    // perfectly, statistic rises with the index.
    let scores: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
    let half = n / 2;

    println!("# throughput — records/sec vs threads x batch size");
    println!(
        "# {n} records, budget {budget}, simulated oracle latency {}µs/invocation \
         (override: ABAE_RECORDS/ABAE_BUDGET/ABAE_LATENCY_US)",
        latency.as_micros()
    );
    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>10} {:>14}",
        "threads", "batch", "elapsed_ms", "records/sec", "speedup", "estimate"
    );

    let mut baseline_rate: Option<f64> = None;
    let mut points: Vec<String> = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        for &batch in &[32usize, 128, 512] {
            let oracle = FnOracle::new(move |i: usize| Labeled {
                matches: i >= half,
                value: i as f64,
            })
            .with_latency(latency);
            let cfg = AbaeConfig {
                budget,
                exec: ExecOptions::new(threads, batch),
                ..Default::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let start = Instant::now();
            let result =
                run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).expect("valid config");
            let elapsed = start.elapsed();
            assert_eq!(oracle.calls(), result.oracle_calls, "atomic accounting must agree");

            let rate = result.oracle_calls as f64 / elapsed.as_secs_f64();
            let speedup = match baseline_rate {
                Some(b) => rate / b,
                None => {
                    baseline_rate = Some(rate);
                    1.0
                }
            };
            println!(
                "{threads:>8} {batch:>8} {:>12.1} {:>14.0} {:>9.2}x {:>14.2}",
                elapsed.as_secs_f64() * 1e3,
                rate,
                speedup,
                result.estimate,
            );
            points.push(format!(
                "{{\"threads\":{threads},\"batch\":{batch},\"elapsed_ms\":{:.3},\
                 \"records_per_sec\":{:.1},\"speedup\":{:.3},\"estimate\":{}}}",
                elapsed.as_secs_f64() * 1e3,
                rate,
                speedup,
                result.estimate,
            ));
        }
    }
    println!("# speedup is relative to the first row (threads=1, batch=32)");
    emit_artifact(
        "throughput",
        &format!(
            "{{\"bench\":\"throughput\",\"records\":{n},\"budget\":{budget},\
             \"latency_us\":{},\"seed\":{seed},\"points\":[{}]}}",
            latency.as_micros(),
            points.join(",")
        ),
        default_scale,
    );
}
