//! End-to-end and per-layer benchmark of the ABae engine.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload refresh_1m --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three seeded closed-loop workloads drive the engine from outside, as a
//! client would: in process through `Engine`/`Session`/`Prepared`, and
//! over loopback through `abae_server::Server` and `WireClient`.
//!
//! * `refresh_1m` — a dashboard re-running prepared statements over 1.19M
//!   records ([`refresh`]);
//! * `adhoc_wire` — two analysts sending ad-hoc SELECTs over pgwire
//!   ([`adhoc`]);
//! * `anytime_until` — anytime `UNTIL CI WIDTH` queries, scalar and
//!   `GROUP BY`, consuming every snapshot ([`anytime`]).
//!
//! Each run replays a fixed statement sequence made from `--seed` (its
//! length scales with `--seconds`), after setting up several times: set-up
//! is real work (table builds, proxy training, warm-up) and `setup_s` is
//! the median of the set-ups. Every answer is checked; the last line of
//! stdout is `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also replays its statements through each layer's public entry
//! points with spans around every call and reports per-layer metrics
//! instead (spans are written to `benchmark/traces/`). Earlier stdout
//! lines, prefixed `#`, record the run's conditions and layer breakdown.

mod adhoc;
mod anytime;
mod common;
mod refresh;
mod replay;
mod report;
mod trace;

use abae_core::BatcherStats;
use common::{Kind, Phase, SetupTimes};
use replay::Counts;
use report::{metric, Json};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Layers, Span};

/// Samples beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Target length of the timed phase; sets the statement count.
    pub seconds: u64,
    /// Whether to run the traced replay and report per-layer metrics.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(args)
}

/// What one workload run hands back.
pub struct Report {
    /// The untraced timed phase.
    pub phase: Phase,
    /// Every set-up of the run.
    pub setups: Vec<SetupTimes>,
    /// Run conditions printed beside the metrics.
    pub conditions: Json,
    /// The traced replay, with `--trace 1`.
    pub traced: Option<Traced>,
}

/// The traced replay's per-statement layers and what goes with them.
#[derive(Debug, Default)]
pub struct Traced {
    /// Kind and layers of every replayed statement.
    pub stmts: Vec<(Kind, Layers)>,
    /// Wire round trip minus in-process run, per statement (`adhoc_wire`).
    pub wire_ms: Vec<f64>,
    /// Batcher deltas over the replay: requests, invocations, coalesced
    /// requests.
    pub batcher: [u64; 3],
    /// `adhoc_wire`'s oracle-plus-admission time per labeled record, ms.
    pub per_record_ms: f64,
    /// Replayed answers (or snapshot counts) that differ from the timed
    /// phase's.
    pub mismatches: u64,
    /// Every span, written out at the end.
    pub spans: Vec<Span>,
}

impl Traced {
    /// Adds statement `stmt`'s attributed layers, completed with the counts
    /// its replay reported and the records its plan scored.
    pub fn push(
        &mut self,
        kind: Kind,
        layers: &BTreeMap<u32, Layers>,
        stmt: u32,
        counts: &Counts,
        scored: f64,
    ) {
        let mut l = layers.get(&stmt).cloned().unwrap_or_default();
        l.records_scored = scored;
        l.records_sorted = counts.records_sorted;
        l.resampled = counts.resampled;
        self.stmts.push((kind, l));
    }

    /// Records the batcher's counter deltas over the replay.
    pub fn set_batcher(&mut self, before: BatcherStats, after: BatcherStats) {
        self.batcher = [
            after.requests - before.requests,
            after.invocations - before.invocations,
            after.coalesced_requests - before.coalesced_requests,
        ];
    }
}

/// Sets up `count` times, the first timed from process start, keeping the
/// last set-up's product and every set-up's times. Each product is
/// dropped before the next set-up starts.
pub fn set_up_repeatedly<T>(
    process_start: Instant,
    count: usize,
    mut set_up: impl FnMut(Instant) -> (T, SetupTimes),
) -> (T, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for i in 0..count {
        drop(last.take());
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (product, t) = set_up(start);
        times.push(t);
        last = Some(product);
    }
    (last.expect("at least one set-up"), times)
}

/// Conditions shared by every workload's report.
pub fn conditions(tables: &[(&str, usize)], statements: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut t = Json::obj();
    for (name, len) in tables {
        t.push(name, Json::Int(*len as u64));
    }
    Json::obj()
        .with("nproc", Json::Int(nproc))
        .with("tables", t)
        .with("statements", Json::Str(statements.to_string()))
        .with(
            "exec",
            Json::obj()
                .with("threads", Json::Int(common::EXEC.threads as u64))
                .with("batch_size", Json::Int(common::EXEC.batch_size as u64)),
        )
}

fn end_to_end(report: &Report) -> Json {
    let p = &report.phase;
    let answered = p.attempted.max(1) as f64;
    let setup = &report.setups[report.setups.len() - 1];
    Json::obj()
        .with(
            "latency_p50_ms",
            metric(report::median(&p.latencies_ms), "ms"),
        )
        .with(
            "latency_tail_ms",
            metric(report::tail(&p.latencies_ms, TAIL_BEYOND).1, "ms"),
        )
        .with(
            "throughput_qps",
            metric(p.attempted as f64 / p.wall_s, "1/s"),
        )
        .with(
            "oracle_calls_per_query",
            metric(
                (setup.oracle_calls + p.oracle_calls) as f64 / answered,
                "calls",
            ),
        )
        .with("ci_width_rel", metric(p.tally.width_rel(), "ratio"))
        .with("ci_coverage", metric(p.tally.coverage(), "ratio"))
        .with(
            "setup_s",
            metric(
                report::median(&report.setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
                "s",
            ),
        )
        .with("peak_rss_mb", metric(report::peak_rss_mb(), "MB"))
}

/// Median of one layer field over the statements of `kind`.
fn med(t: &Traced, kind: Kind, f: impl Fn(&Layers) -> f64) -> f64 {
    let v: Vec<f64> = t
        .stmts
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, l)| f(l))
        .collect();
    report::median(&v)
}

fn per_layer(report: &Report, t: &Traced) -> Json {
    let s = Kind::Scalar;
    let g = Kind::GroupBy;
    let sum = |f: fn(&Layers) -> f64| t.stmts.iter().map(|(_, l)| f(l)).sum::<f64>();
    let n = t.stmts.len().max(1) as f64;
    let equiv = |ms: f64| {
        if t.per_record_ms > 0.0 {
            ms / t.per_record_ms
        } else {
            0.0
        }
    };
    let setups = |f: fn(&SetupTimes) -> f64| {
        report::median(&report.setups.iter().map(f).collect::<Vec<_>>())
    };
    let untraced_p50 = report::median(&report.phase.latencies_ms);
    let traced_p50 = report::median(&t.stmts.iter().map(|(_, l)| l.root_ms).collect::<Vec<_>>());
    let unattributed: Vec<f64> = t
        .stmts
        .iter()
        .map(|(_, l)| 100.0 * l.unattributed_ms / l.root_ms.max(1e-9))
        .collect();
    let strata = med(t, s, |l| l.strata_ms);
    let bootstrap = med(t, s, |l| l.bootstrap_ms);
    let snapshot = med(t, s, |l| l.snapshot_ms);
    let draws_total = sum(|l| l.draws);
    Json::obj()
        .with("strata.ms", metric(strata, "ms"))
        .with(
            "strata.records_sorted",
            metric(med(t, s, |l| l.records_sorted), "count"),
        )
        .with("strata.oracle_call_equiv", metric(equiv(strata), "calls"))
        .with("bootstrap.ms", metric(bootstrap, "ms"))
        .with(
            "bootstrap.resampled",
            metric(med(t, s, |l| l.resampled), "count"),
        )
        .with(
            "bootstrap.oracle_call_equiv",
            metric(equiv(bootstrap), "calls"),
        )
        .with("snapshot.ms", metric(snapshot, "ms"))
        .with(
            "snapshot.count",
            metric(med(t, s, |l| l.snapshots), "count"),
        )
        .with(
            "snapshot.oracle_call_equiv",
            metric(equiv(snapshot), "calls"),
        )
        .with(
            "groupby.strata_ms",
            metric(med(t, g, |l| l.strata_ms), "ms"),
        )
        .with(
            "groupby.bootstrap_ms",
            metric(med(t, g, |l| l.bootstrap_ms), "ms"),
        )
        .with("query.parse_us", metric(med(t, s, |l| l.parse_us), "us"))
        .with("query.plan_us", metric(med(t, s, |l| l.plan_us), "us"))
        .with(
            "query.records_scored",
            metric(med(t, s, |l| l.records_scored), "count"),
        )
        .with("wire.ms", metric(report::median(&t.wire_ms), "ms"))
        .with("batcher.wait_ms", metric(med(t, s, |l| l.batcher_ms), "ms"))
        .with(
            "batcher.invocations",
            metric(t.batcher[1] as f64 / n, "count"),
        )
        .with(
            "batcher.shared_ratio",
            metric(t.batcher[2] as f64 / t.batcher[0].max(1) as f64, "ratio"),
        )
        .with("oracle.ms", metric(med(t, s, |l| l.oracle_ms), "ms"))
        .with(
            "oracle.calls",
            metric(med(t, s, |l| l.oracle_calls), "count"),
        )
        .with(
            "oracle.batches",
            metric(med(t, s, |l| l.oracle_batches), "count"),
        )
        .with("cache.ms", metric(med(t, s, |l| l.cache_ms), "ms"))
        .with(
            "cache.hit_ratio",
            metric(sum(|l| l.cache_hits) / draws_total.max(1.0), "ratio"),
        )
        .with("sample.ms", metric(med(t, s, |l| l.sample_ms), "ms"))
        .with("sample.draws", metric(med(t, s, |l| l.draws), "count"))
        .with("setup.table_s", metric(setups(|x| x.table_s), "s"))
        .with("setup.proxy_s", metric(setups(|x| x.proxy_s), "s"))
        .with("setup.warmup_s", metric(setups(|x| x.warmup_s), "s"))
        .with(
            "trace.unattributed_pct",
            metric(report::median(&unattributed), "%"),
        )
        .with(
            "trace.overhead_pct",
            metric(100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
        )
}

/// Every layer field's median, per statement kind, for the `#` line.
fn breakdown(t: &Traced) -> Json {
    type Field = (&'static str, fn(&Layers) -> f64);
    let fields: [Field; 19] = [
        ("root_ms", |l| l.root_ms),
        ("parse_us", |l| l.parse_us),
        ("plan_us", |l| l.plan_us),
        ("strata_ms", |l| l.strata_ms),
        ("sample_ms", |l| l.sample_ms),
        ("bootstrap_ms", |l| l.bootstrap_ms),
        ("snapshot_ms", |l| l.snapshot_ms),
        ("snapshots", |l| l.snapshots),
        ("cache_ms", |l| l.cache_ms),
        ("batcher_ms", |l| l.batcher_ms),
        ("oracle_ms", |l| l.oracle_ms),
        ("draws", |l| l.draws),
        ("cache_hits", |l| l.cache_hits),
        ("oracle_calls", |l| l.oracle_calls),
        ("oracle_batches", |l| l.oracle_batches),
        ("unattributed_ms", |l| l.unattributed_ms),
        ("records_scored", |l| l.records_scored),
        ("records_sorted", |l| l.records_sorted),
        ("resampled", |l| l.resampled),
    ];
    let mut out = Json::obj();
    for (kind, name) in [(Kind::Scalar, "scalar"), (Kind::GroupBy, "groupby")] {
        let count = t.stmts.iter().filter(|(k, _)| *k == kind).count();
        if count == 0 {
            continue;
        }
        let mut k = Json::obj().with("statements", Json::Int(count as u64));
        for (field, f) in fields {
            k.push(field, Json::Num(med(t, kind, f)));
        }
        out.push(name, k);
    }
    out.with("per_record_ms", Json::Num(t.per_record_ms))
        .with("mismatches", Json::Int(t.mismatches))
        .with(
            "attribution",
            Json::Str(
                "self time = span minus children; progressive executors bundle \
                 stratification, so strata is timed again on the same scores outside \
                 the statement and subtracted; snapshot = end of a chunk's labeling to \
                 its snapshot callback; oracle equivalents divide by adhoc_wire's \
                 oracle-plus-admission ms per labeled record"
                    .into(),
            ),
        )
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("abae-benchmark: {e}");
            eprintln!(
                "usage: abae-benchmark --workload <refresh_1m|adhoc_wire|anytime_until> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "refresh_1m" => refresh::run(&args, process_start),
        "adhoc_wire" => adhoc::run(&args, process_start),
        "anytime_until" => anytime::run(&args, process_start),
        other => {
            eprintln!("abae-benchmark: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let p = &report.phase;
    let (pct, _) = report::tail(&p.latencies_ms, TAIL_BEYOND);
    let conditions = report
        .conditions
        .clone()
        .with("workload", Json::Str(args.workload.clone()))
        .with("seed", Json::Int(args.seed))
        .with("seconds", Json::Int(args.seconds))
        .with("trace", Json::Bool(args.trace))
        .with("setups", Json::Int(report.setups.len() as u64))
        .with("statements_timed", Json::Int(p.attempted))
        .with("tail_percentile", Json::Num(pct))
        .with("tail_samples_beyond", Json::Int(TAIL_BEYOND as u64))
        .with("tail_sample_count", Json::Int(p.latencies_ms.len() as u64))
        .with(
            "error_ratio",
            Json::Num(p.failed as f64 / p.attempted.max(1) as f64),
        )
        .with("ci_rows", Json::Int(p.tally.rows()))
        .with(
            "oracle_calls_timed_per_query",
            Json::Num(p.oracle_calls as f64 / p.attempted.max(1) as f64),
        )
        .with(
            "setup_oracle_calls",
            Json::Int(report.setups[report.setups.len() - 1].oracle_calls),
        )
        .with("wall_s", Json::Num(p.wall_s));
    println!("# conditions {}", conditions.render());
    if let Some(e) = &p.error {
        println!("# check failed: {e}");
    }
    let mut correct = p.error.is_none() && p.failed == 0;
    let metrics = match &report.traced {
        Some(t) => {
            println!("# layers {}", breakdown(t).render());
            let path = std::path::PathBuf::from(format!(
                "benchmark/traces/{}-seed{}.jsonl",
                args.workload, args.seed
            ));
            if let Err(e) = trace::write_spans(&path, &t.spans) {
                eprintln!("abae-benchmark: cannot write {}: {e}", path.display());
            }
            if t.mismatches > 0 {
                println!(
                    "# traced replay differs from the engine on {} statements",
                    t.mismatches
                );
                correct = false;
            }
            per_layer(&report, t)
        }
        None => end_to_end(&report),
    };
    let result = Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::Int(p.attempted))
        .with("failed", Json::Int(p.failed))
        .with("metrics", metrics);
    println!("{}", result.render());
}
