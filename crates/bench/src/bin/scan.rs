//! Scan/score throughput: row-materializing path vs columnar hot path.
//!
//! The columnar refactor exists for exactly one reason — the pre-oracle
//! phases (proxy scoring, predicate evaluation, stratification, exact
//! baselines) touch every record, and a path that materializes an owned
//! `RowRecord` per record (heap-allocated label/proxy vectors, cloned
//! group and text strings) pays allocator traffic the kernels never need.
//! This bench pins the gap per column type:
//!
//! * `f64_sum`    — sum of the statistic column (exact-baseline kernel).
//! * `bool_and`   — conjunction count of two predicates' labels
//!   (row: branchy per-record `&&`; columnar: word-wise bitmap AND).
//! * `score_max`  — combined proxy score for `p0 ∨ p1`
//!   (row: per-record `score_at`; columnar: `combined_scores_vec`).
//! * `dict_count` — per-group record counts
//!   (row: `Option<String>` clone + compare; columnar: u32 code scan).
//! * `str_bytes`  — total text byte length
//!   (row: `Option<String>` clone; columnar: arena offsets).
//!
//! Both paths compute identical answers (asserted); only the storage
//! traversal differs. The tracked `BENCH_scan.json` must show ≥5× on the
//! geometric-mean speedup — the differential suite in `tests/columnar.rs`
//! pins that the fast path is also the *same* path, bit for bit.
//!
//! ```sh
//! cargo run --release -p abae_bench --bin scan
//! ABAE_RECORDS=20000 ABAE_REPS=2 cargo run --release -p abae_bench --bin scan
//! ```

use abae_bench::artifact::{emit_artifact, json_f64};
use abae_bench::ExpConfig;
use abae_core::multipred::PredExpr;
use abae_data::emulators::EmulatorOptions;
use abae_data::registry::build_dataset;
use abae_data::table::Table;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Measured throughput of one workload under both storage paths.
struct Measurement {
    name: &'static str,
    row_recs_per_sec: f64,
    col_recs_per_sec: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.col_recs_per_sec / self.row_recs_per_sec
    }
}

/// Times `f` over `reps` repetitions and returns records/sec, folding the
/// checksum into a black box so the work is not optimized away.
fn time_path(n: usize, reps: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut checksum = 0.0;
    let start = Instant::now();
    for _ in 0..reps {
        checksum += std::hint::black_box(f());
    }
    let secs = start.elapsed().as_secs_f64();
    ((n * reps) as f64 / secs, checksum / reps as f64)
}

fn measure(
    name: &'static str,
    n: usize,
    reps: usize,
    row: impl FnMut() -> f64,
    col: impl FnMut() -> f64,
) -> Measurement {
    let (row_rate, row_check) = time_path(n, reps, row);
    let (col_rate, col_check) = time_path(n, reps, col);
    assert_eq!(
        row_check.to_bits(),
        col_check.to_bits(),
        "{name}: row and columnar paths disagree"
    );
    Measurement { name, row_recs_per_sec: row_rate, col_recs_per_sec: col_rate }
}

fn main() {
    let exp = ExpConfig::from_env();
    exp.banner("scan", "columnar hot path: pre-oracle phases touch every record");
    let n = env_usize("ABAE_RECORDS", 200_000);
    let reps = env_usize("ABAE_REPS", 20);
    let default_scale = (n, reps) == (200_000, 20);

    // trec05p carries every column type: f64 statistic, three predicates
    // (bool labels + f64 proxies), and a text column. A synthetic two-group
    // key is attached for the dict workload.
    let base = build_dataset(
        "trec05p",
        &EmulatorOptions { scale: n as f64 / 52_578.0, seed: exp.seed },
    )
    .expect("known dataset");
    let table = with_groups(&base);
    let n = table.len();
    println!("# scan — records/sec, row-materializing vs columnar ({n} records, {reps} reps)");

    let expr = PredExpr::or(PredExpr::pred(0), PredExpr::pred(1));
    let proxies: Vec<&[f64]> = table.predicates().iter().map(|p| p.proxy()).collect();
    let labels: Vec<_> = table.predicates().iter().map(|p| p.labels().bitmap()).collect();
    let gk = table.group_key().expect("group key attached");
    let group0 = gk.names()[0].clone();
    let texts = table.texts().expect("trec05p carries texts");

    let results = vec![
        measure(
            "f64_sum",
            n,
            reps,
            || (0..n).map(|i| table.row(i).statistic).sum(),
            || table.statistics().iter().sum(),
        ),
        measure(
            "bool_and",
            n,
            reps,
            || (0..n).map(|i| table.row(i)).filter(|r| r.labels[0] && r.labels[1]).count() as f64,
            || labels[0].and(labels[1]).count_ones() as f64,
        ),
        measure(
            "score_max",
            n,
            reps,
            || {
                (0..n)
                    .map(|i| {
                        let r = table.row(i);
                        let views: Vec<&[f64]> =
                            vec![std::slice::from_ref(&r.proxies[0]), std::slice::from_ref(&r.proxies[1])];
                        expr.score_at(&views, 0)
                    })
                    .sum()
            },
            || expr.combined_scores_vec(&proxies).iter().sum(),
        ),
        measure(
            "dict_count",
            n,
            reps,
            || (0..n).map(|i| table.row(i)).filter(|r| r.group.as_deref() == Some(&group0)).count()
                as f64,
            || gk.dict().count_code(0) as f64,
        ),
        measure(
            "str_bytes",
            n,
            reps,
            || (0..n).map(|i| table.row(i).text.map_or(0, |t| t.len())).sum::<usize>() as f64,
            // Per-record byte lengths come straight off the offsets array —
            // no need to touch (or re-validate) the UTF-8 arena.
            || texts.offsets().windows(2).map(|w| (w[1] - w[0]) as usize).sum::<usize>() as f64,
        ),
    ];

    println!("# {:<12} {:>14} {:>14} {:>9}", "workload", "row rec/s", "columnar rec/s", "speedup");
    for m in &results {
        println!(
            "  {:<12} {:>14.0} {:>14.0} {:>8.1}x",
            m.name, m.row_recs_per_sec, m.col_recs_per_sec, m.speedup()
        );
    }
    let geomean =
        (results.iter().map(|m| m.speedup().ln()).sum::<f64>() / results.len() as f64).exp();
    println!("# geometric-mean speedup: {geomean:.1}x (target ≥5x)");

    let points: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "{{\"workload\":\"{}\",\"row_recs_per_sec\":{},\"columnar_recs_per_sec\":{},\"speedup\":{}}}",
                m.name,
                json_f64(m.row_recs_per_sec),
                json_f64(m.col_recs_per_sec),
                json_f64(m.speedup())
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let json = format!(
        "{{\"bench\":\"scan\",\"records\":{n},\"reps\":{reps},\"nproc\":{nproc},\
         \"geomean_speedup\":{},\"workloads\":[{}]}}",
        json_f64(geomean),
        points.join(",")
    );
    emit_artifact("scan", &json, default_scale);
}

/// Attaches a deterministic two-group key (by statistic parity) so the
/// dict workload has something to scan; every other column is untouched.
fn with_groups(base: &Table) -> Table {
    let names = vec!["even".to_string(), "odd".to_string()];
    let key: Vec<Option<u16>> =
        base.statistics().iter().map(|&v| Some((v as u64 % 2) as u16)).collect();
    let mut b = Table::builder(base.name(), base.statistics().to_vec());
    for p in base.predicates() {
        b = b.predicate_columns(p.name(), p.labels().clone(), p.proxy_column().clone());
    }
    b = b.group_key(names, key);
    if let Some(t) = base.texts() {
        b = b.texts_column(t.clone());
    }
    b.build().expect("valid table")
}
