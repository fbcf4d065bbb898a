//! Row-vs-columnar differential suite: the pin that holds the storage
//! refactor honest.
//!
//! The columnar layout (packed label bitmaps, dictionary-encoded groups,
//! arena strings, Arc-shared vectors) exists for scan speed; correctness
//! demands it be **invisible**. Three storage variants of the same logical
//! table —
//!
//! 1. `built` — constructed directly through `TableBuilder`,
//! 2. `rows` — shredded to owned [`RowRecord`]s via the compatibility row
//!    view and reassembled with `Table::from_rows`,
//! 3. `binary` — saved to the `.abcol` on-disk format and loaded back —
//!
//! must produce **bit-identical** estimates, confidence intervals, and
//! oracle spend from every executor (two-stage multi-aggregate, multi-
//! predicate, group-by, adaptive, progressive snapshots), under every
//! scheduling configuration (threads × batch size). Any divergence means
//! the storage path leaked into the math.
//!
//! The scheduling matrix here mirrors CI's `ABAE_THREADS`/`ABAE_BATCH`
//! jobs: threads ∈ {1, 8} × batch ∈ {1, 4096}.

use abae::core::adaptive::{run_adaptive, AdaptiveConfig};
use abae::core::groupby::{groupby_single_oracle, GroupByConfig};
use abae::core::multipred::{run_multipred, PredExpr};
use abae::core::pipeline::ExecOptions;
use abae::core::{
    run_abae_multi_progressive, run_abae_stratified, AbaeConfig, Aggregate, BootstrapConfig,
    ProgressiveOptions, Snapshot, Stratification,
};
use abae::data::{Oracle, PredicateOracle, SingleGroupOracle, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scheduling matrix (mirrors the CI thread/chunk matrix jobs).
const THREADS: [usize; 2] = [1, 8];
const BATCHES: [usize; 2] = [1, 4096];

/// A table exercising every column type: statistic, three predicates with
/// proxy-correlated labels, a three-group dictionary key with unkeyed
/// records, and a text column.
fn rich_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = Vec::with_capacity(n);
    let mut labels: Vec<Vec<bool>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
    let mut proxies: Vec<Vec<f64>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
    let mut key = Vec::with_capacity(n);
    let mut texts = Vec::with_capacity(n);
    for i in 0..n {
        stats.push(rng.gen_range(0.0..40.0));
        for p in 0..3 {
            let s: f64 = rng.gen();
            proxies[p].push(s);
            labels[p].push(rng.gen::<f64>() < 0.15 + 0.7 * s);
        }
        let u: f64 = rng.gen();
        key.push(if u < 0.2 {
            Some(0u16)
        } else if u < 0.45 {
            Some(1)
        } else if u < 0.55 {
            Some(2)
        } else {
            None
        });
        texts.push(if i % 7 == 0 { String::new() } else { format!("récord {i}") });
    }
    let mut b = Table::builder("differential", stats);
    for (p, name) in ["p0", "p1", "p2"].iter().enumerate() {
        b = b.predicate(*name, std::mem::take(&mut labels[p]), std::mem::take(&mut proxies[p]));
    }
    b.group_key(vec!["a".into(), "b".into(), "c".into()], key)
        .texts(texts)
        .build()
        .expect("valid table")
}

/// The three storage variants of one logical table.
fn variants(t: &Table) -> Vec<(&'static str, Table)> {
    let schema = t.schema();
    let rows = Table::from_rows(t.name(), &schema, t.rows()).expect("row roundtrip");
    // Tests run on parallel threads: each call gets a file of its own.
    static NEXT_FILE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("abae-columnar-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = NEXT_FILE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!("{}-{file}.abcol", t.name()));
    t.save_binary(&path).expect("save");
    let binary = Table::load_binary(t.name(), &path).expect("load");
    let _ = std::fs::remove_file(&path);
    vec![("built", t.clone()), ("rows", rows), ("binary", binary)]
}

/// Asserts two multi-aggregate results agree to the bit.
fn assert_same_multi(
    reference: &abae::core::MultiAggResult,
    got: &abae::core::MultiAggResult,
    what: &str,
) {
    assert_eq!(reference.oracle_calls, got.oracle_calls, "{what}: oracle_calls differ");
    assert_eq!(reference.answers.len(), got.answers.len(), "{what}: answer count differs");
    for (a, b) in reference.answers.iter().zip(&got.answers) {
        assert_eq!(a.agg, b.agg, "{what}: aggregate order differs");
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "{what}: {:?} estimate differs ({} vs {})",
            a.agg,
            a.estimate,
            b.estimate
        );
        match (&a.ci, &b.ci) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.lo.to_bits(), y.lo.to_bits(), "{what}: CI lo differs");
                assert_eq!(x.hi.to_bits(), y.hi.to_bits(), "{what}: CI hi differs");
            }
            _ => panic!("{what}: CI presence differs"),
        }
    }
}

#[test]
fn storage_variants_are_equal_tables() {
    let t = rich_table(4000, 0xD1FF);
    for (name, v) in variants(&t) {
        assert_eq!(v, t, "variant {name} is not the same logical table");
    }
}

#[test]
fn two_stage_is_storage_and_schedule_invariant() {
    let t = rich_table(4000, 1);
    let aggs = [Aggregate::Avg, Aggregate::Sum, Aggregate::Count];
    let run = |table: &Table, threads: usize, batch: usize| {
        let oracle = PredicateOracle::new(table, "p0").expect("predicate");
        let scores = table.predicate("p0").expect("predicate").proxy();
        let cfg = AbaeConfig {
            strata: 4,
            budget: 900,
            bootstrap: BootstrapConfig { trials: 60, alpha: 0.05 },
            exec: ExecOptions::new(threads, batch),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0xABAE);
        let strat = Stratification::by_proxy_quantile(scores, cfg.strata);
        run_abae_stratified(&strat, &oracle, &cfg, &aggs, None, &mut rng, |_| {})
            .expect("valid config")
    };
    let reference = run(&t, 1, 64);
    for (name, v) in variants(&t) {
        for threads in THREADS {
            for batch in BATCHES {
                let what = format!("two_stage/{name}/t{threads}/b{batch}");
                assert_same_multi(&reference, &run(&v, threads, batch), &what);
            }
        }
    }
}

#[test]
fn multipred_is_storage_and_schedule_invariant() {
    let t = rich_table(4000, 2);
    let expr = PredExpr::or(
        PredExpr::and(PredExpr::pred(0), PredExpr::not(PredExpr::pred(1))),
        PredExpr::pred(2),
    );
    let run = |table: &Table, threads: usize, batch: usize| {
        let cfg = AbaeConfig {
            budget: 800,
            bootstrap: BootstrapConfig { trials: 40, alpha: 0.05 },
            exec: ExecOptions::new(threads, batch),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        run_multipred(table, &expr, &cfg, Aggregate::Avg, &mut rng).expect("valid query")
    };
    let reference = run(&t, 1, 64);
    for (name, v) in variants(&t) {
        for threads in THREADS {
            for batch in BATCHES {
                let what = format!("multipred/{name}/t{threads}/b{batch}");
                let got = run(&v, threads, batch);
                assert_eq!(reference.oracle_calls, got.oracle_calls, "{what}: calls");
                assert_eq!(
                    reference.estimate.to_bits(),
                    got.estimate.to_bits(),
                    "{what}: estimate"
                );
            }
        }
    }
}

#[test]
fn groupby_is_storage_and_schedule_invariant() {
    let t = rich_table(5000, 3);
    let run = |table: &Table, threads: usize, batch: usize| {
        let proxies: Vec<&[f64]> = table.predicates().iter().map(|p| p.proxy()).collect();
        let oracle = SingleGroupOracle::new(table).expect("grouped table");
        let cfg = GroupByConfig {
            budget: 1500,
            exec: ExecOptions::new(threads, batch),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0x9B);
        let ests = groupby_single_oracle(&proxies, &oracle, &cfg, &mut rng).expect("valid");
        (ests, oracle.calls())
    };
    let (ref_ests, ref_calls) = run(&t, 1, 64);
    for (name, v) in variants(&t) {
        for threads in THREADS {
            for batch in BATCHES {
                let what = format!("groupby/{name}/t{threads}/b{batch}");
                let (ests, calls) = run(&v, threads, batch);
                assert_eq!(calls, ref_calls, "{what}: calls");
                assert_eq!(ests.len(), ref_ests.len(), "{what}: group count");
                for (a, b) in ref_ests.iter().zip(&ests) {
                    assert_eq!(a.group, b.group, "{what}: group order");
                    assert_eq!(
                        a.estimate.to_bits(),
                        b.estimate.to_bits(),
                        "{what}: group {} estimate",
                        a.group
                    );
                }
            }
        }
    }
}

#[test]
fn adaptive_is_storage_and_schedule_invariant() {
    let t = rich_table(3000, 4);
    let run = |table: &Table, threads: usize, batch: usize| {
        let oracle = PredicateOracle::new(table, "p1").expect("predicate");
        let scores = table.predicate("p1").expect("predicate").proxy();
        let cfg = AdaptiveConfig {
            budget: 700,
            warmup_per_stratum: 10,
            exec: ExecOptions::new(threads, batch),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0xADA);
        run_adaptive(scores, &oracle, &cfg, Aggregate::Avg, &mut rng).expect("valid config")
    };
    let reference = run(&t, 1, 64);
    for (name, v) in variants(&t) {
        for threads in THREADS {
            for batch in BATCHES {
                let what = format!("adaptive/{name}/t{threads}/b{batch}");
                let got = run(&v, threads, batch);
                assert_eq!(reference.oracle_calls, got.oracle_calls, "{what}: calls");
                assert_eq!(
                    reference.estimate.to_bits(),
                    got.estimate.to_bits(),
                    "{what}: estimate"
                );
                assert_eq!(reference.samples, got.samples, "{what}: per-stratum samples");
            }
        }
    }
}

#[test]
fn progressive_snapshots_are_storage_invariant() {
    let t = rich_table(3000, 5);
    let aggs = [Aggregate::Avg];
    // Snapshot cadence is fixed by an explicit chunk so the *number* of
    // snapshots is part of the contract too.
    let run = |table: &Table, threads: usize, batch: usize| {
        let oracle = PredicateOracle::new(table, "p2").expect("predicate");
        let scores = table.predicate("p2").expect("predicate").proxy();
        let cfg = AbaeConfig {
            strata: 3,
            budget: 600,
            bootstrap: BootstrapConfig { trials: 40, alpha: 0.05 },
            exec: ExecOptions::new(threads, batch),
            ..Default::default()
        };
        let prog = ProgressiveOptions { chunk: Some(100), target_ci_width: None };
        let mut rng = StdRng::seed_from_u64(0x9109);
        let mut snaps: Vec<Snapshot> = Vec::new();
        let result =
            run_abae_multi_progressive(scores, &oracle, &cfg, &aggs, &prog, &mut rng, |s| {
                snaps.push(s.clone())
            })
            .expect("valid config");
        (result, snaps)
    };
    let (ref_result, ref_snaps) = run(&t, 1, 64);
    for (name, v) in variants(&t) {
        for threads in THREADS {
            for batch in BATCHES {
                let what = format!("progressive/{name}/t{threads}/b{batch}");
                let (result, snaps) = run(&v, threads, batch);
                assert_same_multi(&ref_result, &result, &what);
                assert_eq!(snaps.len(), ref_snaps.len(), "{what}: snapshot count");
                for (i, (a, b)) in ref_snaps.iter().zip(&snaps).enumerate() {
                    assert_eq!(a.budget_spent, b.budget_spent, "{what}: snap {i} budget");
                    assert_eq!(a.done, b.done, "{what}: snap {i} done flag");
                    for (x, y) in a.answers.iter().zip(&b.answers) {
                        assert_eq!(
                            x.estimate.to_bits(),
                            y.estimate.to_bits(),
                            "{what}: snap {i} estimate"
                        );
                    }
                }
            }
        }
    }
}

/// The vectorized score/eval kernels agree with per-record scalar math on
/// inputs reconstructed through the row view — the two compatibility
/// surfaces cross-check each other.
#[test]
fn kernels_agree_between_row_view_and_columns() {
    let t = rich_table(2500, 6);
    let expr = PredExpr::or(
        PredExpr::not(PredExpr::and(PredExpr::pred(0), PredExpr::pred(2))),
        PredExpr::pred(1),
    );

    // Row path: shred to owned records, rebuild per-predicate vectors.
    let rows: Vec<_> = t.rows().collect();
    let row_proxies: Vec<Vec<f64>> =
        (0..3).map(|p| rows.iter().map(|r| r.proxies[p]).collect()).collect();
    let row_views: Vec<&[f64]> = row_proxies.iter().map(|v| v.as_slice()).collect();
    let row_scores: Vec<f64> = (0..t.len()).map(|i| expr.score_at(&row_views, i)).collect();
    let row_truth: Vec<bool> =
        (0..t.len()).map(|i| expr.evaluate(&|p| rows[i].labels[p])).collect();

    // Columnar path: vectorized kernels straight off the columns.
    let col_views: Vec<&[f64]> = t.predicates().iter().map(|p| p.proxy()).collect();
    let col_scores = expr.combined_scores_vec(&col_views);
    let bitmaps: Vec<_> = t.predicates().iter().map(|p| p.labels().bitmap()).collect();
    let col_truth = expr.eval_bitmap(&bitmaps);

    for i in 0..t.len() {
        assert_eq!(
            row_scores[i].to_bits(),
            col_scores[i].to_bits(),
            "score diverges at record {i}"
        );
        assert_eq!(row_truth[i], col_truth.get(i), "truth diverges at record {i}");
    }
}
