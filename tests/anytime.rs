//! Anytime-aggregation invariants, end to end.
//!
//! The anytime executor labels in budget chunks and emits a statistically
//! valid snapshot after each one. Its central contract: **the final
//! snapshot of a full-budget progressive run is bit-identical to the
//! blocking run** — for any thread count and any chunk size — because all
//! randomness is drawn up front and chunking only changes *when* answers
//! are reported, never what is sampled. These tests pin that contract at
//! the core and query layers, plus the statistical behavior that makes
//! anytime execution useful: expected CI width shrinks as the budget
//! grows, the CIs actually cover the ground truth, and an
//! `UNTIL CI WIDTH < x MAX` stopping rule spends strictly less budget
//! while delivering the requested precision.

use abae::core::groupby::{
    groupby_single_oracle_progressive, groupby_single_oracle_stratified, GroupByConfig,
};
use abae::core::normal_ci::closed_form_ci;
use abae::core::pipeline::ExecOptions;
use abae::core::two_stage::run_two_stage;
use abae::core::{
    combine_estimate, run_abae_multi_progressive, run_abae_stratified, run_abae_with_ci,
    AbaeConfig, Aggregate, BootstrapConfig, MultiAggResult, ProgressiveOptions, Snapshot,
    Stratification, StratumEstimate,
};
use abae::data::{FnOracle, Labeled, SingleGroupOracle, Table};
use abae::query::{Engine, EngineOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The (threads, chunk) matrix every bit-identity scenario runs under.
const THREADS: [usize; 2] = [1, 8];
const CHUNKS: [usize; 3] = [1, 64, 4096];

/// A seeded random population: proxy scores of mixed quality, labels
/// correlated with the proxy, values with per-record structure.
fn population(n: usize, seed: u64) -> (Vec<f64>, Vec<bool>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scores = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let s: f64 = rng.gen();
        scores.push(s);
        labels.push(rng.gen::<f64>() < 0.2 + 0.6 * s);
        values.push(rng.gen_range(0.0..50.0));
    }
    (scores, labels, values)
}

fn oracle_for(labels: &[bool], values: &[f64]) -> FnOracle<impl Fn(usize) -> Labeled> {
    let labels = labels.to_vec();
    let values = values.to_vec();
    FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] })
}

fn assert_bit_identical(reference: &MultiAggResult, got: &MultiAggResult, what: &str) {
    assert_eq!(reference.oracle_calls, got.oracle_calls, "{what}: oracle_calls differ");
    assert_eq!(reference.answers.len(), got.answers.len(), "{what}: answer count differs");
    for (a, b) in reference.answers.iter().zip(&got.answers) {
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
                assert_eq!(x.lo.to_bits(), y.lo.to_bits(), "{what}: {:?} CI lo differs", a.agg);
                assert_eq!(x.hi.to_bits(), y.hi.to_bits(), "{what}: {:?} CI hi differs", a.agg);
            }
            _ => panic!("{what}: {:?} CI presence differs", a.agg),
        }
    }
}

/// Core contract: for every (threads, chunk) combination the progressive
/// run's final answer — and its `done` snapshot — reproduce the blocking
/// multi-aggregate run bit for bit, and the snapshot stream is well-formed
/// (strictly increasing spend, exactly one `done`).
#[test]
fn progressive_final_answer_is_bit_identical_to_blocking() {
    for seed in [7u64, 1234] {
        let (scores, labels, values) = population(4000, seed);
        let aggs = [Aggregate::Avg, Aggregate::Sum];
        let cfg_for = |threads: usize, batch: usize| AbaeConfig {
            budget: 1200,
            bootstrap: BootstrapConfig { trials: 60, alpha: 0.05 },
            exec: ExecOptions::new(threads, batch),
            ..Default::default()
        };

        let oracle = oracle_for(&labels, &values);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11);
        let strat = Stratification::by_proxy_quantile(&scores, cfg_for(1, 64).strata);
        let blocking =
            run_abae_stratified(&strat, &oracle, &cfg_for(1, 64), &aggs, None, &mut rng, |_| {})
                .expect("valid config");

        for threads in THREADS {
            for chunk in CHUNKS {
                let oracle = oracle_for(&labels, &values);
                let progressive = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
                let mut snaps: Vec<Snapshot> = Vec::new();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA11);
                let got = run_abae_multi_progressive(
                    &scores,
                    &oracle,
                    &cfg_for(threads, 64),
                    &aggs,
                    &progressive,
                    &mut rng,
                    |s| snaps.push(s.clone()),
                )
                .expect("valid config");

                let what = format!("threads={threads} chunk={chunk}");
                assert_bit_identical(&blocking, &got, &what);
                assert!(
                    snaps.windows(2).all(|w| w[0].budget_spent < w[1].budget_spent),
                    "{what}: snapshot spend must strictly increase"
                );
                assert_eq!(
                    snaps.iter().filter(|s| s.done).count(),
                    1,
                    "{what}: exactly one done snapshot"
                );
                let last = snaps.last().expect("at least one snapshot");
                assert!(last.done, "{what}: last snapshot must be the done one");
                assert_eq!(last.answers, got.answers, "{what}: done snapshot IS the answer");
                assert_eq!(last.budget_spent, got.oracle_calls, "{what}: spend accounting");
            }
        }
    }
}

/// A three-group table for the group-by scenario (mirrors
/// `tests/parallel_determinism.rs`).
fn group_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut key = Vec::with_capacity(n);
    let mut labels: Vec<Vec<bool>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
    let mut proxies: Vec<Vec<f64>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen();
        let group = if u < 0.15 {
            Some(0u16)
        } else if u < 0.28 {
            Some(1)
        } else if u < 0.36 {
            Some(2)
        } else {
            None
        };
        key.push(group);
        for g in 0..3u16 {
            let member = group == Some(g);
            labels[g as usize].push(member);
            let base: f64 = if member { 0.7 } else { 0.3 };
            proxies[g as usize].push((base + rng.gen_range(-0.25..0.25)).clamp(0.0, 1.0));
        }
        values.push(group.map(|g| 10.0 * (g + 1) as f64).unwrap_or(0.0) + rng.gen_range(0.0..2.0));
    }
    let mut builder = Table::builder("grp", values);
    for (g, name) in ["g0", "g1", "g2"].iter().enumerate() {
        builder = builder.predicate(
            *name,
            std::mem::take(&mut labels[g]),
            std::mem::take(&mut proxies[g]),
        );
    }
    builder
        .group_key(vec!["g0".into(), "g1".into(), "g2".into()], key)
        .build()
        .unwrap()
}

/// The same contract for the group-by executor: full-budget progressive
/// runs reproduce the blocking per-group estimates and CIs bit for bit
/// under every (threads, chunk) combination.
#[test]
fn groupby_progressive_is_bit_identical_to_blocking() {
    // Kept deliberately small: the chunk=1 leg takes a snapshot at every
    // one of `budget` chunk boundaries, and each snapshot rebuilds every
    // bucket's cells (`bucket_cells`) over all draws so far, so cost
    // scales with budget × draws.
    let seed = 42u64;
    let t = group_table(3000, seed);
    let proxies: Vec<&[f64]> = t.predicates().iter().map(|p| p.proxy()).collect();
    let bootstrap = BootstrapConfig { trials: 25, alpha: 0.05 };
    let cfg_for = |threads: usize| GroupByConfig {
        budget: 600,
        exec: ExecOptions::new(threads, 64),
        ..Default::default()
    };

    let oracle = SingleGroupOracle::new(&t).expect("grouped table");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x60D);
    let strata: Vec<Arc<Stratification>> = proxies
        .iter()
        .map(|p| Arc::new(Stratification::by_proxy_quantile(p, cfg_for(1).strata)))
        .collect();
    let blocking = groupby_single_oracle_stratified(
        &strata,
        &oracle,
        &cfg_for(1),
        &bootstrap,
        None,
        &mut rng,
        |_| {},
    )
    .expect("valid config")
    .groups;

    for threads in THREADS {
        for chunk in CHUNKS {
            let oracle = SingleGroupOracle::new(&t).expect("grouped table");
            let progressive = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
            let mut snapshots = 0usize;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x60D);
            let got = groupby_single_oracle_progressive(
                &proxies,
                &oracle,
                &cfg_for(threads),
                &bootstrap,
                &progressive,
                &mut rng,
                |_| snapshots += 1,
            )
            .expect("valid config");

            let what = format!("group-by threads={threads} chunk={chunk}");
            assert!(snapshots >= 1, "{what}: at least one snapshot");
            assert_eq!(blocking.len(), got.groups.len(), "{what}: group count");
            for (a, b) in blocking.iter().zip(&got.groups) {
                assert_eq!(a.group, b.group, "{what}");
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{what}: estimate");
                match (&a.ci, &b.ci) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.lo.to_bits(), y.lo.to_bits(), "{what}: CI lo");
                        assert_eq!(x.hi.to_bits(), y.hi.to_bits(), "{what}: CI hi");
                    }
                    _ => panic!("{what}: CI presence differs"),
                }
            }
        }
    }
}

/// Statistical sanity: the expected CI width (averaged over seeds) is
/// monotone non-increasing as the budget doubles. A 5% tolerance absorbs
/// bootstrap noise; the √budget law predicts ~30% shrink per doubling.
#[test]
fn expected_ci_width_shrinks_with_budget() {
    let (scores, labels, values) = population(6000, 99);
    let budgets = [600usize, 1200, 2400, 4800];
    let seeds = 12u64;

    let mut avg_widths = Vec::new();
    for &budget in &budgets {
        let mut total = 0.0;
        for s in 0..seeds {
            let oracle = oracle_for(&labels, &values);
            let cfg = AbaeConfig {
                budget,
                bootstrap: BootstrapConfig { trials: 40, alpha: 0.05 },
                exec: ExecOptions::sequential(),
                ..Default::default()
            };
            let mut rng = StdRng::seed_from_u64(1000 + s);
            let r = run_abae_with_ci(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng)
                .expect("valid config");
            total += r.ci.expect("bootstrap CI").width();
        }
        avg_widths.push(total / seeds as f64);
    }
    for pair in avg_widths.windows(2) {
        assert!(
            pair[1] <= pair[0] * 1.05,
            "expected CI width must not grow with budget: {avg_widths:?}"
        );
    }
    assert!(
        avg_widths.last().unwrap() < &(avg_widths[0] * 0.75),
        "quadrupling the budget should shrink the CI substantially: {avg_widths:?}"
    );
}

/// Statistical sanity: the 95% bootstrap CI brackets the true average at
/// roughly its nominal coverage. 40 independent runs; ≥85% must cover
/// (nominal 95%, slack for bootstrap approximation and small samples).
#[test]
fn ci_brackets_ground_truth_at_coverage() {
    let (scores, labels, values) = population(6000, 7);
    let truth = {
        let (mut sum, mut n) = (0.0, 0usize);
        for (l, v) in labels.iter().zip(&values) {
            if *l {
                sum += v;
                n += 1;
            }
        }
        sum / n as f64
    };

    let runs = 40u64;
    let mut covered = 0usize;
    for s in 0..runs {
        let oracle = oracle_for(&labels, &values);
        let cfg = AbaeConfig {
            budget: 1500,
            bootstrap: BootstrapConfig { trials: 60, alpha: 0.05 },
            exec: ExecOptions::sequential(),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5000 + s);
        let r = run_abae_with_ci(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng)
            .expect("valid config");
        if r.ci.expect("bootstrap CI").contains(truth) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / runs as f64;
    assert!(coverage >= 0.85, "coverage {coverage:.2} below 0.85 (truth {truth:.3})");
}

/// An engine over a synthetic table for the query-layer scenarios.
fn engine_with(exec: ExecOptions, seed: u64) -> Engine {
    let n = 4000;
    let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
    let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
    let t = Table::builder("emails", values)
        .predicate("is_spam", labels, proxy)
        .build()
        .unwrap();
    Engine::builder()
        .table(t)
        .options(EngineOptions { bootstrap_trials: 60, exec, ..Default::default() })
        .seed(seed)
        .build()
}

/// Query-layer bit identity: a progressive run's result — and its final
/// snapshot — equal the blocking result for every (threads, chunk)
/// engine configuration, because the session stream depends only on
/// (engine seed, session id).
#[test]
fn query_layer_progressive_matches_blocking_for_any_exec_options() {
    const SQL: &str = "SELECT AVG(links), COUNT(*) FROM emails WHERE is_spam ORACLE LIMIT 900";
    let blocking = engine_with(ExecOptions::new(1, 64), 3)
        .session_with_id(11)
        .execute(SQL)
        .expect("blocking query");

    for threads in THREADS {
        for chunk in CHUNKS {
            let engine = engine_with(ExecOptions::new(threads, chunk), 3);
            let mut snaps = Vec::new();
            let got = engine
                .session_with_id(11)
                .execute_progressive(SQL, |s| snaps.push(s.clone()))
                .expect("progressive query");
            let what = format!("query threads={threads} chunk={chunk}");
            assert_eq!(got, blocking, "{what}: results differ");
            let last = snaps.last().expect("snapshots");
            assert!(last.done, "{what}");
            assert_eq!(last.rows, blocking.rows, "{what}: final snapshot rows");
            assert_eq!(last.budget_spent, blocking.oracle_calls, "{what}: spend");
        }
    }
}

/// The stopping rule, end to end through SQL: `UNTIL CI WIDTH < x MAX`
/// spends strictly less than the cap, meets the requested width, and
/// charges only the labels actually consumed.
#[test]
fn until_ci_width_stops_early_and_charges_only_spent_budget() {
    let engine = engine_with(ExecOptions::new(1, 64), 5);
    let full = engine
        .session_with_id(2)
        .execute("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 3000")
        .expect("blocking query");
    let stopped = engine
        .session_with_id(2)
        .execute(
            "SELECT AVG(links) FROM emails WHERE is_spam \
             UNTIL CI WIDTH < 5 MAX ORACLE LIMIT 3000",
        )
        .expect("anytime query");

    assert!(
        stopped.oracle_calls < full.oracle_calls,
        "early stop must spend strictly less ({} vs {})",
        stopped.oracle_calls,
        full.oracle_calls
    );
    let ci = stopped.ci().expect("scalar CI");
    assert!(ci.width() < 5.0, "width {} misses the target", ci.width());

    // An unreachable target degrades gracefully to the full-budget run —
    // bit-identical to the blocking answer.
    let capped = engine
        .session_with_id(2)
        .execute(
            "SELECT AVG(links) FROM emails WHERE is_spam \
             UNTIL CI WIDTH < 0.000000000001 MAX ORACLE LIMIT 3000",
        )
        .expect("anytime query");
    assert_eq!(capped.rows, full.rows, "unreachable target must equal the blocking run");
    assert_eq!(capped.oracle_calls, full.oracle_calls);
}

/// Every intermediate snapshot answers from the blocking run's draws so
/// far: each stratum's prefix of the draw order (Stage 1 stratum by
/// stratum, then Stage 2 stratum by stratum) through `from_draws`, then
/// `combine_estimate` and `closed_form_ci`, bit for bit at every chunk size
/// and for every aggregate.
#[test]
fn snapshots_answer_from_the_blocking_runs_draws_in_draw_order() {
    let (scores, labels, values) = population(3000, 21);
    let aggs = [Aggregate::Avg, Aggregate::Count, Aggregate::Sum];
    let cfg = AbaeConfig {
        budget: 900,
        bootstrap: BootstrapConfig { trials: 20, alpha: 0.1 },
        ..Default::default()
    };
    let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
    let sizes = strat.sizes();
    let mut rng = StdRng::seed_from_u64(22);
    let run = run_two_stage(&strat, &oracle_for(&labels, &values), &cfg, aggs[0], &mut rng)
        .expect("valid config");
    let n1: Vec<usize> = run.pilot.iter().map(|e| e.draws).collect();
    let stage2 = |s: usize| run.samples[s].len() - n1[s];
    let order: Vec<usize> = (0..sizes.len())
        .flat_map(|s| std::iter::repeat(s).take(n1[s]))
        .chain((0..sizes.len()).flat_map(|s| std::iter::repeat(s).take(stage2(s))))
        .collect();
    let bits = |ci: Option<abae::stats::bootstrap::ConfidenceInterval>| {
        ci.map(|c| [c.lo.to_bits(), c.hi.to_bits(), c.confidence.to_bits()])
    };

    for chunk in CHUNKS {
        let progressive = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
        let mut snaps: Vec<Snapshot> = Vec::new();
        run_abae_stratified(
            &strat,
            &oracle_for(&labels, &values),
            &cfg,
            &aggs,
            Some(&progressive),
            &mut StdRng::seed_from_u64(22),
            |s| snaps.push(s.clone()),
        )
        .expect("valid config");
        let (last, looks) = snaps.split_last().expect("a final snapshot");
        assert!(last.done && !looks.is_empty(), "chunk {chunk}");
        for snap in looks {
            let spent = snap.budget_spent as usize;
            let mut prefix = vec![0usize; sizes.len()];
            for &s in &order[..spent] {
                prefix[s] += 1;
            }
            let strata: Vec<StratumEstimate> = (0..sizes.len())
                .map(|s| StratumEstimate::from_draws(sizes[s], &run.samples[s][..prefix[s]]))
                .collect();
            for (answer, &agg) in snap.answers.iter().zip(&aggs) {
                let what = format!("chunk {chunk}, spent {spent}, {agg:?}");
                let estimate = combine_estimate(agg, &strata);
                assert_eq!(answer.estimate.to_bits(), estimate.to_bits(), "{what}");
                let ci = closed_form_ci(agg, &strata, cfg.bootstrap.alpha);
                assert_eq!(bits(answer.ci), bits(ci), "{what}");
            }
        }
    }
}
