//! Integration tests for the beyond-the-paper extensions: the sequential
//! sampler (§4.6 future work), closed-form CIs, and EXPLAIN — each
//! exercised across crate boundaries.

use abae::core::adaptive::{run_adaptive, AdaptiveConfig};
use abae::core::config::{AbaeConfig, Aggregate};
use abae::core::normal_ci::closed_form_ci;
use abae::core::strata::Stratification;
use abae::core::two_stage::run_two_stage;
use abae::data::emulators::{night_street, EmulatorOptions};
use abae::data::{PredicateOracle, Table};
use abae::query::Engine;
use abae::stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn opts() -> EmulatorOptions {
    EmulatorOptions { scale: 0.03, seed: 99 }
}

#[test]
fn sequential_sampler_matches_two_stage_on_emulated_data() {
    let video = night_street(&opts());
    let exact = video.exact_avg("has_car").unwrap();
    let scores = video.predicate("has_car").unwrap().proxy().to_vec();
    let mut rng = StdRng::seed_from_u64(1);
    let trials = 30;

    let mut seq_est = Vec::new();
    let mut two_est = Vec::new();
    for _ in 0..trials {
        let oracle = PredicateOracle::new(&video, "has_car").unwrap();
        let run = run_adaptive(
            &scores,
            &oracle,
            &AdaptiveConfig { budget: 1500, ..Default::default() },
            Aggregate::Avg,
            &mut rng,
        )
        .unwrap();
        assert!(run.oracle_calls <= 1500);
        seq_est.push(run.estimate);

        let oracle = PredicateOracle::new(&video, "has_car").unwrap();
        let strat = Stratification::by_proxy_quantile(&scores, 5);
        let run = run_two_stage(
            &strat,
            &oracle,
            &AbaeConfig { budget: 1500, ..Default::default() },
            Aggregate::Avg,
            &mut rng,
        )
        .unwrap();
        two_est.push(run.estimate);
    }
    let seq_rmse = rmse(&seq_est, exact);
    let two_rmse = rmse(&two_est, exact);
    assert!(
        seq_rmse < two_rmse * 1.5,
        "sequential {seq_rmse} should be competitive with two-stage {two_rmse}"
    );
}

#[test]
fn closed_form_ci_covers_on_emulated_data() {
    let video = night_street(&opts());
    let exact = video.exact_avg("has_car").unwrap();
    let scores = video.predicate("has_car").unwrap().proxy().to_vec();
    let strat = Stratification::by_proxy_quantile(&scores, 5);
    let mut rng = StdRng::seed_from_u64(2);
    let trials = 40;
    let mut covered = 0;
    for _ in 0..trials {
        let oracle = PredicateOracle::new(&video, "has_car").unwrap();
        let run = run_two_stage(
            &strat,
            &oracle,
            &AbaeConfig { budget: 2000, ..Default::default() },
            Aggregate::Avg,
            &mut rng,
        )
        .unwrap();
        let ci = closed_form_ci(Aggregate::Avg, &run.strata, 0.05).expect("estimable");
        if ci.contains(exact) {
            covered += 1;
        }
    }
    assert!(covered >= 33, "coverage {covered}/{trials}");
}

#[test]
fn explain_matches_actual_execution_budget() {
    let t = Table::builder("t", vec![1.0; 1000])
        .predicate("p", vec![true; 1000], vec![0.5; 1000])
        .build()
        .unwrap();
    let engine = Engine::builder().table(t).bootstrap_trials(20).seed(4).build();
    let mut session = engine.session();
    let sql = "SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 600";
    let plan = session.explain(sql).unwrap();
    assert!(plan.contains("600 oracle calls"), "{plan}");
    assert!(plan.contains("stage 1 (5 strata x 60)"), "{plan}");

    let result = session.execute(sql).unwrap();
    assert!(result.oracle_calls <= 600);
}
