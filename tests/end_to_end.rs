//! Integration tests spanning the whole stack: emulators (abae-data) →
//! SQL frontend (abae-query) → core algorithms (abae-core) → statistics
//! (abae-stats).

use abae::core::config::{AbaeConfig, Aggregate};
use abae::core::{run_abae_with_ci, run_uniform};
use abae::data::emulators::{night_street, trec05p, EmulatorOptions};
use abae::data::PredicateOracle;
use abae::query::Engine;
use abae::stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn opts() -> EmulatorOptions {
    EmulatorOptions { scale: 0.03, seed: 42 }
}

#[test]
fn sql_query_over_emulated_dataset_converges() {
    let emails = trec05p(&opts());
    let exact = emails.exact_avg("is_spam").unwrap();
    let engine = Engine::builder().table(emails).bootstrap_trials(200).seed(1).build();
    let mut session = engine.session();

    let mut covered = 0;
    let trials = 20;
    let mut estimates = Vec::new();
    for _ in 0..trials {
        let r = session
            .execute(
                "SELECT AVG(nb_links) FROM trec05p WHERE is_spam \
                 ORACLE LIMIT 4000 WITH PROBABILITY 0.95",
            )
            .expect("query executes");
        assert!(r.oracle_calls <= 4000);
        estimates.push(r.estimate());
        if r.ci().expect("scalar query CI").contains(exact) {
            covered += 1;
        }
    }
    // Estimates are consistent and CIs cover the truth most of the time.
    assert!(rmse(&estimates, exact) / exact < 0.15, "rmse too high");
    assert!(covered >= 16, "coverage {covered}/{trials}");
}

#[test]
fn abae_beats_uniform_on_an_emulated_dataset() {
    let video = night_street(&opts());
    let exact = video.exact_avg("has_car").unwrap();
    let scores = video.predicate("has_car").unwrap().proxy().to_vec();
    let mut rng = StdRng::seed_from_u64(2);
    let trials = 40;
    let cfg = AbaeConfig { budget: 2000, ..Default::default() };

    let mut abae_est = Vec::new();
    let mut uniform_est = Vec::new();
    for _ in 0..trials {
        let oracle = PredicateOracle::new(&video, "has_car").unwrap();
        let r = run_abae_with_ci(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        abae_est.push(r.estimate);
        let oracle = PredicateOracle::new(&video, "has_car").unwrap();
        uniform_est.push(
            run_uniform(video.len(), &oracle, 2000, Aggregate::Avg, &mut rng).estimate,
        );
    }
    let abae_rmse = rmse(&abae_est, exact);
    let uniform_rmse = rmse(&uniform_est, exact);
    assert!(
        abae_rmse < uniform_rmse,
        "ABae {abae_rmse} should beat uniform {uniform_rmse}"
    );
}

#[test]
fn same_seed_same_answer_across_the_stack() {
    let run = |seed: u64| {
        let emails = trec05p(&opts());
        let engine = Engine::builder().table(emails).bootstrap_trials(50).seed(seed).build();
        engine
            .session()
            .execute("SELECT AVG(links) FROM trec05p WHERE is_spam ORACLE LIMIT 1000")
            .expect("query executes")
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_ne!(a.estimate(), c.estimate(), "different seeds should differ");
}

#[test]
fn count_and_sum_aggregates_match_ground_truth_scale() {
    let video = night_street(&opts());
    let exact_count = video.exact_count("has_car").unwrap();
    let exact_sum = video.exact_sum("has_car").unwrap();
    let engine = Engine::builder().table(video).bootstrap_trials(100).seed(3).build();
    let mut session = engine.session();

    let count = session
        .execute("SELECT COUNT(*) FROM night-street WHERE has_car ORACLE LIMIT 5000")
        .expect("query executes");
    assert!(
        (count.estimate() - exact_count).abs() / exact_count < 0.1,
        "count {} vs {exact_count}",
        count.estimate()
    );

    let sum = session
        .execute("SELECT SUM(cars) FROM night-street WHERE has_car ORACLE LIMIT 5000")
        .expect("query executes");
    assert!(
        (sum.estimate() - exact_sum).abs() / exact_sum < 0.1,
        "sum {} vs {exact_sum}",
        sum.estimate()
    );
}

/// Regression: `UNTIL` over a predicate no record satisfies stopped right
/// after the pilot, at 1,000 calls, on the degenerate CI `[0, 0]`. The
/// stopping rule must not fire while no positive has been drawn, so the
/// run spends its whole cap.
#[test]
fn until_never_stops_on_zero_positives() {
    let emails = trec05p(&EmulatorOptions { scale: 1.0, seed: 42 });
    let engine = Engine::builder().table(emails).seed(7).build();
    let r = engine
        .session()
        .execute(
            "SELECT SUM(links) FROM trec05p WHERE is_spam AND NOT is_spam \
             UNTIL CI WIDTH < 0.1 MAX ORACLE LIMIT 2000",
        )
        .expect("query executes");
    assert_eq!(r.oracle_calls, 2000, "a zero-positive run must spend its cap");
    assert_eq!(r.estimate(), 0.0);
}
