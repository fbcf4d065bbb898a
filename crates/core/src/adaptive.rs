//! Sequential (bandit-style) ABae — the paper's §4.6 future-work sketch.
//!
//! "A bandit algorithm that updates the estimates of `p_k` and `σ_k` per
//! sample draw may provide non-asymptotic improvements." This module
//! implements that variant: after a short per-stratum warmup, the sampler
//! repeatedly reallocates small batches according to the *current* plug-in
//! optimal allocation `√p̂_k·σ̂_k`, so mis-estimates from a fixed pilot
//! cannot lock in a bad Stage-2 split.
//!
//! Exploration is kept alive by optimistic initialization: a stratum with
//! no positives yet receives the weight it would have if its next draw were
//! positive at the prior rate, so no stratum is starved before it has been
//! measured (the analogue of the theory's `p_k > p*` case split).
//!
//! The ablation `abae-bench --bin ablation_adaptive` compares this variant
//! against the paper's two-stage algorithm; the estimator and all
//! correctness properties (unbiasedness per stratum, budget accounting)
//! are shared with Algorithm 1.

use crate::config::{Aggregate, ConfigError};
use crate::estimator::{combine_estimate, StratumEstimate, Tally};
use crate::strata::Stratification;
use abae_data::{Labeled, Oracle};
use abae_sampling::budget::largest_remainder_allocation;
use abae_sampling::pool::IndexPool;
use abae_stats::StreamingMoments;
use rand::Rng;

/// Configuration for the sequential sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Number of strata `K`.
    pub strata: usize,
    /// Total oracle budget.
    pub budget: usize,
    /// Warmup draws per stratum before any reallocation.
    pub warmup_per_stratum: usize,
    /// Draws reallocated per adaptation round.
    pub batch: usize,
    /// Oracle-labeling execution knobs (worker threads, batch size).
    pub exec: crate::pipeline::ExecOptions,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            strata: 5,
            budget: 10_000,
            warmup_per_stratum: 20,
            batch: 100,
            exec: crate::pipeline::ExecOptions::default(),
        }
    }
}

impl AdaptiveConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.strata == 0 {
            return Err(ConfigError::ZeroStrata);
        }
        if self.budget == 0 {
            return Err(ConfigError::ZeroBudget);
        }
        if self.warmup_per_stratum * self.strata > self.budget {
            return Err(ConfigError::BudgetBelowStrata {
                budget: self.budget,
                strata: self.strata,
            });
        }
        Ok(())
    }
}

/// Per-stratum running state.
struct StratumState {
    pool: IndexPool,
    tally: Tally,
    samples: Vec<Labeled>,
}

impl StratumState {
    /// The stratum's estimates from its draws so far.
    fn estimate(&self) -> StratumEstimate {
        self.tally.estimate(self.pool.len())
    }

    /// Allocation weight with optimistic initialization for unexplored
    /// strata: pretend one additional positive draw at the global sigma.
    fn weight(&self, fallback_sigma: f64) -> f64 {
        if self.pool.remaining() == 0 {
            return 0.0;
        }
        let e = self.estimate();
        let sigma = if e.positives >= 2 { e.sigma_hat } else { fallback_sigma };
        let p = if e.positives == 0 {
            // Optimism: assume the next draw could be positive.
            1.0 / (e.draws + 1) as f64
        } else {
            e.p_hat
        };
        p.sqrt() * sigma
    }
}

/// Runs the sequential sampler and returns the estimate together with the
/// per-stratum samples (for bootstrapping) and the spent budget.
pub fn run_adaptive<O: Oracle, R: Rng + ?Sized>(
    proxy_scores: &[f64],
    oracle: &O,
    config: &AdaptiveConfig,
    agg: Aggregate,
    rng: &mut R,
) -> Result<crate::two_stage::TwoStageRun, ConfigError> {
    config.validate()?;
    let strat = Stratification::by_proxy_quantile(proxy_scores, config.strata);
    let calls_before = oracle.calls();

    let mut states: Vec<StratumState> = strat
        .strata()
        .iter()
        .map(|members| StratumState {
            pool: IndexPool::new(members.len()),
            tally: Tally::default(),
            samples: Vec::new(),
        })
        .collect();

    let mut spent = 0usize;
    let draw_into = |state: &mut StratumState,
                         members: &[usize],
                         k: usize,
                         rng: &mut R,
                         spent: &mut usize| {
        let drawn: Vec<usize> =
            state.pool.draw(k, rng).iter().map(|&local| members[local]).collect();
        for labeled in crate::pipeline::label_all(oracle, &drawn, &config.exec) {
            state.tally.push(labeled);
            state.samples.push(labeled);
            *spent += 1;
        }
    };

    // Warmup: a small uniform pilot per stratum.
    for (s, state) in states.iter_mut().enumerate() {
        draw_into(state, strat.stratum(s), config.warmup_per_stratum, rng, &mut spent);
    }

    // Adaptation rounds: reallocate `batch` draws by the current weights.
    while spent < config.budget {
        let round = config.batch.min(config.budget - spent);
        // Global sigma fallback keeps unexplored strata competitive.
        let mut global = StreamingMoments::new();
        for st in &states {
            global.merge(st.tally.moments());
        }
        let fallback_sigma = global.sample_std_dev_or_zero().max(1e-6);
        let weights: Vec<f64> = states.iter().map(|st| st.weight(fallback_sigma)).collect();
        if weights.iter().all(|&w| w == 0.0) {
            // Every stratum exhausted or information-free: spread what is
            // left uniformly over non-exhausted pools.
            let open: Vec<f64> =
                states.iter().map(|st| f64::from(st.pool.remaining() > 0)).collect();
            if open.iter().all(|&o| o == 0.0) {
                break;
            }
            let alloc = largest_remainder_allocation(&open, round);
            for (s, &k) in alloc.iter().enumerate() {
                draw_into(&mut states[s], strat.stratum(s), k, rng, &mut spent);
            }
            continue;
        }
        let alloc = largest_remainder_allocation(&weights, round);
        let before = spent;
        for (s, &k) in alloc.iter().enumerate() {
            draw_into(&mut states[s], strat.stratum(s), k, rng, &mut spent);
        }
        if spent == before {
            break; // allocation pointed only at exhausted pools
        }
    }

    let estimates: Vec<StratumEstimate> = states.iter().map(StratumState::estimate).collect();
    let pilot = estimates.clone();
    let t_hat: Vec<f64> = {
        let p: Vec<f64> = estimates.iter().map(|e| e.p_hat).collect();
        let sigma: Vec<f64> = estimates.iter().map(|e| e.sigma_hat).collect();
        crate::allocation::optimal_allocation(&p, &sigma)
    };
    Ok(crate::two_stage::TwoStageRun {
        estimate: combine_estimate(agg, &estimates),
        strata: estimates,
        pilot,
        t_hat,
        samples: states.into_iter().map(|st| st.samples).collect(),
        oracle_calls: oracle.calls() - calls_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abae_data::FnOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: usize) -> (Vec<f64>, Vec<bool>, Vec<f64>) {
        let scores: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let labels: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64 + i as f64 / n as f64).collect();
        (scores, labels, values)
    }

    fn exact_avg(labels: &[bool], values: &[f64]) -> f64 {
        let (mut s, mut c) = (0.0, 0usize);
        for (i, &l) in labels.iter().enumerate() {
            if l {
                s += values[i];
                c += 1;
            }
        }
        s / c as f64
    }

    #[test]
    fn converges_and_respects_budget() {
        let (scores, labels, values) = population(30_000);
        let truth = exact_avg(&labels, &values);
        let oracle = FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] });
        let cfg = AdaptiveConfig { budget: 3000, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let mut errs = Vec::new();
        for _ in 0..25 {
            let run = run_adaptive(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
            assert_eq!(run.oracle_calls, 3000);
            errs.push(run.estimate - truth);
        }
        let rmse = (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt();
        assert!(rmse < 0.2, "rmse {rmse}");
    }

    #[test]
    fn shifts_budget_away_from_empty_strata() {
        let (scores, labels, values) = population(30_000);
        let oracle = FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] });
        let cfg = AdaptiveConfig { budget: 2000, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let run = run_adaptive(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        // Bottom strata (all-negative) should end with far fewer draws
        // than top strata.
        let bottom = run.samples[0].len() + run.samples[1].len();
        let top = run.samples[3].len() + run.samples[4].len();
        assert!(top > 3 * bottom, "top {top} vs bottom {bottom}");
    }

    #[test]
    fn exhausts_tiny_populations_gracefully() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let labels = vec![true; 100];
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let truth = exact_avg(&labels, &values);
        let oracle = FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] });
        let cfg = AdaptiveConfig { budget: 5000, warmup_per_stratum: 5, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let run = run_adaptive(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        assert!(run.oracle_calls <= 100);
        assert!((run.estimate - truth).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_configs() {
        let oracle = FnOracle::new(|_| Labeled { matches: true, value: 1.0 });
        let mut rng = StdRng::seed_from_u64(4);
        let scores = vec![0.5; 100];
        assert!(run_adaptive(
            &scores,
            &oracle,
            &AdaptiveConfig { strata: 0, ..Default::default() },
            Aggregate::Avg,
            &mut rng
        )
        .is_err());
        assert!(run_adaptive(
            &scores,
            &oracle,
            &AdaptiveConfig { budget: 10, warmup_per_stratum: 100, ..Default::default() },
            Aggregate::Avg,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn matches_two_stage_quality_on_stable_populations() {
        use crate::config::AbaeConfig;
        use crate::two_stage::run_abae;
        let (scores, labels, values) = population(30_000);
        let truth = exact_avg(&labels, &values);
        let oracle = {
            let labels = labels.clone();
            let values = values.clone();
            FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] })
        };
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 40;
        let mut adaptive_errs = Vec::new();
        let mut two_stage_errs = Vec::new();
        for _ in 0..trials {
            let a = run_adaptive(
                &scores,
                &oracle,
                &AdaptiveConfig { budget: 1000, ..Default::default() },
                Aggregate::Avg,
                &mut rng,
            )
            .unwrap();
            adaptive_errs.push(a.estimate - truth);
            let t = run_abae(
                &scores,
                &oracle,
                &AbaeConfig { budget: 1000, ..Default::default() },
                Aggregate::Avg,
                &mut rng,
            )
            .unwrap();
            two_stage_errs.push(t.estimate - truth);
        }
        let rmse = |errs: &[f64]| {
            (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt()
        };
        let a = rmse(&adaptive_errs);
        let t = rmse(&two_stage_errs);
        // The sequential variant should be at worst modestly behind the
        // two-stage algorithm here, and often ahead at small budgets.
        assert!(a < t * 1.5, "adaptive {a} vs two-stage {t}");
    }
}
