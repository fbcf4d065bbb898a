//! Closed-form (CLT / delta-method) confidence intervals.
//!
//! The paper uses the nonparametric bootstrap (Algorithm 2) for CIs and
//! notes it costs as much CPU as ~2,500 oracle calls (§3.1). For very tight
//! latency budgets a closed-form interval is useful; this module derives
//! one with the delta method and compares against the bootstrap in the
//! `ablation_ci` bench. Every intermediate anytime snapshot uses it: a
//! scalar snapshot's CIs are [`closed_form_ci`] over the merged per-stratum
//! estimates, and a GROUP BY snapshot blends this `AVG` variance across
//! each group's stratifications (`crate::groupby`). A snapshot then costs
//! O(K) once its strata are folded, where a bootstrap costs O(draws ×
//! trials).
//!
//! For `AVG`, the estimator is the ratio `μ̂ = Σ_k s_k p̂_k μ̂_k / Σ_k s_k
//! p̂_k`. First-order propagation through `(p̂_k, μ̂_k)` gives
//!
//! ```text
//! Var(μ̂) ≈ Σ_k w_k² σ̂²_k / B_k
//!         + Σ_k (s_k/W)² (μ̂_k − μ̂)² p̂_k(1−p̂_k) / n_k
//! ```
//!
//! with `w_k = s_k p̂_k / W`, `W = Σ s_j p̂_j`, `B_k` positive draws and
//! `n_k` total draws in stratum `k` — the first term is the within-stratum
//! mean noise, the second the weight noise from estimating `p_k`. `COUNT`
//! and `SUM` are plain linear combinations with binomial/product variances.

use crate::config::Aggregate;
use crate::estimator::StratumEstimate;
use abae_stats::bootstrap::ConfidenceInterval;
use abae_stats::special::normal_quantile;

/// Delta-method variance of the combined estimator, or `None` when it is
/// not estimable from the samples (see [`closed_form_ci`]).
pub(crate) fn estimator_variance(agg: Aggregate, strata: &[StratumEstimate]) -> Option<f64> {
    let w_total: f64 = strata.iter().map(|s| s.size as f64 * s.p_hat).sum();
    match agg {
        Aggregate::Avg => {
            if w_total <= 0.0 {
                return None;
            }
            let mu_all: f64 = strata
                .iter()
                .map(|s| s.size as f64 * s.p_hat * s.mu_hat)
                .sum::<f64>()
                / w_total;
            let mut var = 0.0;
            for s in strata {
                let w = s.size as f64 * s.p_hat / w_total;
                if w > 0.0 {
                    if s.positives == 0 {
                        return None; // weight on an unmeasured stratum
                    }
                    var += w * w * s.sigma_hat * s.sigma_hat / s.positives as f64;
                }
                if s.draws > 0 {
                    let dp = s.size as f64 / w_total * (s.mu_hat - mu_all);
                    var += dp * dp * s.p_hat * (1.0 - s.p_hat) / s.draws as f64;
                }
            }
            Some(var)
        }
        Aggregate::Count => {
            let mut var = 0.0;
            for s in strata {
                if s.draws == 0 {
                    if s.size > 0 {
                        return None;
                    }
                    continue;
                }
                let sk = s.size as f64;
                var += sk * sk * s.p_hat * (1.0 - s.p_hat) / s.draws as f64;
            }
            Some(var)
        }
        Aggregate::Sum => {
            let mut var = 0.0;
            for s in strata {
                if s.draws == 0 {
                    if s.size > 0 {
                        return None;
                    }
                    continue;
                }
                if s.p_hat > 0.0 && s.positives == 0 {
                    return None;
                }
                let sk = s.size as f64;
                let mean_term = if s.positives > 0 {
                    s.p_hat * s.p_hat * s.sigma_hat * s.sigma_hat / s.positives as f64
                } else {
                    0.0
                };
                let rate_term =
                    s.mu_hat * s.mu_hat * s.p_hat * (1.0 - s.p_hat) / s.draws as f64;
                var += sk * sk * (mean_term + rate_term);
            }
            Some(var)
        }
    }
}

/// Closed-form CI for the stratified estimator at total tail mass `alpha`.
///
/// Returns `None` when the variance is not estimable from the samples
/// (e.g. a stratum with positive estimated weight but no positive draws) —
/// exactly the situations where Algorithm 2's bootstrap is also unreliable
/// and more draws are needed.
pub fn closed_form_ci(
    agg: Aggregate,
    strata: &[StratumEstimate],
    alpha: f64,
) -> Option<ConfidenceInterval> {
    if !(0.0 < alpha && alpha < 1.0) {
        return None;
    }
    let estimate = crate::estimator::combine_estimate(agg, strata);
    normal_interval(estimate, estimator_variance(agg, strata)?, alpha)
}

/// The normal interval `estimate ± z_{1−α/2}·√var`, or `None` when the
/// variance is not finite or `alpha` is outside `(0, 1)`.
pub(crate) fn normal_interval(estimate: f64, var: f64, alpha: f64) -> Option<ConfidenceInterval> {
    if !(0.0 < alpha && alpha < 1.0 && var.is_finite()) {
        return None;
    }
    let z = normal_quantile(1.0 - alpha / 2.0);
    let half = z * var.sqrt();
    Some(ConfidenceInterval { lo: estimate - half, hi: estimate + half, confidence: 1.0 - alpha })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AbaeConfig;
    use crate::strata::Stratification;
    use crate::two_stage::run_two_stage;
    use abae_data::{FnOracle, Labeled};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn covering_rate_is_near_nominal() {
        // Population with a known answer; the CLT interval should cover
        // at roughly 95%.
        let n = 40_000;
        let mut rng = StdRng::seed_from_u64(1);
        let labels: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.3).collect();
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let scores: Vec<f64> = labels
            .iter()
            .map(|&l| if l { rng.gen_range(0.4..1.0) } else { rng.gen_range(0.0..0.6) })
            .collect();
        let exact = {
            let (mut s, mut c) = (0.0, 0usize);
            for i in 0..n {
                if labels[i] {
                    s += values[i];
                    c += 1;
                }
            }
            s / c as f64
        };
        let strat = Stratification::by_proxy_quantile(&scores, 5);
        let cfg = AbaeConfig { budget: 2000, ..Default::default() };
        let oracle = FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] });
        let trials = 100;
        let mut covered = 0;
        for _ in 0..trials {
            let run = run_two_stage(&strat, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
            let ci = closed_form_ci(Aggregate::Avg, &run.strata, 0.05).expect("estimable");
            assert!(ci.lo <= run.estimate && run.estimate <= ci.hi);
            if ci.contains(exact) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate > 0.88, "coverage {rate}");
    }

    #[test]
    fn agrees_with_bootstrap_width_to_first_order() {
        use crate::bootstrap::stratified_bootstrap_ci;
        use crate::config::BootstrapConfig;
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<Vec<Labeled>> = (0..5)
            .map(|_| {
                (0..500)
                    .map(|_| Labeled {
                        matches: rng.gen::<f64>() < 0.4,
                        value: rng.gen_range(0.0..4.0),
                    })
                    .collect()
            })
            .collect();
        let sizes = vec![10_000usize; 5];
        let strata: Vec<StratumEstimate> = samples
            .iter()
            .zip(&sizes)
            .map(|(draws, &size)| StratumEstimate::from_draws(size, draws))
            .collect();
        let clt = closed_form_ci(Aggregate::Avg, &strata, 0.05).unwrap();
        let boot = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Avg,
            &BootstrapConfig { trials: 2000, alpha: 0.05 },
            &mut rng,
        )
        .unwrap();
        let ratio = clt.width() / boot.width();
        assert!((0.8..1.25).contains(&ratio), "CLT {} vs bootstrap {}", clt.width(), boot.width());
    }

    #[test]
    fn count_interval_matches_binomial_half_width() {
        // Single stratum, p̂ = 0.5 from 100 draws, size 1000:
        // Var = 1000² · 0.25/100 = 2500 → half-width 1.96·50 = 98.
        let strata = vec![StratumEstimate {
            size: 1000,
            draws: 100,
            positives: 50,
            p_hat: 0.5,
            mu_hat: 1.0,
            sigma_hat: 0.0,
        }];
        let ci = closed_form_ci(Aggregate::Count, &strata, 0.05).unwrap();
        assert!((ci.width() / 2.0 - 98.0).abs() < 0.1, "half width {}", ci.width() / 2.0);
        assert!((ci.lo + ci.hi) / 2.0 == 500.0);
    }

    #[test]
    fn unmeasurable_strata_yield_none() {
        // Positive estimated weight but no positive draws: not estimable.
        let strata = vec![StratumEstimate {
            size: 1000,
            draws: 10,
            positives: 0,
            p_hat: 0.3, // inconsistent on purpose (weight > 0, no positives)
            mu_hat: 0.0,
            sigma_hat: 0.0,
        }];
        assert!(closed_form_ci(Aggregate::Avg, &strata, 0.05).is_none());
        // No draws at all on a non-empty stratum.
        let strata = vec![StratumEstimate {
            size: 1000,
            draws: 0,
            positives: 0,
            p_hat: 0.0,
            mu_hat: 0.0,
            sigma_hat: 0.0,
        }];
        assert!(closed_form_ci(Aggregate::Count, &strata, 0.05).is_none());
    }

    #[test]
    fn invalid_alpha_yields_none() {
        let strata = vec![StratumEstimate {
            size: 10,
            draws: 5,
            positives: 3,
            p_hat: 0.6,
            mu_hat: 1.0,
            sigma_hat: 0.5,
        }];
        assert!(closed_form_ci(Aggregate::Avg, &strata, 0.0).is_none());
        assert!(closed_form_ci(Aggregate::Avg, &strata, 1.0).is_none());
    }
}
