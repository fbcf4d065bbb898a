//! Per-stratum plug-in estimates and the combined estimator.
//!
//! Algorithm 1's estimates from a stratum's draws `R_k`:
//!
//! * `p̂_k = |X_k| / |R_k|` — fraction of draws matching the predicate.
//! * `μ̂_k` — mean statistic over matching draws, 0 when there are none.
//! * `σ̂²_k` — unbiased sample variance over matching draws, 0 when fewer
//!   than two.
//!
//! The combined estimator generalizes `Σ_k p̂_k μ̂_k / Σ_k p̂_k` to strata
//! of (slightly) unequal size — quantile stratification leaves sizes
//! differing by one when `K ∤ n` — by weighting each stratum with its
//! estimated positive *count* `|S_k|·p̂_k`, which reduces to the paper's
//! formula for equal sizes. `SUM` and `COUNT` scale by the stratum sizes
//! directly.
//!
//! Every per-stratum accumulator in the crate is one running fold: a
//! stratum's draw count plus the positives' [`StreamingMoments`], pushed in
//! draw order, from which `StratumEstimate::from_moments` derives the
//! estimates. The samplers fix their draw order before labeling starts, so
//! the fold after any prefix of the draws is the same for every chunking of
//! the labeling.

use crate::config::Aggregate;
use abae_data::Labeled;
use abae_stats::StreamingMoments;

/// Sample-based estimates for one stratum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratumEstimate {
    /// Stratum size `|S_k|` in the full dataset.
    pub size: usize,
    /// Number of oracle draws from this stratum.
    pub draws: usize,
    /// Number of draws matching the predicate.
    pub positives: usize,
    /// Estimated positive rate `p̂_k` (0 when no draws).
    pub p_hat: f64,
    /// Estimated conditional mean `μ̂_k` (0 when no positives).
    pub mu_hat: f64,
    /// Estimated conditional standard deviation `σ̂_k` (0 when < 2
    /// positives).
    pub sigma_hat: f64,
}

impl StratumEstimate {
    /// Computes the estimates from a stratum's labeled draws, folded in
    /// order.
    pub fn from_draws(size: usize, draws: &[Labeled]) -> Self {
        let mut tally = Tally::default();
        for &d in draws {
            tally.push(d);
        }
        tally.estimate(size)
    }

    /// The estimates of a stratum of `size` records from `draws` draws whose
    /// positive values `moments` folded: the one place `p̂`, `μ̂` and `σ̂`
    /// are derived.
    pub(crate) fn from_moments(size: usize, draws: usize, moments: &StreamingMoments) -> Self {
        let positives = moments.count() as usize;
        StratumEstimate {
            size,
            draws,
            positives,
            p_hat: if draws == 0 { 0.0 } else { positives as f64 / draws as f64 },
            mu_hat: moments.mean_or_zero(),
            sigma_hat: moments.sample_std_dev_or_zero(),
        }
    }
}

/// One stratum's running fold of labeled draws, in draw order: the draw
/// count and the positives' moments.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    draws: usize,
    moments: StreamingMoments,
}

impl Tally {
    /// Folds in the next draw.
    pub(crate) fn push(&mut self, label: Labeled) {
        self.draws += 1;
        if label.matches {
            self.moments.push(label.value);
        }
    }

    /// The positives' moments folded so far.
    pub(crate) fn moments(&self) -> &StreamingMoments {
        &self.moments
    }

    /// The estimates of a stratum of `size` records from the draws so far.
    pub(crate) fn estimate(&self, size: usize) -> StratumEstimate {
        StratumEstimate::from_moments(size, self.draws, &self.moments)
    }
}

/// Combines per-stratum estimates into the final answer for `agg`.
///
/// * `Avg` — `Σ_k |S_k| p̂_k μ̂_k / Σ_k |S_k| p̂_k` (0 when the denominator
///   vanishes, matching the pseudocode's convention).
/// * `Sum` — `Σ_k |S_k| p̂_k μ̂_k`.
/// * `Count` — `Σ_k |S_k| p̂_k`.
pub fn combine_estimate(agg: Aggregate, strata: &[StratumEstimate]) -> f64 {
    let mut weighted_mean = 0.0;
    let mut weight = 0.0;
    for s in strata {
        let w = s.size as f64 * s.p_hat;
        weighted_mean += w * s.mu_hat;
        weight += w;
    }
    match agg {
        Aggregate::Avg => {
            if weight > 0.0 {
                weighted_mean / weight
            } else {
                0.0
            }
        }
        Aggregate::Sum => weighted_mean,
        Aggregate::Count => weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn labeled(matches: bool, value: f64) -> Labeled {
        Labeled { matches, value }
    }

    #[test]
    fn estimates_match_hand_computation() {
        let draws = vec![
            labeled(true, 2.0),
            labeled(false, 99.0),
            labeled(true, 4.0),
            labeled(true, 6.0),
            labeled(false, -1.0),
        ];
        let e = StratumEstimate::from_draws(100, &draws);
        assert_eq!(e.size, 100);
        assert_eq!(e.draws, 5);
        assert_eq!(e.positives, 3);
        assert!((e.p_hat - 0.6).abs() < 1e-12);
        assert!((e.mu_hat - 4.0).abs() < 1e-12);
        assert!((e.sigma_hat - 2.0).abs() < 1e-12); // var = (4+0+4)/2 = 4
    }

    #[test]
    fn empty_draws_follow_paper_conventions() {
        let e = StratumEstimate::from_draws(50, &[]);
        assert_eq!(e.p_hat, 0.0);
        assert_eq!(e.mu_hat, 0.0);
        assert_eq!(e.sigma_hat, 0.0);
    }

    #[test]
    fn single_positive_has_zero_sigma() {
        let e = StratumEstimate::from_draws(10, &[labeled(true, 7.0), labeled(false, 0.0)]);
        assert_eq!(e.mu_hat, 7.0);
        assert_eq!(e.sigma_hat, 0.0);
    }

    /// The estimates written out: count the positives, fold their values,
    /// divide.
    fn reference(size: usize, draws: &[Labeled]) -> StratumEstimate {
        let mut moments = StreamingMoments::new();
        let mut positives = 0usize;
        for d in draws.iter().filter(|d| d.matches) {
            positives += 1;
            moments.push(d.value);
        }
        StratumEstimate {
            size,
            draws: draws.len(),
            positives,
            p_hat: if draws.is_empty() { 0.0 } else { positives as f64 / draws.len() as f64 },
            mu_hat: moments.mean_or_zero(),
            sigma_hat: moments.sample_std_dev_or_zero(),
        }
    }

    #[test]
    fn a_tally_after_every_push_equals_from_draws_of_the_prefix() {
        let bits = |e: StratumEstimate| {
            let moments = [e.p_hat, e.mu_hat, e.sigma_hat].map(f64::to_bits);
            (e.size, e.draws, e.positives, moments)
        };
        let mixed = [
            labeled(false, 3.0),
            labeled(true, 0.1),
            labeled(true, 0.7),
            labeled(false, -2.0),
            labeled(true, 1e9),
            labeled(true, -0.3),
        ];
        let cases: [&[Labeled]; 4] =
            [&[], &[labeled(true, 7.5)], &[labeled(false, 1.0); 5], &mixed];
        for draws in cases {
            let mut tally = Tally::default();
            for i in 0..=draws.len() {
                if i > 0 {
                    tally.push(draws[i - 1]);
                }
                let prefix = &draws[..i];
                let got = bits(tally.estimate(40));
                assert_eq!(got, bits(StratumEstimate::from_draws(40, prefix)), "{prefix:?}");
                assert_eq!(got, bits(reference(40, prefix)), "{prefix:?}");
            }
        }
    }

    #[test]
    fn avg_reduces_to_paper_formula_for_equal_sizes() {
        // Equal-size strata: AVG = Σ p̂ μ̂ / Σ p̂.
        let strata = vec![
            StratumEstimate { size: 100, draws: 10, positives: 2, p_hat: 0.2, mu_hat: 1.0, sigma_hat: 0.0 },
            StratumEstimate { size: 100, draws: 10, positives: 6, p_hat: 0.6, mu_hat: 3.0, sigma_hat: 0.0 },
        ];
        let got = combine_estimate(Aggregate::Avg, &strata);
        let want = (0.2 * 1.0 + 0.6 * 3.0) / (0.2 + 0.6);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn unequal_sizes_weight_by_positive_count() {
        let strata = vec![
            StratumEstimate { size: 10, draws: 5, positives: 5, p_hat: 1.0, mu_hat: 2.0, sigma_hat: 0.0 },
            StratumEstimate { size: 990, draws: 5, positives: 5, p_hat: 1.0, mu_hat: 4.0, sigma_hat: 0.0 },
        ];
        let got = combine_estimate(Aggregate::Avg, &strata);
        // 10 positives at mean 2, 990 at mean 4.
        let want = (10.0 * 2.0 + 990.0 * 4.0) / 1000.0;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn count_and_sum_scale_with_sizes() {
        let strata = vec![
            StratumEstimate { size: 200, draws: 10, positives: 5, p_hat: 0.5, mu_hat: 3.0, sigma_hat: 0.0 },
            StratumEstimate { size: 200, draws: 10, positives: 2, p_hat: 0.2, mu_hat: 10.0, sigma_hat: 0.0 },
        ];
        assert!((combine_estimate(Aggregate::Count, &strata) - 140.0).abs() < 1e-12);
        assert!(
            (combine_estimate(Aggregate::Sum, &strata) - (100.0 * 3.0 + 40.0 * 10.0)).abs() < 1e-12
        );
    }

    #[test]
    fn all_zero_rates_give_zero() {
        let strata = vec![StratumEstimate {
            size: 100,
            draws: 10,
            positives: 0,
            p_hat: 0.0,
            mu_hat: 0.0,
            sigma_hat: 0.0,
        }];
        assert_eq!(combine_estimate(Aggregate::Avg, &strata), 0.0);
        assert_eq!(combine_estimate(Aggregate::Count, &strata), 0.0);
        assert_eq!(combine_estimate(Aggregate::Sum, &strata), 0.0);
    }

    proptest! {
        #[test]
        fn avg_is_bounded_by_stratum_means(
            specs in proptest::collection::vec((1usize..1000, 0.01f64..1.0, -100f64..100.0), 1..8),
        ) {
            let strata: Vec<StratumEstimate> = specs
                .iter()
                .map(|&(size, p, mu)| StratumEstimate {
                    size,
                    draws: 10,
                    positives: (10.0 * p) as usize,
                    p_hat: p,
                    mu_hat: mu,
                    sigma_hat: 0.0,
                })
                .collect();
            let avg = combine_estimate(Aggregate::Avg, &strata);
            let lo = strata.iter().map(|s| s.mu_hat).fold(f64::INFINITY, f64::min);
            let hi = strata.iter().map(|s| s.mu_hat).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        }

        #[test]
        fn p_hat_mu_hat_are_exact_sample_statistics(
            pattern in proptest::collection::vec((proptest::bool::ANY, -50f64..50.0), 0..60),
        ) {
            let draws: Vec<Labeled> =
                pattern.iter().map(|&(m, v)| Labeled { matches: m, value: v }).collect();
            let e = StratumEstimate::from_draws(1000, &draws);
            let positives: Vec<f64> =
                pattern.iter().filter(|(m, _)| *m).map(|&(_, v)| v).collect();
            prop_assert_eq!(e.positives, positives.len());
            if !draws.is_empty() {
                prop_assert!((e.p_hat - positives.len() as f64 / draws.len() as f64).abs() < 1e-12);
            }
            if !positives.is_empty() {
                let mean = positives.iter().sum::<f64>() / positives.len() as f64;
                prop_assert!((e.mu_hat - mean).abs() < 1e-9);
            }
        }
    }
}
