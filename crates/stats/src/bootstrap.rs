//! Percentile bootstrap confidence intervals.
//!
//! ABae's Algorithm 2 forms CIs by resampling, within each stratum, the
//! records drawn across both stages and recomputing the estimate `β` times;
//! the CI is the empirical `[α/2, 1 − α/2]` percentile interval. This module
//! provides the interval type and the percentile interval; `abae-core`
//! resamples per stratum in its own kernel.

use crate::quantile::quantile_sorted;

/// A two-sided confidence interval `[lo, hi]` with its nominal coverage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// Nominal coverage probability, e.g. `0.95`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Interval width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }
}

/// Computes the percentile bootstrap CI from replicate estimates.
///
/// `alpha` is the total tail mass (e.g. `0.05` for a 95% CI). The replicate
/// vector is sorted in place. Returns `None` when no replicates are given or
/// `alpha` is outside `(0, 1)`.
pub fn percentile_ci(replicates: &mut [f64], alpha: f64) -> Option<ConfidenceInterval> {
    if replicates.is_empty() || !(0.0..1.0).contains(&alpha) || alpha <= 0.0 {
        return None;
    }
    replicates.sort_by(f64::total_cmp);
    let lo = quantile_sorted(replicates, alpha / 2.0)?;
    let hi = quantile_sorted(replicates, 1.0 - alpha / 2.0)?;
    Some(ConfidenceInterval { lo, hi, confidence: 1.0 - alpha })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_accessors() {
        let ci = ConfidenceInterval { lo: 1.0, hi: 3.0, confidence: 0.95 };
        assert_eq!(ci.width(), 2.0);
        assert!(ci.contains(2.0));
        assert!(ci.contains(1.0));
        assert!(ci.contains(3.0));
        assert!(!ci.contains(0.99));
        assert!(!ci.contains(3.01));
    }

    #[test]
    fn percentile_ci_of_known_replicates() {
        // Replicates 0..=100: 95% percentile interval is [2.5, 97.5].
        let mut reps: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let ci = percentile_ci(&mut reps, 0.05).unwrap();
        assert!((ci.lo - 2.5).abs() < 1e-9);
        assert!((ci.hi - 97.5).abs() < 1e-9);
        assert_eq!(ci.confidence, 0.95);
    }

    #[test]
    fn percentile_ci_rejects_degenerate_inputs() {
        assert!(percentile_ci(&mut [], 0.05).is_none());
        assert!(percentile_ci(&mut [1.0], 0.0).is_none());
        assert!(percentile_ci(&mut [1.0], 1.0).is_none());
        assert!(percentile_ci(&mut [1.0], -0.1).is_none());
    }

    proptest! {
        #[test]
        fn ci_endpoints_are_ordered(
            mut reps in proptest::collection::vec(-1e6f64..1e6, 1..200),
            alpha in 0.01f64..0.5,
        ) {
            let ci = percentile_ci(&mut reps, alpha).unwrap();
            prop_assert!(ci.lo <= ci.hi);
        }

        #[test]
        fn narrower_alpha_gives_wider_interval(
            mut reps in proptest::collection::vec(-1e3f64..1e3, 10..200),
        ) {
            let mut reps2 = reps.clone();
            let wide = percentile_ci(&mut reps, 0.01).unwrap();
            let narrow = percentile_ci(&mut reps2, 0.20).unwrap();
            prop_assert!(wide.width() >= narrow.width() - 1e-9);
        }
    }
}
