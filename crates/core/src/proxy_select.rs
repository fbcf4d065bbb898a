//! Proxy selection (§3.4).
//!
//! When several candidate proxies exist for one predicate, ABae predicts
//! each proxy's achievable MSE with the Proposition 2 plug-in formula:
//! stratify by the candidate, bucket the Stage-1 pilot samples into its
//! strata, estimate `p̂_k, σ̂_k` per stratum, and evaluate
//! `(Σ √p̂_k σ̂_k)² / (N·p̂_all²)`. The proxy with the lowest predicted MSE
//! wins. The pilot samples are *shared* across candidates, so selection
//! adds no oracle cost.

use crate::error_model::optimal_mse;
use crate::estimator::Tally;
use crate::strata::Stratification;
use abae_data::{Labeled, Oracle};
use abae_sampling::wor::sample_without_replacement;
use rand::Rng;

/// One labeled pilot draw: record index plus its oracle result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PilotSample {
    /// Record index in the dataset.
    pub index: usize,
    /// Oracle result.
    pub labeled: Labeled,
}

/// Draws a uniform without-replacement pilot of `size` records and labels
/// them with the oracle.
pub fn draw_pilot<O: Oracle, R: Rng + ?Sized>(
    n: usize,
    oracle: &O,
    size: usize,
    rng: &mut R,
) -> Vec<PilotSample> {
    sample_without_replacement(n, size, rng)
        .into_iter()
        .map(|index| PilotSample { index, labeled: oracle.label(index) })
        .collect()
}

/// Predicted and (optionally ranked) per-proxy quality.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyRanking {
    /// Predicted optimal MSE per candidate (Proposition 2 plug-in), aligned
    /// with the input order.
    pub predicted_mse: Vec<f64>,
    /// Candidate indices sorted best (lowest predicted MSE) first.
    pub order: Vec<usize>,
}

impl ProxyRanking {
    /// The best candidate's index.
    pub fn best(&self) -> usize {
        self.order[0]
    }
}

/// Estimates per-stratum `p̂_k, σ̂_k` for one candidate proxy from shared
/// pilot samples, then applies Proposition 2.
fn predicted_mse_for(
    proxy: &[f64],
    pilot: &[PilotSample],
    strata: usize,
    budget: usize,
) -> f64 {
    let stratification = Stratification::by_proxy_quantile(proxy, strata);
    let mut tallies = vec![Tally::default(); strata];
    for s in pilot {
        tallies[stratification.locate(s.index).0].push(s.labeled);
    }
    let (p, sigma): (Vec<f64>, Vec<f64>) = tallies
        .iter()
        .zip(stratification.sizes())
        .map(|(t, size)| {
            let e = t.estimate(size);
            (e.p_hat, e.sigma_hat)
        })
        .unzip();
    optimal_mse(&p, &sigma, budget)
}

/// Ranks candidate proxies by predicted optimal MSE (§3.4).
///
/// # Panics
/// Panics if `proxies` is empty or candidates have unequal lengths — those
/// are caller bugs, not data conditions.
pub fn rank_proxies(
    proxies: &[&[f64]],
    pilot: &[PilotSample],
    strata: usize,
    budget: usize,
) -> ProxyRanking {
    assert!(!proxies.is_empty(), "need at least one candidate proxy");
    let n = proxies[0].len();
    assert!(proxies.iter().all(|p| p.len() == n), "candidate proxies must align");
    let predicted_mse: Vec<f64> =
        proxies.iter().map(|p| predicted_mse_for(p, pilot, strata, budget)).collect();
    let mut order: Vec<usize> = (0..proxies.len()).collect();
    order.sort_by(|&a, &b| predicted_mse[a].total_cmp(&predicted_mse[b]));
    ProxyRanking { predicted_mse, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abae_data::FnOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Population where the label depends on a hidden score; proxy A sees
    /// it exactly, proxy B sees noise-corrupted, proxy C is pure noise.
    fn candidates(n: usize, seed: u64) -> (Vec<bool>, Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hidden: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let labels: Vec<bool> = hidden.iter().map(|&h| rng.gen::<f64>() < h * h).collect();
        let values: Vec<f64> = hidden.iter().map(|&h| 10.0 * h + 1.0).collect();
        let perfect: Vec<f64> = hidden.iter().map(|&h| h * h).collect();
        let noisy: Vec<f64> = hidden
            .iter()
            .map(|&h| (h * h + rng.gen_range(-0.4..0.4)).clamp(0.0, 1.0))
            .collect();
        let useless: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        (labels, values, vec![perfect, noisy, useless])
    }

    #[test]
    fn ranks_informative_proxy_first_and_noise_last() {
        let n = 30_000;
        let (labels, values, proxies) = candidates(n, 1);
        let oracle = FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] });
        let mut rng = StdRng::seed_from_u64(2);
        let pilot = draw_pilot(n, &oracle, 2000, &mut rng);
        let refs: Vec<&[f64]> = proxies.iter().map(Vec::as_slice).collect();
        let ranking = rank_proxies(&refs, &pilot, 5, 10_000);
        assert_eq!(ranking.best(), 0, "ranking {:?}", ranking);
        assert_eq!(*ranking.order.last().unwrap(), 2, "ranking {:?}", ranking);
        // Predicted MSEs are finite and ordered.
        assert!(ranking.predicted_mse[0] < ranking.predicted_mse[2]);
    }

    #[test]
    fn pilot_draw_is_without_replacement_and_counts_oracle_calls() {
        let oracle = FnOracle::new(|i| Labeled { matches: true, value: i as f64 });
        let mut rng = StdRng::seed_from_u64(3);
        let pilot = draw_pilot(100, &oracle, 60, &mut rng);
        assert_eq!(pilot.len(), 60);
        assert_eq!(oracle.calls(), 60);
        let mut idx: Vec<usize> = pilot.iter().map(|p| p.index).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 60);
    }

    #[test]
    fn empty_pilot_gives_infinite_predictions() {
        let proxy: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let ranking = rank_proxies(&[&proxy], &[], 5, 1000);
        assert!(ranking.predicted_mse[0].is_infinite());
    }

    #[test]
    fn prediction_correlates_with_realized_rmse() {
        // The paper claims the Prop-2 formula "is a good predictor of
        // relative performance": the best-ranked proxy should realize a
        // lower RMSE than the worst-ranked when actually running ABae.
        use crate::config::{AbaeConfig, Aggregate};
        use crate::two_stage::run_abae;

        let n = 30_000;
        let (labels, values, proxies) = candidates(n, 4);
        let exact = {
            let (mut s, mut c) = (0.0, 0);
            for i in 0..n {
                if labels[i] {
                    s += values[i];
                    c += 1;
                }
            }
            s / c as f64
        };
        let oracle = {
            let labels = labels.clone();
            let values = values.clone();
            FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] })
        };
        let mut rng = StdRng::seed_from_u64(5);
        let pilot = draw_pilot(n, &oracle, 2000, &mut rng);
        let refs: Vec<&[f64]> = proxies.iter().map(Vec::as_slice).collect();
        let ranking = rank_proxies(&refs, &pilot, 5, 2000);

        let cfg = AbaeConfig { budget: 2000, ..Default::default() };
        let mut rmse_for = |proxy: &[f64]| {
            let mut errs = Vec::new();
            for _ in 0..40 {
                let r = run_abae(proxy, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
                errs.push(r.estimate - exact);
            }
            (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt()
        };
        let best_rmse = rmse_for(&proxies[ranking.best()]);
        let worst_rmse = rmse_for(&proxies[*ranking.order.last().unwrap()]);
        assert!(
            best_rmse < worst_rmse,
            "selected proxy RMSE {best_rmse} should beat worst {worst_rmse}"
        );
    }
}
