//! Closed-form error of stratified estimation (Proposition 2).
//!
//! Under the optimal allocation with deterministic draws, the squared error
//! of `μ̂_all` is
//!
//! ```text
//! E[(μ̂_all − μ_all)²] = (Σ_k √p_k σ_k)² / (N · p_all²)
//! ```
//!
//! ABae uses this formula with plug-in estimates in two places: ranking
//! candidate proxies (§3.4) and the group-by allocation objectives
//! (Eq. 10/11), where the per-stratification error enters as
//! `Σ_k ŵ²_k σ̂²_k / (p̂_k T̂_k)` per unit of Stage-2 budget.

/// Proposition 2: the MSE of the optimal allocation given exact `p_k`,
/// `σ_k`, and total budget `n`.
///
/// Returns `f64::INFINITY` when `p_all = Σ p_k` is zero (no stratum has any
/// positives — the estimand is undefined and no budget helps).
pub fn optimal_mse(p: &[f64], sigma: &[f64], n: usize) -> f64 {
    assert_eq!(p.len(), sigma.len(), "p and sigma must align");
    if n == 0 {
        return f64::INFINITY;
    }
    let p_all: f64 = p.iter().sum();
    if p_all <= 0.0 {
        return f64::INFINITY;
    }
    let s: f64 = p.iter().zip(sigma).map(|(&pk, &sk)| pk.max(0.0).sqrt() * sk.max(0.0)).sum();
    (s * s) / (n as f64 * p_all * p_all)
}

/// The generic stratified-MSE formula of Eq. 3 for an arbitrary allocation
/// `t` (fractions of the budget `n` offered to each stratum):
/// `Σ_k w_k² σ_k² / (p_k t_k n)` with `w_k = p_k / p_all`.
///
/// Strata with `p_k·t_k·n = 0` but positive weight contribute infinity
/// (they would never be estimated); zero-weight strata contribute nothing.
pub fn allocation_mse(p: &[f64], sigma: &[f64], t: &[f64], n: usize) -> f64 {
    assert_eq!(p.len(), sigma.len(), "p and sigma must align");
    assert_eq!(p.len(), t.len(), "p and t must align");
    let p_all: f64 = p.iter().sum();
    if p_all <= 0.0 || n == 0 {
        return f64::INFINITY;
    }
    let mut total = 0.0;
    for ((&pk, &sk), &tk) in p.iter().zip(sigma).zip(t) {
        let wk = pk / p_all;
        if wk == 0.0 || sk == 0.0 {
            continue;
        }
        let eff = pk * tk * n as f64;
        if eff <= 0.0 {
            return f64::INFINITY;
        }
        total += wk * wk * sk * sk / eff;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::optimal_allocation;

    #[test]
    fn proposition_2_closed_form_matches_eq3() {
        // Eq. 4 must equal Eq. 3 evaluated at T*.
        let p = [0.1, 0.4, 0.8];
        let sigma = [1.0, 2.0, 0.5];
        let n = 1000;
        let t_star = optimal_allocation(&p, &sigma);
        let direct = optimal_mse(&p, &sigma, n);
        let via_allocation = allocation_mse(&p, &sigma, &t_star, n);
        assert!(
            (direct - via_allocation).abs() < 1e-12,
            "{direct} vs {via_allocation}"
        );
    }

    #[test]
    fn optimal_allocation_beats_any_other() {
        let p = [0.05, 0.3, 0.9];
        let sigma = [2.0, 1.0, 0.3];
        let n = 500;
        let best = optimal_mse(&p, &sigma, n);
        for t in [
            vec![1.0 / 3.0; 3],
            vec![0.8, 0.1, 0.1],
            vec![0.1, 0.1, 0.8],
            vec![0.2, 0.5, 0.3],
        ] {
            let other = allocation_mse(&p, &sigma, &t, n);
            assert!(best <= other + 1e-12, "allocation {t:?} beat optimum: {other} < {best}");
        }
    }

    #[test]
    fn mse_scales_inversely_with_budget() {
        let p = [0.2, 0.6];
        let sigma = [1.0, 1.5];
        let at_100 = optimal_mse(&p, &sigma, 100);
        let at_1000 = optimal_mse(&p, &sigma, 1000);
        assert!((at_100 / at_1000 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn section_4_2_k_fold_improvement_example() {
        // p_1 = 1, p_k = 0 otherwise, σ_k = 1: uniform converges at K/N,
        // stratified at 1/N — a K-fold gap (§4.2).
        let k = 5;
        let mut p = vec![0.0; k];
        p[0] = 1.0;
        let sigma = vec![1.0; k];
        let n = 1000;
        let strat = optimal_mse(&p, &sigma, n);
        assert!((strat - 1.0 / n as f64).abs() < 1e-12);
        // Uniform sampling is the allocation with equal weights 1/K.
        let uniform = allocation_mse(&p, &sigma, &vec![1.0 / k as f64; k], n);
        let want = k as f64 / n as f64;
        assert!((uniform - want).abs() < 1e-9 * want, "uniform {uniform}");
    }

    #[test]
    fn degenerate_inputs_are_infinite() {
        assert!(optimal_mse(&[0.0, 0.0], &[1.0, 1.0], 100).is_infinite());
        assert!(optimal_mse(&[0.5], &[1.0], 0).is_infinite());
        assert!(allocation_mse(&[0.5, 0.5], &[1.0, 1.0], &[1.0, 0.0], 100).is_infinite());
    }

    #[test]
    fn zero_sigma_everywhere_means_zero_error() {
        // If the statistic is constant within every stratum, one positive
        // sample per stratum nails it.
        assert_eq!(optimal_mse(&[0.5, 0.5], &[0.0, 0.0], 100), 0.0);
    }
}
