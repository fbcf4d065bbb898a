//! Stratified bootstrap confidence intervals (Algorithm 2).
//!
//! Because the per-stratum samples from both stages are i.i.d. within the
//! stratum, Algorithm 2 resamples *within each stratum* — with replacement,
//! at the original sample size — recomputes `p̂*_k, μ̂*_k` and the combined
//! estimate, repeats `β` times, and reports the `[α/2, 1 − α/2]` percentile
//! interval.
//!
//! # The replicate kernel
//!
//! A replicate needs only each stratum's positive count and the running
//! mean of its positive values: [`combine_estimate`] reads `|S_k|`, `p̂_k`
//! and `μ̂_k`, never `σ̂_k`. The kernel therefore writes each drawn value
//! to a scratch slot and advances the slot only when the draw matches, so
//! a replicate's positives are compacted as they are drawn, with no copy
//! of the draws and no M2, minimum or maximum. The running means of
//! `LANES` replicates then advance in lockstep: step `j` updates every
//! lane whose stratum holds more than `j` positives, so the lanes' serial
//! division chains overlap instead of running one after another.
//!
//! The answers are bit-identical to resampling into a vector and folding
//! it with [`StratumEstimate::from_draws`], by construction:
//!
//! * the RNG calls are the same and in the same order — replicate-major,
//!   then strata in order, then one `gen_range(0..n)` per draw — so each
//!   replicate resamples the same draws;
//! * each lane folds its positives in draw order with the recurrence
//!   `mean += (x − mean) / count` of [`abae_stats::StreamingMoments`],
//!   starting from `0.0`; a lane past its count keeps its mean;
//! * `p̂ = positives / draws` and `μ̂ = 0` without positives, as in
//!   `from_draws`, and the replicate estimate is the same
//!   [`combine_estimate`] call.
//!
//! A block of `LANES` replicates holds `LANES × draws` values of scratch.
//! The lane count is the widest of 8, 4, 2 whose `LANES × (draws + 1) × 8`
//! bytes stay under `SCRATCH_CAP_BYTES` (1 MiB, up to 16,383 draws at 8
//! lanes), else 1, so a census-sized draw set holds one replicate's
//! positives at a time. Every lane count runs the same generic kernel.
//!
//! The paper notes the bootstrap's CPU cost is negligible next to oracle
//! invocations (§3.1: 1,000 trials cost about as much as 2,500 oracle
//! calls on a T4). The Criterion case `bootstrap_1000_trials` in
//! `abae_bench` (5 strata × 2,000 draws, 1,000 trials) measures this
//! kernel: 35 ms median on a 2-vCPU VM, against 92 ms for the
//! copy-and-fold loop it replaced. Priced in oracle calls by the
//! repository benchmark (`benchmark/`, `--trace 1`), a `refresh_1m`
//! statement's 1,000-trial bootstrap took 9.4 ms, about 860 calls at
//! `adhoc_wire`'s 10 µs of oracle and admission time per labeled record,
//! against 24.9 ms and about 2,450 calls for the old loop. The paper's
//! ratio held for the old loop; the kernel cuts it to about a third.

use crate::config::{Aggregate, BootstrapConfig};
use crate::estimator::{combine_estimate, StratumEstimate};
use abae_data::Labeled;
use abae_stats::bootstrap::{percentile_ci, ConfidenceInterval};
use rand::Rng;

/// Upper bound, in bytes, on one replicate block's scratch
/// (`LANES × (draws + 1) × 8`) when more than one lane runs.
const SCRATCH_CAP_BYTES: usize = 1 << 20;

/// The lane count for a draw set of `draws` values: the widest of 8, 4, 2
/// whose block scratch fits under [`SCRATCH_CAP_BYTES`], else 1.
fn lanes_for(draws: usize) -> usize {
    let lane_bytes = draws.saturating_add(1).saturating_mul(8);
    [8usize, 4, 2]
        .into_iter()
        .find(|&lanes| lanes.saturating_mul(lane_bytes) <= SCRATCH_CAP_BYTES)
        .unwrap_or(1)
}

/// Algorithm 2: stratified percentile-bootstrap CI.
///
/// `samples[k]` holds stratum `k`'s labeled draws (both stages under sample
/// reuse); `sizes[k]` is the stratum's full population size. Returns `None`
/// when every stratum is empty (no draws at all — no CI is definable).
pub fn stratified_bootstrap_ci<R: Rng + ?Sized>(
    samples: &[Vec<Labeled>],
    sizes: &[usize],
    agg: Aggregate,
    config: &BootstrapConfig,
    rng: &mut R,
) -> Option<ConfidenceInterval> {
    stratified_bootstrap_cis(samples, sizes, std::slice::from_ref(&agg), config, rng)
        .pop()
        .flatten()
}

/// Algorithm 2 for several aggregates at once, sharing the resampling
/// work: each of the `β` replicates resamples the strata *once* and
/// evaluates every requested aggregate on the same resample, so a
/// multi-aggregate query pays one bootstrap instead of `|aggs|`.
///
/// Returns one `Option<ConfidenceInterval>` per entry of `aggs`, in order
/// (`None` for all of them when every stratum is empty or `trials == 0`).
/// For a single aggregate this consumes exactly the same RNG stream as
/// [`stratified_bootstrap_ci`] always has — seeded results are unchanged.
pub fn stratified_bootstrap_cis<R: Rng + ?Sized>(
    samples: &[Vec<Labeled>],
    sizes: &[usize],
    aggs: &[Aggregate],
    config: &BootstrapConfig,
    rng: &mut R,
) -> Vec<Option<ConfidenceInterval>> {
    assert_eq!(samples.len(), sizes.len(), "samples/sizes must align");
    if samples.iter().all(Vec::is_empty) || config.trials == 0 {
        return vec![None; aggs.len()];
    }
    let draws = samples.iter().map(Vec::len).sum();
    let replicates = match lanes_for(draws) {
        8 => replicate_estimates::<8, R>(samples, sizes, aggs, config.trials, rng),
        4 => replicate_estimates::<4, R>(samples, sizes, aggs, config.trials, rng),
        2 => replicate_estimates::<2, R>(samples, sizes, aggs, config.trials, rng),
        _ => replicate_estimates::<1, R>(samples, sizes, aggs, config.trials, rng),
    };
    replicates.into_iter().map(|mut reps| percentile_ci(&mut reps, config.alpha)).collect()
}

/// The replicate kernel (see the module docs): runs `trials` replicates in
/// blocks of `LANES` and returns every aggregate's replicate estimates in
/// replicate order. `samples` must hold at least one draw.
fn replicate_estimates<const LANES: usize, R: Rng + ?Sized>(
    samples: &[Vec<Labeled>],
    sizes: &[usize],
    aggs: &[Aggregate],
    trials: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    // Lane `l`'s positives for stratum `k` start at `l * stride + offsets[k]`.
    let stride: usize = samples.iter().map(Vec::len).sum();
    let offsets: Vec<usize> = samples
        .iter()
        .scan(0, |next, draws| {
            let start = *next;
            *next += draws.len();
            Some(start)
        })
        .collect();
    let mut scratch = vec![0.0f64; LANES * stride];
    let mut positives = vec![[0usize; LANES]; samples.len()];
    let mut means = vec![[0.0f64; LANES]; samples.len()];
    // σ̂ is not a replicate input (`combine_estimate` never reads it).
    let mut strata: Vec<StratumEstimate> = samples
        .iter()
        .zip(sizes)
        .map(|(draws, &size)| StratumEstimate {
            size,
            draws: draws.len(),
            positives: 0,
            p_hat: 0.0,
            mu_hat: 0.0,
            sigma_hat: 0.0,
        })
        .collect();
    let mut replicates: Vec<Vec<f64>> = vec![Vec::with_capacity(trials); aggs.len()];
    let mut done = 0;
    while done < trials {
        let lanes = LANES.min(trials - done);
        positives.fill([0; LANES]);
        for (lane, lane_scratch) in scratch.chunks_exact_mut(stride).take(lanes).enumerate() {
            for ((draws, &offset), counts) in samples.iter().zip(&offsets).zip(&mut positives) {
                let slots = &mut lane_scratch[offset..offset + draws.len()];
                let mut kept = 0;
                for _ in 0..draws.len() {
                    let draw = draws[rng.gen_range(0..draws.len())];
                    slots[kept] = draw.value;
                    kept += usize::from(draw.matches);
                }
                counts[lane] = kept;
            }
        }
        for ((&offset, counts), mean) in offsets.iter().zip(&positives).zip(&mut means) {
            *mean = lockstep_means(&scratch, stride, offset, counts);
        }
        for lane in 0..lanes {
            for ((stratum, counts), mean) in strata.iter_mut().zip(&positives).zip(&means) {
                stratum.positives = counts[lane];
                stratum.p_hat = if stratum.draws == 0 {
                    0.0
                } else {
                    stratum.positives as f64 / stratum.draws as f64
                };
                stratum.mu_hat = if stratum.positives == 0 { 0.0 } else { mean[lane] };
            }
            for (reps, &agg) in replicates.iter_mut().zip(aggs) {
                reps.push(combine_estimate(agg, &strata));
            }
        }
        done += lanes;
    }
    replicates
}

/// Folds each lane's compacted positives — `counts[l]` values at
/// `scratch[l * stride + offset..]` — into their running mean, all lanes in
/// lockstep. Step `j` divides by `j + 1` in every lane at once and keeps
/// the result only in lanes holding more than `j` values, so each lane
/// sees exactly the `StreamingMoments` recurrence over its own values.
fn lockstep_means<const LANES: usize>(
    scratch: &[f64],
    stride: usize,
    offset: usize,
    counts: &[usize; LANES],
) -> [f64; LANES] {
    let mut mean = [0.0f64; LANES];
    let longest = counts.iter().copied().max().unwrap_or(0);
    for j in 0..longest {
        let count = (j + 1) as f64;
        for lane in 0..LANES {
            let x = scratch[lane * stride + offset + j];
            let next = mean[lane] + (x - mean[lane]) / count;
            mean[lane] = if j < counts[lane] { next } else { mean[lane] };
        }
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn labeled(matches: bool, value: f64) -> Labeled {
        Labeled { matches, value }
    }

    /// The replicate loop the kernel replaced, kept as its reference: copy
    /// every resampled draw, then fold the copy with full moments.
    fn reference_replicates<R: Rng + ?Sized>(
        samples: &[Vec<Labeled>],
        sizes: &[usize],
        aggs: &[Aggregate],
        trials: usize,
        rng: &mut R,
    ) -> Vec<Vec<f64>> {
        let mut scratch: Vec<Labeled> = Vec::new();
        let mut replicates: Vec<Vec<f64>> = vec![Vec::with_capacity(trials); aggs.len()];
        for _ in 0..trials {
            let mut strata = Vec::with_capacity(samples.len());
            for (k, draws) in samples.iter().enumerate() {
                scratch.clear();
                if !draws.is_empty() {
                    for _ in 0..draws.len() {
                        scratch.push(draws[rng.gen_range(0..draws.len())]);
                    }
                }
                strata.push(StratumEstimate::from_draws(sizes[k], &scratch));
            }
            for (reps, &agg) in replicates.iter_mut().zip(aggs) {
                reps.push(combine_estimate(agg, &strata));
            }
        }
        replicates
    }

    /// [`stratified_bootstrap_cis`] on top of [`reference_replicates`].
    fn reference_cis<R: Rng + ?Sized>(
        samples: &[Vec<Labeled>],
        sizes: &[usize],
        aggs: &[Aggregate],
        config: &BootstrapConfig,
        rng: &mut R,
    ) -> Vec<Option<ConfidenceInterval>> {
        if samples.iter().all(Vec::is_empty) || config.trials == 0 {
            return vec![None; aggs.len()];
        }
        reference_replicates(samples, sizes, aggs, config.trials, rng)
            .into_iter()
            .map(|mut reps| percentile_ci(&mut reps, config.alpha))
            .collect()
    }

    /// A value from the edge set (±0, large and tiny magnitudes, small
    /// integers) or uniform over ±1e6.
    fn edge_value(gen: &mut StdRng) -> f64 {
        match gen.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e300,
            3 => -1e300,
            4 => 5e-324,
            5 => gen.gen_range(-3i32..4) as f64,
            _ => gen.gen_range(-1e6..1e6),
        }
    }

    /// `strata` strata, each empty, a single draw, all positive, all
    /// negative or mixed, with up to 40 draws and edge-set values.
    fn edge_strata(gen: &mut StdRng, strata: usize) -> (Vec<Vec<Labeled>>, Vec<usize>) {
        let samples: Vec<Vec<Labeled>> = (0..strata)
            .map(|_| {
                let (len, rate) = match gen.gen_range(0..5) {
                    0 => (0, 0.5),
                    1 => (1, 0.5),
                    2 => (gen.gen_range(1..40), 1.0),
                    3 => (gen.gen_range(1..40), 0.0),
                    _ => (gen.gen_range(1..40), gen.gen::<f64>()),
                };
                (0..len).map(|_| labeled(gen.gen::<f64>() < rate, edge_value(gen))).collect()
            })
            .collect();
        let sizes = samples.iter().map(|s| s.len() + gen.gen_range(0..1000)).collect();
        (samples, sizes)
    }

    /// CIs compared by bits, so NaN bounds from overflowing values compare.
    fn ci_bits(cis: &[Option<ConfidenceInterval>]) -> Vec<Option<[u64; 3]>> {
        cis.iter()
            .map(|ci| ci.map(|c| [c.lo.to_bits(), c.hi.to_bits(), c.confidence.to_bits()]))
            .collect()
    }

    fn reps_bits(reps: &[Vec<f64>]) -> Vec<Vec<u64>> {
        reps.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
    }

    const ALL_AGGS: [Aggregate; 3] = [Aggregate::Avg, Aggregate::Sum, Aggregate::Count];

    /// One lane-count instance of [`replicate_estimates`].
    type Kernel = fn(&[Vec<Labeled>], &[usize], &[Aggregate], usize, &mut StdRng) -> Vec<Vec<f64>>;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cis_match_the_copy_and_fold_loop_bit_for_bit(
            seed in 0u64..u64::MAX,
            strata in 0usize..9,
            trials_pick in 0usize..5,
            aggs in 0usize..4,
        ) {
            let mut gen = StdRng::seed_from_u64(seed);
            let (samples, sizes) = edge_strata(&mut gen, strata);
            let trials = [1, 7, 8, 9, 1000][trials_pick];
            let config = BootstrapConfig { trials, alpha: 0.05 };
            let aggs = &ALL_AGGS[..aggs];
            let mut ours = StdRng::seed_from_u64(seed ^ 1);
            let mut theirs = ours.clone();
            let got = stratified_bootstrap_cis(&samples, &sizes, aggs, &config, &mut ours);
            let want = reference_cis(&samples, &sizes, aggs, &config, &mut theirs);
            prop_assert_eq!(ci_bits(&got), ci_bits(&want));
            prop_assert_eq!(ours.next_u64(), theirs.next_u64());
        }

        #[test]
        fn every_lane_instance_matches_the_reference(
            seed in 0u64..u64::MAX,
            strata in 1usize..9,
            trials_pick in 0usize..4,
        ) {
            let mut gen = StdRng::seed_from_u64(seed);
            let (samples, sizes) = edge_strata(&mut gen, strata);
            prop_assume!(samples.iter().any(|s| !s.is_empty()));
            let trials = [1, 7, 8, 9][trials_pick];
            let rng = StdRng::seed_from_u64(seed ^ 2);
            let mut theirs = rng.clone();
            let want = reference_replicates(&samples, &sizes, &ALL_AGGS, trials, &mut theirs);
            let after = theirs.next_u64();
            let kernels: [(usize, Kernel); 4] = [
                (1, replicate_estimates::<1, StdRng>),
                (2, replicate_estimates::<2, StdRng>),
                (4, replicate_estimates::<4, StdRng>),
                (8, replicate_estimates::<8, StdRng>),
            ];
            for (lanes, kernel) in kernels {
                let mut ours = rng.clone();
                let got = kernel(&samples, &sizes, &ALL_AGGS, trials, &mut ours);
                prop_assert_eq!(reps_bits(&got), reps_bits(&want), "{} lanes", lanes);
                prop_assert_eq!(ours.next_u64(), after, "{} lanes", lanes);
            }
        }
    }

    #[test]
    fn lane_count_keeps_the_block_scratch_under_the_cap() {
        assert_eq!(lanes_for(0), 8);
        assert_eq!(lanes_for(16_383), 8);
        assert_eq!(lanes_for(16_384), 4);
        assert_eq!(lanes_for(32_767), 4);
        assert_eq!(lanes_for(32_768), 2);
        assert_eq!(lanes_for(65_535), 2);
        assert_eq!(lanes_for(65_536), 1);
        assert_eq!(lanes_for(usize::MAX), 1);
        for draws in [0, 1, 999, 16_383, 16_384, 40_000, 65_535] {
            assert!(lanes_for(draws) * (draws + 1) * 8 <= SCRATCH_CAP_BYTES, "{draws}");
        }
    }

    #[test]
    fn large_draw_sets_match_the_reference_at_every_lane_count() {
        // Total draws straddling each lane-count threshold, so the public
        // entry point dispatches to 8, 4, 2 and 1 lanes in turn.
        for (per_stratum, lanes) in [(3_000, 8), (5_000, 4), (10_000, 2), (20_000, 1)] {
            let mut gen = StdRng::seed_from_u64(per_stratum as u64);
            let samples: Vec<Vec<Labeled>> = (0..4)
                .map(|k| {
                    (0..per_stratum)
                        .map(|_| labeled(gen.gen::<f64>() < 0.2 * k as f64, edge_value(&mut gen)))
                        .collect()
                })
                .collect();
            assert_eq!(lanes_for(4 * per_stratum), lanes);
            let sizes = vec![100_000; 4];
            let config = BootstrapConfig { trials: 11, alpha: 0.1 };
            let mut ours = StdRng::seed_from_u64(3);
            let mut theirs = ours.clone();
            let got = stratified_bootstrap_cis(&samples, &sizes, &ALL_AGGS, &config, &mut ours);
            let want = reference_cis(&samples, &sizes, &ALL_AGGS, &config, &mut theirs);
            assert_eq!(ci_bits(&got), ci_bits(&want), "{lanes} lanes");
            assert_eq!(ours.next_u64(), theirs.next_u64(), "{lanes} lanes");
        }
    }

    #[test]
    fn constant_samples_give_zero_width_interval() {
        let samples = vec![vec![labeled(true, 5.0); 20], vec![labeled(true, 5.0); 20]];
        let sizes = vec![100, 100];
        let mut rng = StdRng::seed_from_u64(1);
        let ci = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Avg,
            &BootstrapConfig { trials: 200, alpha: 0.05 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }

    #[test]
    fn empty_samples_yield_no_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(stratified_bootstrap_ci(
            &[vec![], vec![]],
            &[10, 10],
            Aggregate::Avg,
            &BootstrapConfig::default(),
            &mut rng,
        )
        .is_none());
    }

    #[test]
    fn zero_trials_yield_no_interval() {
        let samples = vec![vec![labeled(true, 1.0)]];
        let mut rng = StdRng::seed_from_u64(3);
        assert!(stratified_bootstrap_ci(
            &samples,
            &[10],
            Aggregate::Avg,
            &BootstrapConfig { trials: 0, alpha: 0.05 },
            &mut rng,
        )
        .is_none());
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let samples = vec![
            (0..50).map(|i| labeled(i % 3 != 0, (i % 5) as f64)).collect::<Vec<_>>(),
            (0..50).map(|i| labeled(i % 2 == 0, (i % 7) as f64)).collect::<Vec<_>>(),
        ];
        let sizes = vec![500, 500];
        let point = combine_estimate(
            Aggregate::Avg,
            &[
                StratumEstimate::from_draws(500, &samples[0]),
                StratumEstimate::from_draws(500, &samples[1]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let ci = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Avg,
            &BootstrapConfig { trials: 500, alpha: 0.05 },
            &mut rng,
        )
        .unwrap();
        assert!(ci.lo <= point && point <= ci.hi, "[{}, {}] vs {point}", ci.lo, ci.hi);
    }

    #[test]
    fn more_samples_narrow_the_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        let gen_samples = |n: usize, rng: &mut StdRng| -> Vec<Vec<Labeled>> {
            vec![(0..n)
                .map(|_| labeled(rng.gen::<f64>() < 0.5, rng.gen::<f64>() * 10.0))
                .collect()]
        };
        let small = gen_samples(40, &mut rng);
        let large = gen_samples(4000, &mut rng);
        let cfg = BootstrapConfig { trials: 400, alpha: 0.05 };
        let ci_small =
            stratified_bootstrap_ci(&small, &[10_000], Aggregate::Avg, &cfg, &mut rng).unwrap();
        let ci_large =
            stratified_bootstrap_ci(&large, &[10_000], Aggregate::Avg, &cfg, &mut rng).unwrap();
        assert!(
            ci_large.width() < ci_small.width(),
            "large {} vs small {}",
            ci_large.width(),
            ci_small.width()
        );
    }

    #[test]
    fn lower_alpha_widens_interval() {
        let mut rng = StdRng::seed_from_u64(6);
        let samples: Vec<Vec<Labeled>> = vec![(0..200)
            .map(|_| labeled(rng.gen::<f64>() < 0.4, rng.gen::<f64>() * 5.0))
            .collect()];
        let wide = stratified_bootstrap_ci(
            &samples,
            &[1000],
            Aggregate::Avg,
            &BootstrapConfig { trials: 800, alpha: 0.01 },
            &mut rng,
        )
        .unwrap();
        let narrow = stratified_bootstrap_ci(
            &samples,
            &[1000],
            Aggregate::Avg,
            &BootstrapConfig { trials: 800, alpha: 0.2 },
            &mut rng,
        )
        .unwrap();
        assert!(wide.width() >= narrow.width());
        assert_eq!(wide.confidence, 0.99);
        assert_eq!(narrow.confidence, 0.8);
    }

    #[test]
    fn multi_aggregate_cis_share_one_resampling_pass() {
        let samples: Vec<Vec<Labeled>> = vec![
            (0..80).map(|i| labeled(i % 3 != 0, (i % 5) as f64)).collect(),
            (0..80).map(|i| labeled(i % 2 == 0, (i % 7) as f64)).collect(),
        ];
        let sizes = vec![400, 400];
        let cfg = BootstrapConfig { trials: 300, alpha: 0.05 };
        // The resampling stream does not depend on which aggregates are
        // requested, so each aggregate's CI is identical whether computed
        // alone or as part of a multi-aggregate batch with the same seed.
        let all = stratified_bootstrap_cis(
            &samples,
            &sizes,
            &[Aggregate::Avg, Aggregate::Sum, Aggregate::Count],
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        let avg_alone = stratified_bootstrap_ci(
            &samples,
            &sizes,
            Aggregate::Avg,
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], avg_alone);
        // Every aggregate's CI brackets its own point estimate.
        let strata = [
            StratumEstimate::from_draws(400, &samples[0]),
            StratumEstimate::from_draws(400, &samples[1]),
        ];
        for (ci, agg) in all.iter().zip([Aggregate::Avg, Aggregate::Sum, Aggregate::Count]) {
            let ci = ci.expect("non-empty samples");
            let point = combine_estimate(agg, &strata);
            assert!(ci.lo <= point && point <= ci.hi, "{agg:?}: [{}, {}] vs {point}", ci.lo, ci.hi);
        }
    }

    #[test]
    fn multi_aggregate_cis_handle_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(10);
        let empty = stratified_bootstrap_cis(
            &[vec![], vec![]],
            &[10, 10],
            &[Aggregate::Avg, Aggregate::Sum],
            &BootstrapConfig::default(),
            &mut rng,
        );
        assert_eq!(empty, vec![None, None]);
        let no_aggs = stratified_bootstrap_cis(
            &[vec![labeled(true, 1.0)]],
            &[10],
            &[],
            &BootstrapConfig::default(),
            &mut rng,
        );
        assert!(no_aggs.is_empty());
    }

    #[test]
    fn count_bootstrap_scales_with_population() {
        // All samples positive; COUNT replicates are deterministic at the
        // population size regardless of resampling.
        let samples = vec![vec![labeled(true, 1.0); 30]];
        let mut rng = StdRng::seed_from_u64(7);
        let ci = stratified_bootstrap_ci(
            &samples,
            &[777],
            Aggregate::Count,
            &BootstrapConfig { trials: 100, alpha: 0.05 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(ci.lo, 777.0);
        assert_eq!(ci.hi, 777.0);
    }
}
