//! The two-stage sampling algorithm (Algorithm 1, `ABaeSample`).
//!
//! Stage 1 (pilot): draw `N1` records without replacement from every
//! stratum, label them with the oracle, and form plug-in estimates of
//! `p_k` and `σ_k`. Stage 2: allocate `N2` further draws proportionally to
//! `T̂_k ∝ √p̂_k·σ̂_k` (floored per the paper), continuing the
//! without-replacement draw within each stratum. Final estimates use the
//! samples of both stages (sample reuse; §5.3 shows disabling it —
//! [`SampleReuse::Disabled`] — costs substantial accuracy).
//!
//! Both the blocking entry points and the anytime entry point
//! ([`run_abae_multi_progressive`]) run on one chunked core: labeling
//! proceeds in budget chunks, each chunk's labels fold into mergeable
//! [`StratumStats`] (a commutative monoid, so chunk boundaries cannot
//! change the accumulated state), and after every chunk a
//! [`Snapshot`] — a statistically valid estimate of the same query —
//! can be emitted. The blocking path is simply the one-chunk instance.
//! All randomness (which records to draw) stays on the caller's RNG in a
//! fixed order. An intermediate snapshot's CIs are closed-form
//! ([`closed_form_ci`] over the merged strata), so a snapshot reads no
//! RNG and costs O(K) once its strata are folded. A run that spends its
//! cap ends with Algorithm 2's bootstrap on the caller's stream, so its
//! final snapshot is bit-identical to a blocking run at any thread count
//! and any chunk size.
//!
//! §3.1 prices a 1,000-trial bootstrap at about 2,500 oracle calls on the
//! paper's T4. Bootstrapping every snapshot would pay that at every chunk
//! boundary, over every draw so far: 57 of 61 ms of a typical `UNTIL`
//! statement of the repository benchmark, for its 14 snapshots. With
//! closed-form snapshots a progressive run pays for at most one
//! bootstrap, when it spends its cap.

use crate::bootstrap::{bootstrap_cis_on, stratified_bootstrap_cis};
use crate::config::{AbaeConfig, Aggregate, ConfigError, Rounding, SampleReuse};
use crate::estimator::{combine_estimate, StratumEstimate};
use crate::normal_ci::closed_form_ci;
use crate::pipeline::{self, ReplicateThreads};
use crate::strata::Stratification;
use crate::stratum_stats::StratumStats;
use abae_data::{Labeled, Oracle};
use abae_sampling::budget::{
    chunk_sizes, floor_allocation, largest_remainder_allocation, stage_split,
};
use abae_sampling::pool::IndexPool;
use abae_stats::bootstrap::ConfidenceInterval;
use rand::Rng;

/// Full output of one two-stage run, including everything the bootstrap
/// needs to resample.
#[derive(Debug, Clone)]
pub struct TwoStageRun {
    /// The point estimate for the requested aggregate.
    pub estimate: f64,
    /// Per-stratum estimates underlying the final answer.
    pub strata: Vec<StratumEstimate>,
    /// Pilot (Stage-1) estimates, before Stage-2 refinement.
    pub pilot: Vec<StratumEstimate>,
    /// The estimated optimal allocation `T̂_k` computed after Stage 1.
    pub t_hat: Vec<f64>,
    /// Per-stratum labeled draws that entered the final estimates (both
    /// stages under reuse, Stage-2 only otherwise).
    pub samples: Vec<Vec<Labeled>>,
    /// Total oracle invocations spent.
    pub oracle_calls: u64,
}

/// A point estimate with an optional confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct AbaeResult {
    /// The point estimate.
    pub estimate: f64,
    /// Bootstrap percentile CI, when requested.
    pub ci: Option<ConfidenceInterval>,
    /// Total oracle invocations spent.
    pub oracle_calls: u64,
}

/// One aggregate's answer within a shared-labeling multi-aggregate run.
#[derive(Debug, Clone, PartialEq)]
pub struct AggAnswer {
    /// The aggregate this answer is for.
    pub agg: Aggregate,
    /// The point estimate.
    pub estimate: f64,
    /// The CI: Algorithm 2's percentile bootstrap for a blocking or capped
    /// answer (`None` when no draws or `trials == 0`), closed-form for an
    /// intermediate or early-stopped snapshot (`None` when the variance is
    /// not estimable yet).
    pub ci: Option<ConfidenceInterval>,
}

/// Result of [`run_abae_multi_with_ci`]: one answer per requested
/// aggregate, all paid for by a single oracle budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAggResult {
    /// Answers in the order the aggregates were requested.
    pub answers: Vec<AggAnswer>,
    /// Total oracle invocations spent — the same as a single-aggregate run
    /// with the same configuration, however many aggregates were asked for.
    pub oracle_calls: u64,
}

/// One anytime snapshot: a statistically valid answer to the same query
/// from the draws labeled so far.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// One answer per requested aggregate, as of this snapshot. Estimates
    /// come from the merged [`StratumStats`]. An intermediate snapshot's
    /// CIs are closed-form ([`closed_form_ci`], `None` where the variance
    /// is not estimable yet) and read no RNG; the last snapshot of a run
    /// that spends its cap carries the blocking run's bootstrap CIs.
    pub answers: Vec<AggAnswer>,
    /// Oracle labels consumed up to and including this snapshot's chunk.
    pub budget_spent: u64,
    /// `true` on the last snapshot of a run — either the budget was
    /// exhausted (in which case the snapshot is bit-identical to a blocking
    /// run) or the CI width target was reached and the run stopped early.
    pub done: bool,
}

/// Knobs of the anytime executor ([`run_abae_multi_progressive`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgressiveOptions {
    /// Oracle labels per chunk between snapshots. `None` uses the exec
    /// batch size ([`crate::pipeline::ExecOptions::batch_size`]); values
    /// are clamped to at least 1. Chunk size changes only *when* snapshots
    /// are emitted, never what is drawn or the final answer.
    pub chunk: Option<usize>,
    /// Early-stop rule: stop at the first chunk boundary where the primary
    /// (first) aggregate's snapshot CI is narrower than this. `None` runs
    /// the full budget.
    pub target_ci_width: Option<f64>,
}

impl ProgressiveOptions {
    /// Checks the early-stop target, which must be unset or a positive
    /// finite number. The progressive executors run this before any work,
    /// so a caller that stratifies on its own can check it first too.
    ///
    /// # Errors
    /// [`ConfigError::BadTargetWidth`] for any other target.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.target_ci_width {
            Some(w) if !(w.is_finite() && w > 0.0) => Err(ConfigError::BadTargetWidth(w)),
            _ => Ok(()),
        }
    }
}

/// Output of the chunked sampling core shared by every entry point.
struct ChunkedRun {
    /// Pilot estimates (empty when the run stopped during Stage 1).
    pilot: Vec<StratumEstimate>,
    /// Estimated optimal allocation (empty when stopped during Stage 1).
    t_hat: Vec<f64>,
    /// Per-stratum labeled draws in draw order, reuse-adjusted — exactly
    /// what the blocking estimator and bootstrap consume.
    samples: Vec<Vec<Labeled>>,
    /// Labels actually consumed (≤ the configured budget on early stop).
    budget_spent: u64,
    /// Whether the observer stopped the run before the budget was spent.
    stopped: bool,
    /// Oracle invocations charged (cache hits excluded by caching oracles).
    oracle_calls: u64,
}

/// Labels one chunk of `(stratum, record)` work items, appends the labels
/// to `out` in draw order, and folds the chunk into the accumulated
/// per-stratum states via [`StratumStats::merge`] — the chunked-ingest
/// path: each chunk is a partial state merged into the whole.
fn label_chunk<O: Oracle + ?Sized>(
    oracle: &O,
    config: &AbaeConfig,
    items: &[(usize, usize)],
    out: &mut [Vec<Labeled>],
    stats: &mut [StratumStats],
    sizes: &[usize],
) {
    let ids: Vec<usize> = items.iter().map(|&(_, id)| id).collect();
    let labels = pipeline::label_all(oracle, &ids, &config.exec);
    let mut partial: Vec<Vec<(usize, Labeled)>> = vec![Vec::new(); out.len()];
    for (&(s, id), &label) in items.iter().zip(&labels) {
        out[s].push(label);
        partial[s].push((id, label));
    }
    for (s, p) in partial.into_iter().enumerate() {
        if !p.is_empty() {
            let incoming = StratumStats::from_labeled(sizes[s], p);
            let acc = std::mem::replace(&mut stats[s], StratumStats::empty(sizes[s]));
            stats[s] = StratumStats::merge(acc, incoming);
        }
    }
}

/// The chunked two-stage core. All RNG consumption (which records to draw)
/// happens here, on the caller's thread, in a fixed order: Stage-1 draws
/// per stratum, then Stage-2 draws per stratum — identical to the blocking
/// interleaved order because labeling never touches the RNG. Labeling
/// proceeds in `chunk`-sized pieces; after every chunk *except the last of
/// a run* the observer sees the merged per-stratum states, the budget
/// spent, and whether the pilot stage is complete, and may stop the run by
/// returning `true`. With `chunk == usize::MAX` and an always-`false`
/// observer this is exactly the blocking executor.
fn two_stage_chunked<O: Oracle + ?Sized, R: Rng + ?Sized>(
    stratification: &Stratification,
    oracle: &O,
    config: &AbaeConfig,
    chunk: usize,
    rng: &mut R,
    observe: &mut dyn FnMut(&[StratumStats], u64, bool) -> bool,
) -> ChunkedRun {
    let k = stratification.len();
    let split = stage_split(config.budget, config.stage1_fraction, k);
    let calls_before = oracle.calls();

    // Stage-1 draws, hoisted ahead of labeling: N1 per stratum, in stratum
    // order — the same RNG stream as drawing and labeling interleaved.
    let sizes: Vec<usize> = (0..k).map(|s| stratification.stratum(s).len()).collect();
    let mut pools: Vec<IndexPool> = Vec::with_capacity(k);
    let mut flat1: Vec<(usize, usize)> = Vec::new();
    for s in 0..k {
        let records = stratification.stratum(s);
        let mut pool = IndexPool::new(records.len());
        flat1.extend(pool.draw(split.n1_per_stratum, rng).iter().map(|&l| (s, records[l])));
        pools.push(pool);
    }

    let mut stats: Vec<StratumStats> =
        sizes.iter().map(|&n| StratumStats::empty(n)).collect();
    let mut stage1: Vec<Vec<Labeled>> = vec![Vec::new(); k];
    let mut spent = 0u64;
    let mut stopped = false;

    // Stage-1 labeling in chunks. The final Stage-1 chunk is not a
    // snapshot boundary by itself — whether it is the run's last chunk
    // depends on whether Stage 2 gets any allocation, so its observer call
    // is deferred until that is known.
    let chunks1 = chunk_sizes(flat1.len(), chunk);
    let mut start = 0;
    for (i, &csize) in chunks1.iter().enumerate() {
        label_chunk(oracle, config, &flat1[start..start + csize], &mut stage1, &mut stats, &sizes);
        start += csize;
        spent += csize as u64;
        if i + 1 < chunks1.len() && observe(&stats, spent, false) {
            stopped = true;
            break;
        }
    }

    let mut pilot: Vec<StratumEstimate> = Vec::new();
    let mut t_hat: Vec<f64> = Vec::new();
    let mut stage2: Vec<Vec<Labeled>> = vec![Vec::new(); k];
    if !stopped {
        pilot = stage1
            .iter()
            .enumerate()
            .map(|(s, draws)| StratumEstimate::from_draws(sizes[s], draws))
            .collect();

        // Allocation from pilot estimates: T̂_k ∝ √p̂_k σ̂_k.
        let weights: Vec<f64> = pilot.iter().map(|e| e.p_hat.sqrt() * e.sigma_hat).collect();
        t_hat = crate::allocation::optimal_allocation(
            &pilot.iter().map(|e| e.p_hat).collect::<Vec<_>>(),
            &pilot.iter().map(|e| e.sigma_hat).collect::<Vec<_>>(),
        );
        let stage2_alloc = match config.rounding {
            Rounding::Floor => floor_allocation(&weights, split.n2_total),
            Rounding::LargestRemainder => largest_remainder_allocation(&weights, split.n2_total),
        };

        // Stage-2 draws, hoisted: extend each stratum's without-replacement
        // draw, in stratum order — again the blocking RNG stream.
        let mut flat2: Vec<(usize, usize)> = Vec::new();
        for s in 0..k {
            let records = stratification.stratum(s);
            flat2.extend(pools[s].draw(stage2_alloc[s], rng).iter().map(|&l| (s, records[l])));
        }

        // The deferred Stage-1 boundary is a snapshot only when Stage 2 has
        // work left (otherwise it is the run's final chunk).
        if !flat2.is_empty() && observe(&stats, spent, true) {
            stopped = true;
        }
        if !stopped {
            if config.reuse == SampleReuse::Disabled {
                // Final estimates discard the pilot, so the snapshot state
                // resets at the stage boundary too.
                stats = sizes.iter().map(|&n| StratumStats::empty(n)).collect();
            }
            let chunks2 = chunk_sizes(flat2.len(), chunk);
            let mut start = 0;
            for (i, &csize) in chunks2.iter().enumerate() {
                label_chunk(
                    oracle,
                    config,
                    &flat2[start..start + csize],
                    &mut stage2,
                    &mut stats,
                    &sizes,
                );
                start += csize;
                spent += csize as u64;
                if i + 1 < chunks2.len() && observe(&stats, spent, true) {
                    stopped = true;
                    break;
                }
            }
        }
    }

    let samples: Vec<Vec<Labeled>> = match config.reuse {
        SampleReuse::Enabled => stage1
            .into_iter()
            .zip(stage2)
            .map(|(mut a, b)| {
                a.extend(b);
                a
            })
            .collect(),
        SampleReuse::Disabled => stage2,
    };

    ChunkedRun {
        pilot,
        t_hat,
        samples,
        budget_spent: spent,
        stopped,
        oracle_calls: oracle.calls() - calls_before,
    }
}

/// Runs Algorithm 1 on a prepared stratification.
///
/// `stratification` comes from [`Stratification::by_proxy_quantile`]
/// (`ABaeInit`); `oracle` is charged once per drawn record; `agg` selects
/// the aggregate; `rng` drives all randomness. This is the one-chunk
/// instance of the chunked core — no snapshots, full budget.
///
/// # Errors
/// Returns the configuration's validation error, if any.
pub fn run_two_stage<O: Oracle, R: Rng + ?Sized>(
    stratification: &Stratification,
    oracle: &O,
    config: &AbaeConfig,
    agg: Aggregate,
    rng: &mut R,
) -> Result<TwoStageRun, ConfigError> {
    config.validate()?;
    let run =
        two_stage_chunked(stratification, oracle, config, usize::MAX, rng, &mut |_, _, _| false);
    let strata: Vec<StratumEstimate> = run
        .samples
        .iter()
        .enumerate()
        .map(|(s, draws)| StratumEstimate::from_draws(stratification.stratum(s).len(), draws))
        .collect();
    Ok(TwoStageRun {
        estimate: combine_estimate(agg, &strata),
        strata,
        pilot: run.pilot,
        t_hat: run.t_hat,
        samples: run.samples,
        oracle_calls: run.oracle_calls,
    })
}

/// Convenience entry point: stratify by proxy quantile and run Algorithm 1.
///
/// ```
/// use abae_core::{run_abae, Aggregate, AbaeConfig};
/// use abae_data::{FnOracle, Labeled};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // 10k records; the expensive predicate holds for the top half, and the
/// // proxy score increases with the record index.
/// let scores: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
/// let oracle = FnOracle::new(|i| Labeled { matches: i >= 5_000, value: i as f64 });
///
/// let config = AbaeConfig { budget: 1_000, ..Default::default() };
/// let mut rng = StdRng::seed_from_u64(7);
/// let result = run_abae(&scores, &oracle, &config, Aggregate::Avg, &mut rng).unwrap();
///
/// // Exact answer is the mean of 5000..10000 = 7499.5.
/// assert!((result.estimate - 7499.5).abs() < 150.0);
/// assert!(result.oracle_calls <= 1_000);
/// ```
pub fn run_abae<O: Oracle, R: Rng + ?Sized>(
    proxy_scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    agg: Aggregate,
    rng: &mut R,
) -> Result<AbaeResult, ConfigError> {
    config.validate()?;
    let strat = Stratification::by_proxy_quantile(proxy_scores, config.strata);
    let run = run_two_stage(&strat, oracle, config, agg, rng)?;
    Ok(AbaeResult { estimate: run.estimate, ci: None, oracle_calls: run.oracle_calls })
}

/// Runs ABae and attaches a bootstrap percentile CI (`ABaeWithCI`,
/// Algorithm 2).
pub fn run_abae_with_ci<O: Oracle, R: Rng + ?Sized>(
    proxy_scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    agg: Aggregate,
    rng: &mut R,
) -> Result<AbaeResult, ConfigError> {
    let mut multi = run_abae_multi_with_ci(proxy_scores, oracle, config, &[agg], rng)?;
    let answer = multi.answers.pop().expect("one aggregate requested");
    Ok(AbaeResult {
        estimate: answer.estimate,
        ci: answer.ci,
        oracle_calls: multi.oracle_calls,
    })
}

/// Runs ABae **once** and answers several aggregates from the one labeled
/// sample — the shared-labeling pass behind multi-aggregate `SELECT`s.
///
/// Algorithm 1's sampling does not depend on which aggregate is asked for:
/// the draws, the pilot estimates, and the `√p̂_k·σ̂_k` allocation are all
/// functions of the predicate and the statistic alone. One run therefore
/// yields per-stratum sufficient statistics (`p̂_k`, `μ̂_k`, `σ̂_k`,
/// `|S_k|`, sampled positives — [`StratumEstimate`]) from which *every*
/// aggregate is a cheap [`combine_estimate`] fold, and Algorithm 2's
/// bootstrap resamples once per replicate while scoring all aggregates on
/// the same resample ([`stratified_bootstrap_cis`]). `SELECT COUNT(*),
/// SUM(views), AVG(views)` thus spends exactly one oracle budget.
///
/// With a single aggregate this consumes the same RNG stream as
/// [`run_abae_with_ci`] (which delegates here), so seeded results are
/// stable. An empty `aggs` still runs the sampling pass and returns no
/// answers.
///
/// This validates `config`, stratifies the scores (`ABaeInit`) and runs
/// [`run_abae_multi_with_ci_stratified`].
pub fn run_abae_multi_with_ci<O: Oracle, R: Rng + ?Sized>(
    proxy_scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    rng: &mut R,
) -> Result<MultiAggResult, ConfigError> {
    config.validate()?;
    let strat = Stratification::by_proxy_quantile(proxy_scores, config.strata);
    run_abae_multi_with_ci_stratified(&strat, oracle, config, aggs, rng)
}

/// [`run_abae_multi_with_ci`] on a stratification the caller already
/// built, so one `ABaeInit` sort can serve any number of runs over the
/// same scores. A stratification depends only on the scores and `K`, so
/// passing a stored one gives the same answer, bit for bit, as passing
/// the scores. As in [`run_two_stage`], the stratification's own `K` is
/// the one sampled.
///
/// # Errors
/// Returns the configuration's validation error, if any.
pub fn run_abae_multi_with_ci_stratified<O: Oracle, R: Rng + ?Sized>(
    strat: &Stratification,
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    rng: &mut R,
) -> Result<MultiAggResult, ConfigError> {
    let primary = aggs.first().copied().unwrap_or(Aggregate::Avg);
    let run = run_two_stage(strat, oracle, config, primary, rng)?;
    let sizes = strat.sizes();
    let cis = stratified_bootstrap_cis(&run.samples, &sizes, aggs, &config.bootstrap, rng);
    let answers = aggs
        .iter()
        .zip(cis)
        .map(|(&agg, ci)| AggAnswer { agg, estimate: combine_estimate(agg, &run.strata), ci })
        .collect();
    Ok(MultiAggResult { answers, oracle_calls: run.oracle_calls })
}

/// Builds one intermediate snapshot from the merged per-stratum states:
/// each stratum's estimate (what [`StratumStats::estimate`] derives) feeds
/// every aggregate's point estimate and its closed-form CI at `alpha`.
fn snapshot_from_stats(
    stats: &[StratumStats],
    aggs: &[Aggregate],
    alpha: f64,
    budget_spent: u64,
) -> Snapshot {
    let estimates: Vec<StratumEstimate> = stats.iter().map(StratumStats::estimate).collect();
    let answers = aggs
        .iter()
        .map(|&agg| AggAnswer {
            agg,
            estimate: combine_estimate(agg, &estimates),
            ci: closed_form_ci(agg, &estimates, alpha),
        })
        .collect();
    Snapshot { answers, budget_spent, done: false }
}

/// The anytime executor: runs the same query as [`run_abae_multi_with_ci`]
/// but labels in budget chunks, invoking `on_snapshot` after every chunk
/// with a statistically valid estimate of the query so far.
///
/// Semantics:
///
/// * Without a CI width target the run spends the full budget and the
///   final snapshot (`done == true`) — estimates, CIs, and `oracle_calls`
///   — is **bit-identical** to the blocking run with the same seed, for
///   any chunk size and any thread count. The returned result equals that
///   final snapshot.
/// * With [`ProgressiveOptions::target_ci_width`] set, the run stops at
///   the first chunk boundary — once the pilot stage is complete and the
///   merged strata hold a positive — where the primary (first)
///   aggregate's closed-form snapshot CI is narrower than the target,
///   charging only the budget actually consumed; the answer is the
///   snapshot that met the target. A snapshot without a CI never stops
///   the run.
/// * Intermediate snapshots carry closed-form CIs and read no RNG; a run
///   that spends its cap ends with the bootstrap, so
///   [`crate::config::BootstrapConfig::trials`] sets only that final
///   answer's CI.
///
/// This validates `config` and `progressive`, stratifies the scores
/// (`ABaeInit`) and runs [`run_abae_multi_progressive_stratified`].
///
/// # Errors
/// Returns the configuration's validation error, or
/// [`ConfigError::BadTargetWidth`] when the target is not a positive
/// finite number.
pub fn run_abae_multi_progressive<O: Oracle, R: Rng + ?Sized>(
    proxy_scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    progressive: &ProgressiveOptions,
    rng: &mut R,
    on_snapshot: impl FnMut(&Snapshot),
) -> Result<MultiAggResult, ConfigError> {
    config.validate()?;
    progressive.validate()?;
    let strat = Stratification::by_proxy_quantile(proxy_scores, config.strata);
    run_abae_multi_progressive_stratified(
        &strat,
        oracle,
        config,
        aggs,
        progressive,
        rng,
        on_snapshot,
    )
}

/// [`run_abae_multi_progressive`] on a stratification the caller already
/// built — the anytime counterpart of
/// [`run_abae_multi_with_ci_stratified`], with the same bit-identity: a
/// stored stratification of the same scores and `K` gives the same
/// snapshots and answer as passing the scores.
///
/// # Errors
/// Returns the configuration's validation error, or
/// [`ConfigError::BadTargetWidth`] when the target is not a positive
/// finite number.
pub fn run_abae_multi_progressive_stratified<O: Oracle, R: Rng + ?Sized>(
    strat: &Stratification,
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    progressive: &ProgressiveOptions,
    rng: &mut R,
    mut on_snapshot: impl FnMut(&Snapshot),
) -> Result<MultiAggResult, ConfigError> {
    config.validate()?;
    progressive.validate()?;
    let sizes = strat.sizes();
    let chunk = progressive.chunk.unwrap_or(config.exec.batch_size).max(1);
    let target = progressive.target_ci_width;

    let mut stopping: Option<Snapshot> = None;
    let run = {
        let mut observe = |stats: &[StratumStats], spent: u64, pilot_complete: bool| -> bool {
            let mut snap = snapshot_from_stats(stats, aggs, config.bootstrap.alpha, spent);
            // The stopping rule only applies once the pilot stage is
            // complete: partial-pilot CIs can degenerate to zero width
            // (e.g. an all-negative first stratum) and would stop bogusly.
            // For the same reason it never stops while the merged strata
            // hold no positive: an `AVG` then has no CI, and a `COUNT` or
            // `SUM` has a degenerate [0, 0] at any spend.
            let positives = stats.iter().any(|s| s.positives() > 0);
            let stop = match (target, snap.answers.first().and_then(|a| a.ci)) {
                (Some(w), Some(ci)) => pilot_complete && positives && ci.width() < w,
                _ => false,
            };
            snap.done = stop;
            on_snapshot(&snap);
            if stop {
                stopping = Some(snap);
            }
            stop
        };
        two_stage_chunked(strat, oracle, config, chunk, rng, &mut observe)
    };

    if run.stopped {
        let snap = stopping.expect("a stopped run records its stopping snapshot");
        return Ok(MultiAggResult { answers: snap.answers, oracle_calls: run.oracle_calls });
    }

    // Complete run: finish exactly as the blocking executor does — final
    // estimates from the draw-order samples, bootstrap CIs from the
    // caller's RNG at the same stream position.
    let strata: Vec<StratumEstimate> = run
        .samples
        .iter()
        .enumerate()
        .map(|(s, draws)| StratumEstimate::from_draws(sizes[s], draws))
        .collect();
    let cis = bootstrap_cis_on(
        ReplicateThreads::FreeCores,
        &run.samples,
        &sizes,
        aggs,
        &config.bootstrap,
        rng,
    );
    let answers: Vec<AggAnswer> = aggs
        .iter()
        .zip(cis)
        .map(|(&agg, ci)| AggAnswer { agg, estimate: combine_estimate(agg, &strata), ci })
        .collect();
    on_snapshot(&Snapshot {
        answers: answers.clone(),
        budget_spent: run.budget_spent,
        done: true,
    });
    Ok(MultiAggResult { answers, oracle_calls: run.oracle_calls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abae_data::FnOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A synthetic population where the proxy perfectly orders positives:
    /// records with index ≥ 60% of n match, and the statistic rises with
    /// the index so strata have different means.
    fn make_population(n: usize) -> (Vec<f64>, Vec<bool>, Vec<f64>) {
        let scores: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let labels: Vec<bool> = (0..n).map(|i| i >= n * 3 / 5).collect();
        let values: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 + i as f64 / n as f64).collect();
        (scores, labels, values)
    }

    fn oracle_for(
        labels: Vec<bool>,
        values: Vec<f64>,
    ) -> FnOracle<impl Fn(usize) -> Labeled> {
        FnOracle::new(move |i| Labeled { matches: labels[i], value: values[i] })
    }

    fn exact_avg(labels: &[bool], values: &[f64]) -> f64 {
        let (mut sum, mut cnt) = (0.0, 0usize);
        for (i, &l) in labels.iter().enumerate() {
            if l {
                sum += values[i];
                cnt += 1;
            }
        }
        sum / cnt as f64
    }

    #[test]
    fn estimates_converge_to_exact_answer() {
        let (scores, labels, values) = make_population(20_000);
        let truth = exact_avg(&labels, &values);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig { budget: 4000, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let mut errs = Vec::new();
        for _ in 0..30 {
            let r = run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
            errs.push(r.estimate - truth);
        }
        let rmse = (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt();
        assert!(rmse < 0.15, "rmse {rmse} vs truth {truth}");
    }

    #[test]
    fn oracle_budget_is_respected_and_counted() {
        let (scores, labels, values) = make_population(50_000);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig { budget: 1000, strata: 5, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let r = run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        assert!(r.oracle_calls <= 1000, "spent {}", r.oracle_calls);
        // Floor rounding leaves < K draws unspent from each stage boundary.
        assert!(r.oracle_calls >= 1000 - 10, "spent only {}", r.oracle_calls);
        assert_eq!(oracle.calls(), r.oracle_calls);
    }

    #[test]
    fn count_and_sum_estimates_scale_correctly() {
        let (scores, labels, values) = make_population(10_000);
        let exact_count = labels.iter().filter(|&&l| l).count() as f64;
        let exact_sum: f64 = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(i, _)| values[i])
            .sum();
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig { budget: 3000, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let count = run_abae(&scores, &oracle, &cfg, Aggregate::Count, &mut rng).unwrap();
        let sum = run_abae(&scores, &oracle, &cfg, Aggregate::Sum, &mut rng).unwrap();
        assert!((count.estimate - exact_count).abs() / exact_count < 0.05, "{}", count.estimate);
        assert!((sum.estimate - exact_sum).abs() / exact_sum < 0.05, "{}", sum.estimate);
    }

    #[test]
    fn perfect_proxy_allocates_stage2_to_positive_strata() {
        let (scores, labels, values) = make_population(10_000);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig { budget: 2000, strata: 5, ..Default::default() };
        let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
        let mut rng = StdRng::seed_from_u64(4);
        let run = run_two_stage(&strat, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        // Positives live at indices ≥ 60%: strata 0–2 are all-negative, so
        // their √p̂σ̂ = 0 and Stage 2 spends nothing there.
        assert_eq!(run.t_hat[0], 0.0);
        assert_eq!(run.t_hat[1], 0.0);
        assert!(run.t_hat[3] + run.t_hat[4] > 0.9);
        // Stage-2 draws (samples beyond the pilot) only in positive strata.
        let n1 = run.pilot[0].draws;
        assert_eq!(run.samples[0].len(), n1);
        assert!(run.samples[4].len() > n1);
    }

    #[test]
    fn no_reuse_discards_pilot_samples() {
        let (scores, labels, values) = make_population(10_000);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig {
            budget: 2000,
            reuse: SampleReuse::Disabled,
            ..Default::default()
        };
        let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
        let mut rng = StdRng::seed_from_u64(5);
        let run = run_two_stage(&strat, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        // Strata that received no Stage-2 allocation have zero samples.
        let total_kept: usize = run.samples.iter().map(Vec::len).sum();
        let total_drawn = run.oracle_calls as usize;
        assert!(total_kept < total_drawn, "kept {total_kept} of {total_drawn}");
    }

    #[test]
    fn tiny_strata_are_exhausted_not_overdrawn() {
        // 50 records, budget 200: every record can be labeled at most once.
        let scores: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let labels = vec![true; 50];
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let truth = exact_avg(&labels, &values);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig { budget: 200, strata: 5, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(6);
        let r = run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        assert!(r.oracle_calls <= 50);
        // Labeling everything once gives the exact answer.
        assert!((r.estimate - truth).abs() < 1e-9);
    }

    #[test]
    fn all_negative_population_estimates_zero() {
        let scores: Vec<f64> = (0..5000).map(|i| i as f64 / 5000.0).collect();
        let oracle = FnOracle::new(|_| Labeled { matches: false, value: 42.0 });
        let cfg = AbaeConfig { budget: 500, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(7);
        let r = run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        assert_eq!(r.estimate, 0.0);
        let r = run_abae(&scores, &oracle, &cfg, Aggregate::Count, &mut rng).unwrap();
        assert_eq!(r.estimate, 0.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let scores = vec![0.5; 100];
        let oracle = FnOracle::new(|_| Labeled { matches: true, value: 1.0 });
        let cfg = AbaeConfig { strata: 0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(8);
        assert!(run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).is_err());
    }

    #[test]
    fn largest_remainder_spends_full_stage2_budget() {
        let (scores, labels, values) = make_population(50_000);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig {
            budget: 1003,
            rounding: Rounding::LargestRemainder,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let r = run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
        // N1 = ⌊0.5·1003/5⌋ = 100 per stratum; N2 = 1003 − 500 = 503, all
        // spent under largest-remainder rounding.
        assert_eq!(r.oracle_calls, 1003);
    }

    #[test]
    fn reuse_beats_no_reuse_on_rmse() {
        // The Figure 9 lesion, in miniature.
        let (scores, labels, values) = make_population(30_000);
        let truth = exact_avg(&labels, &values);
        let oracle = oracle_for(labels.clone(), values.clone());
        let mut rng = StdRng::seed_from_u64(10);
        let trials = 60;
        let mut rmse_for = |reuse: SampleReuse| {
            let cfg = AbaeConfig { budget: 600, reuse, ..Default::default() };
            let mut errs = Vec::new();
            for _ in 0..trials {
                let r = run_abae(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
                errs.push(r.estimate - truth);
            }
            (errs.iter().map(|e| e * e).sum::<f64>() / trials as f64).sqrt()
        };
        let with_reuse = rmse_for(SampleReuse::Enabled);
        let without = rmse_for(SampleReuse::Disabled);
        assert!(
            with_reuse < without,
            "reuse {with_reuse} should beat no-reuse {without}"
        );
    }

    #[test]
    fn multi_aggregate_run_spends_one_budget_for_n_answers() {
        let (scores, labels, values) = make_population(20_000);
        let exact_avg = exact_avg(&labels, &values);
        let exact_count = labels.iter().filter(|&&l| l).count() as f64;
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig {
            budget: 3000,
            bootstrap: crate::config::BootstrapConfig { trials: 200, alpha: 0.05 },
            ..Default::default()
        };
        let aggs = [Aggregate::Count, Aggregate::Sum, Aggregate::Avg];
        let mut rng = StdRng::seed_from_u64(20);
        let multi = run_abae_multi_with_ci(&scores, &oracle, &cfg, &aggs, &mut rng).unwrap();
        assert_eq!(multi.answers.len(), 3);
        // One budget for three answers: the whole run spent what a
        // single-aggregate run spends.
        oracle.reset_calls();
        let mut rng = StdRng::seed_from_u64(20);
        let single = run_abae_with_ci(&scores, &oracle, &cfg, Aggregate::Count, &mut rng).unwrap();
        assert_eq!(multi.oracle_calls, single.oracle_calls);
        // The first answer (same RNG stream) matches the single-agg run.
        assert_eq!(multi.answers[0].estimate, single.estimate);
        assert_eq!(multi.answers[0].ci, single.ci);
        // All answers are accurate and bracketed by their CIs.
        let count = &multi.answers[0];
        let avg = &multi.answers[2];
        assert!((count.estimate - exact_count).abs() / exact_count < 0.05, "{}", count.estimate);
        assert!((avg.estimate - exact_avg).abs() < 0.5, "{}", avg.estimate);
        for a in &multi.answers {
            let ci = a.ci.expect("bootstrap CI");
            assert!(ci.lo <= a.estimate && a.estimate <= ci.hi, "{:?}", a);
        }
    }

    #[test]
    fn multi_aggregate_run_accepts_empty_aggregate_list() {
        let (scores, labels, values) = make_population(5_000);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig { budget: 500, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(21);
        let multi = run_abae_multi_with_ci(&scores, &oracle, &cfg, &[], &mut rng).unwrap();
        assert!(multi.answers.is_empty());
        assert!(multi.oracle_calls <= 500);
    }

    #[test]
    fn progressive_final_snapshot_is_bit_identical_to_blocking() {
        let (scores, labels, values) = make_population(10_000);
        let oracle = oracle_for(labels.clone(), values.clone());
        let cfg = AbaeConfig {
            budget: 800,
            bootstrap: crate::config::BootstrapConfig { trials: 60, alpha: 0.05 },
            ..Default::default()
        };
        let aggs = [Aggregate::Avg, Aggregate::Count];
        let mut rng = StdRng::seed_from_u64(42);
        let blocking = run_abae_multi_with_ci(&scores, &oracle, &cfg, &aggs, &mut rng).unwrap();
        for chunk in [1usize, 7, 64, 4096] {
            let oracle = oracle_for(labels.clone(), values.clone());
            let mut rng = StdRng::seed_from_u64(42);
            let mut snapshots: Vec<Snapshot> = Vec::new();
            let opts = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
            let progressive = run_abae_multi_progressive(
                &scores,
                &oracle,
                &cfg,
                &aggs,
                &opts,
                &mut rng,
                |s| snapshots.push(s.clone()),
            )
            .unwrap();
            assert_eq!(progressive, blocking, "chunk={chunk}");
            let last = snapshots.last().expect("at least the final snapshot");
            assert!(last.done);
            assert_eq!(last.answers, blocking.answers, "chunk={chunk}");
            assert_eq!(last.budget_spent, blocking.oracle_calls, "chunk={chunk}");
            // Only the final snapshot is marked done, budgets increase.
            assert!(snapshots.iter().rev().skip(1).all(|s| !s.done));
            assert!(snapshots.windows(2).all(|w| w[0].budget_spent < w[1].budget_spent));
        }
    }

    #[test]
    fn progressive_with_reuse_disabled_still_matches_blocking() {
        let (scores, labels, values) = make_population(8_000);
        let oracle = oracle_for(labels.clone(), values.clone());
        let cfg = AbaeConfig {
            budget: 600,
            reuse: SampleReuse::Disabled,
            bootstrap: crate::config::BootstrapConfig { trials: 40, alpha: 0.05 },
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(23);
        let blocking =
            run_abae_multi_with_ci(&scores, &oracle, &cfg, &[Aggregate::Avg], &mut rng).unwrap();
        let oracle = oracle_for(labels, values);
        let mut rng = StdRng::seed_from_u64(23);
        let opts = ProgressiveOptions { chunk: Some(16), target_ci_width: None };
        let progressive = run_abae_multi_progressive(
            &scores,
            &oracle,
            &cfg,
            &[Aggregate::Avg],
            &opts,
            &mut rng,
            |_| {},
        )
        .unwrap();
        assert_eq!(progressive, blocking);
    }

    #[test]
    fn early_stop_spends_less_and_meets_the_target() {
        let (scores, labels, values) = make_population(20_000);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig {
            budget: 4000,
            bootstrap: crate::config::BootstrapConfig { trials: 80, alpha: 0.05 },
            ..Default::default()
        };
        // A loose target the estimator reaches well before the budget.
        let opts = ProgressiveOptions { chunk: Some(100), target_ci_width: Some(1.5) };
        let mut rng = StdRng::seed_from_u64(31);
        let mut final_snapshot = None;
        let result = run_abae_multi_progressive(
            &scores,
            &oracle,
            &cfg,
            &[Aggregate::Avg],
            &opts,
            &mut rng,
            |s| {
                if s.done {
                    final_snapshot = Some(s.clone());
                }
            },
        )
        .unwrap();
        assert!(result.oracle_calls < 4000, "spent {}", result.oracle_calls);
        let snap = final_snapshot.expect("early stop emits a done snapshot");
        assert!(snap.answers[0].ci.unwrap().width() < 1.5);
        assert_eq!(snap.answers, result.answers);
        assert_eq!(oracle.calls(), result.oracle_calls, "only consumed labels are charged");
    }

    #[test]
    fn unreachable_target_runs_the_full_budget() {
        let (scores, labels, values) = make_population(5_000);
        let oracle = oracle_for(labels.clone(), values.clone());
        let cfg = AbaeConfig {
            budget: 500,
            bootstrap: crate::config::BootstrapConfig { trials: 40, alpha: 0.05 },
            ..Default::default()
        };
        let opts = ProgressiveOptions { chunk: Some(50), target_ci_width: Some(1e-12) };
        let mut rng = StdRng::seed_from_u64(5);
        let progressive = run_abae_multi_progressive(
            &scores,
            &oracle,
            &cfg,
            &[Aggregate::Avg],
            &opts,
            &mut rng,
            |_| {},
        )
        .unwrap();
        let oracle = oracle_for(labels, values);
        let mut rng = StdRng::seed_from_u64(5);
        let blocking =
            run_abae_multi_with_ci(&scores, &oracle, &cfg, &[Aggregate::Avg], &mut rng).unwrap();
        assert_eq!(progressive, blocking, "an unmet target must not change the answer");
    }

    #[test]
    fn a_stored_stratification_answers_exactly_like_the_scores() {
        let (scores, labels, values) = make_population(10_000);
        let cfg = AbaeConfig {
            budget: 800,
            bootstrap: crate::config::BootstrapConfig { trials: 60, alpha: 0.05 },
            ..Default::default()
        };
        let aggs = [Aggregate::Avg, Aggregate::Sum];
        let opts = ProgressiveOptions { chunk: Some(50), target_ci_width: Some(2.0) };
        // One stratification serves every run, as a cached one does.
        let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
        for seed in [1u64, 2] {
            let oracle = || oracle_for(labels.clone(), values.clone());
            let rng = || StdRng::seed_from_u64(seed);
            let blocking =
                run_abae_multi_with_ci(&scores, &oracle(), &cfg, &aggs, &mut rng()).unwrap();
            let stored =
                run_abae_multi_with_ci_stratified(&strat, &oracle(), &cfg, &aggs, &mut rng())
                    .unwrap();
            assert_eq!(stored, blocking, "seed {seed}");

            let (mut a, mut b) = (Vec::new(), Vec::new());
            let fresh = run_abae_multi_progressive(
                &scores,
                &oracle(),
                &cfg,
                &aggs,
                &opts,
                &mut rng(),
                |s| a.push(s.clone()),
            )
            .unwrap();
            let stored = run_abae_multi_progressive_stratified(
                &strat,
                &oracle(),
                &cfg,
                &aggs,
                &opts,
                &mut rng(),
                |s| b.push(s.clone()),
            )
            .unwrap();
            assert_eq!(stored, fresh, "seed {seed}");
            assert_eq!(b, a, "seed {seed}");
        }
        // The stratified forms validate like the wrappers do.
        let bad = ProgressiveOptions { chunk: None, target_ci_width: Some(0.0) };
        let err = run_abae_multi_progressive_stratified(
            &strat,
            &oracle_for(labels, values),
            &cfg,
            &aggs,
            &bad,
            &mut StdRng::seed_from_u64(3),
            |_| {},
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::BadTargetWidth(0.0));
    }

    #[test]
    fn bad_ci_width_targets_are_rejected() {
        let (scores, labels, values) = make_population(1_000);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig { budget: 200, ..Default::default() };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let opts = ProgressiveOptions { chunk: None, target_ci_width: Some(bad) };
            let mut rng = StdRng::seed_from_u64(1);
            let err = run_abae_multi_progressive(
                &scores,
                &oracle,
                &cfg,
                &[Aggregate::Avg],
                &opts,
                &mut rng,
                |_| {},
            )
            .unwrap_err();
            assert!(matches!(err, ConfigError::BadTargetWidth(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn with_ci_produces_covering_interval() {
        let (scores, labels, values) = make_population(20_000);
        let truth = exact_avg(&labels, &values);
        let oracle = oracle_for(labels, values);
        let cfg = AbaeConfig {
            budget: 2000,
            bootstrap: crate::config::BootstrapConfig { trials: 300, alpha: 0.05 },
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut covered = 0;
        let trials = 40;
        for _ in 0..trials {
            let r = run_abae_with_ci(&scores, &oracle, &cfg, Aggregate::Avg, &mut rng).unwrap();
            let ci = r.ci.expect("bootstrap CI");
            assert!(ci.lo <= r.estimate && r.estimate <= ci.hi);
            if ci.contains(truth) {
                covered += 1;
            }
        }
        assert!(covered as f64 / trials as f64 > 0.8, "coverage {covered}/{trials}");
    }

    /// Every observer boundary of a run: the snapshot CIs that
    /// `closed_form_ci` gives over the merged states' estimates, recorded
    /// from the chunked core itself with an observer that never stops.
    fn reference_snapshot_cis(
        strat: &Stratification,
        oracle: &(impl Oracle + ?Sized),
        cfg: &AbaeConfig,
        aggs: &[Aggregate],
        chunk: usize,
        rng: &mut StdRng,
    ) -> Vec<(u64, Vec<Option<ConfidenceInterval>>)> {
        let mut seen = Vec::new();
        two_stage_chunked(strat, oracle, cfg, chunk, rng, &mut |stats, spent, _| {
            let estimates: Vec<StratumEstimate> = stats
                .iter()
                .map(|s| StratumEstimate::from_draws(s.size(), &s.labeled()))
                .collect();
            let cis = aggs
                .iter()
                .map(|&agg| closed_form_ci(agg, &estimates, cfg.bootstrap.alpha))
                .collect();
            seen.push((spent, cis));
            false
        });
        seen
    }

    fn ci_bits(ci: Option<ConfidenceInterval>) -> Option<[u64; 3]> {
        ci.map(|c| [c.lo.to_bits(), c.hi.to_bits(), c.confidence.to_bits()])
    }

    #[test]
    fn intermediate_snapshots_carry_the_closed_form_ci_of_the_merged_strata() {
        let (scores, labels, values) = make_population(10_000);
        let cfg = AbaeConfig {
            budget: 900,
            bootstrap: crate::config::BootstrapConfig { trials: 30, alpha: 0.1 },
            ..Default::default()
        };
        let aggs = [Aggregate::Avg, Aggregate::Count, Aggregate::Sum];
        let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
        for chunk in [1usize, 64, 4096] {
            let want = reference_snapshot_cis(
                &strat,
                &oracle_for(labels.clone(), values.clone()),
                &cfg,
                &aggs,
                chunk,
                &mut StdRng::seed_from_u64(17),
            );
            let mut snaps: Vec<Snapshot> = Vec::new();
            let opts = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
            run_abae_multi_progressive_stratified(
                &strat,
                &oracle_for(labels.clone(), values.clone()),
                &cfg,
                &aggs,
                &opts,
                &mut StdRng::seed_from_u64(17),
                |s| snaps.push(s.clone()),
            )
            .unwrap();
            let (last, intermediate) = snaps.split_last().expect("a final snapshot");
            assert!(last.done, "chunk {chunk}");
            assert_eq!(intermediate.len(), want.len(), "chunk {chunk}");
            // At chunk 4096 the stage boundary is the one intermediate look.
            assert_eq!(intermediate.len() == 1, chunk == 4096, "chunk {chunk}");
            for (snap, (spent, cis)) in intermediate.iter().zip(&want) {
                assert_eq!(snap.budget_spent, *spent, "chunk {chunk}");
                let got: Vec<_> = snap.answers.iter().map(|a| ci_bits(a.ci)).collect();
                let want: Vec<_> = cis.iter().map(|&ci| ci_bits(ci)).collect();
                assert_eq!(got, want, "chunk {chunk}, spent {spent}");
            }
        }
    }

    #[test]
    fn a_stopped_run_answers_with_its_stopping_snapshot() {
        let (scores, labels, values) = make_population(20_000);
        let cfg = AbaeConfig {
            budget: 4000,
            bootstrap: crate::config::BootstrapConfig { trials: 50, alpha: 0.05 },
            ..Default::default()
        };
        let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
        let aggs = [Aggregate::Avg, Aggregate::Sum];
        let want = reference_snapshot_cis(
            &strat,
            &oracle_for(labels.clone(), values.clone()),
            &cfg,
            &aggs,
            100,
            &mut StdRng::seed_from_u64(9),
        );
        let opts = ProgressiveOptions { chunk: Some(100), target_ci_width: Some(1.5) };
        let oracle = oracle_for(labels, values);
        let mut snaps: Vec<Snapshot> = Vec::new();
        let result = run_abae_multi_progressive_stratified(
            &strat,
            &oracle,
            &cfg,
            &aggs,
            &opts,
            &mut StdRng::seed_from_u64(9),
            |s| snaps.push(s.clone()),
        )
        .unwrap();
        let stop = snaps.last().expect("a stopping snapshot");
        assert!(stop.done && snaps.iter().filter(|s| s.done).count() == 1);
        assert_eq!(result.answers, stop.answers, "the answer is the stopping snapshot");
        assert_eq!(result.oracle_calls, stop.budget_spent);
        assert!(result.oracle_calls < 4000, "spent {}", result.oracle_calls);
        // The stopping snapshot is the closed form at its boundary, and the
        // first boundary whose primary CI meets the target.
        let at = want.iter().position(|(spent, _)| *spent == stop.budget_spent).unwrap();
        let got: Vec<_> = stop.answers.iter().map(|a| ci_bits(a.ci)).collect();
        let cis: Vec<_> = want[at].1.iter().map(|&ci| ci_bits(ci)).collect();
        assert_eq!(got, cis);
        assert!(stop.answers[0].ci.unwrap().width() < 1.5);
        assert_eq!(snaps.len(), at + 1);
    }

    #[test]
    fn a_full_budget_run_leaves_the_callers_stream_where_blocking_does() {
        use rand::RngCore as _;
        let (scores, labels, values) = make_population(8_000);
        let cfg = AbaeConfig {
            budget: 700,
            bootstrap: crate::config::BootstrapConfig { trials: 40, alpha: 0.05 },
            ..Default::default()
        };
        let aggs = [Aggregate::Avg, Aggregate::Count];
        let mut blocking_rng = StdRng::seed_from_u64(13);
        let blocking = run_abae_multi_with_ci(
            &scores,
            &oracle_for(labels.clone(), values.clone()),
            &cfg,
            &aggs,
            &mut blocking_rng,
        )
        .unwrap();
        for target in [None, Some(1e-9)] {
            let mut rng = StdRng::seed_from_u64(13);
            let mut snapshots = 0usize;
            let opts = ProgressiveOptions { chunk: Some(32), target_ci_width: target };
            let progressive = run_abae_multi_progressive(
                &scores,
                &oracle_for(labels.clone(), values.clone()),
                &cfg,
                &aggs,
                &opts,
                &mut rng,
                |_| snapshots += 1,
            )
            .unwrap();
            assert!(snapshots > 2, "{target:?}");
            assert_eq!(progressive, blocking, "{target:?}");
            assert_eq!(rng.next_u64(), blocking_rng.clone().next_u64(), "{target:?}");
        }
    }
}
