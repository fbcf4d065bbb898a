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
//! One executor, [`run_abae_stratified`], runs Algorithm 2 over a stored
//! stratification, blocking or anytime; [`run_two_stage`] is Algorithm 1
//! alone. Both run the crate's one two-stage schedule, which DESIGN.md
//! describes with anytime mode under "Running tallies and anytime
//! snapshots". The entry points that take scores ([`run_abae_with_ci`],
//! [`run_abae_multi_progressive`]) check, stratify once and delegate.

use crate::bootstrap::bootstrap_cis_on;
use crate::config::{AbaeConfig, Aggregate, ConfigError, Rounding, SampleReuse};
use crate::estimator::{combine_estimate, StratumEstimate, Tally};
use crate::normal_ci::closed_form_ci;
use crate::pipeline::{self, ReplicateThreads};
use crate::schedule::{self, Sampler};
use crate::strata::Stratification;
use abae_data::{Labeled, Oracle};
use abae_sampling::budget::{floor_allocation, largest_remainder_allocation, stage_split};
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

/// Result of [`run_abae_stratified`]: one answer per requested aggregate,
/// all paid for by a single oracle budget.
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
    /// come from each stratum's draws so far, folded in draw order. An
    /// intermediate snapshot's CIs are closed-form ([`closed_form_ci`],
    /// `None` where the variance is not estimable yet) and read no RNG;
    /// the last snapshot of a run that spends its cap carries the blocking
    /// run's bootstrap CIs.
    pub answers: Vec<AggAnswer>,
    /// Oracle labels consumed up to and including this snapshot's chunk.
    pub budget_spent: u64,
    /// `true` on the last snapshot of a run — either the budget was
    /// exhausted (in which case the snapshot is bit-identical to a blocking
    /// run) or the CI width target was reached and the run stopped early.
    pub done: bool,
}

/// Knobs of anytime mode: passed as `Some` to [`run_abae_stratified`]
/// (or to [`run_abae_multi_progressive`]), they make a run label in chunks
/// and report a [`Snapshot`] after each.
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
    /// finite number. An anytime run checks this before any work, so a
    /// caller that stratifies on its own can check it first too.
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

/// Algorithm 1 as the schedule's sampler. Each stage draws stratum by
/// stratum, and each label folds into its stratum's tally in draw order.
struct TwoStage<'a, O: ?Sized> {
    strat: &'a Stratification,
    oracle: &'a O,
    config: &'a AbaeConfig,
    /// The aggregates a look or the final bootstrap answers.
    aggs: &'a [Aggregate],
    /// Each stratum's without-replacement draw, which Stage 2 continues.
    pools: Vec<IndexPool>,
    /// Per-stratum labels that the final estimates keep, in draw order.
    samples: Vec<Vec<Labeled>>,
    /// Each stratum's running tally of its `samples`.
    tallies: Vec<Tally>,
    /// The pilot estimates and the allocation `plan` derived from them.
    pilot: Vec<StratumEstimate>,
    t_hat: Vec<f64>,
    /// Stage-1 draws, Stage-2 draws to allocate, and labels consumed so far.
    n1: u64,
    n2: usize,
    spent: u64,
}

impl<'a, O: Oracle + ?Sized> TwoStage<'a, O> {
    fn new(
        strat: &'a Stratification,
        oracle: &'a O,
        config: &'a AbaeConfig,
        aggs: &'a [Aggregate],
    ) -> Self {
        let k = strat.len();
        TwoStage {
            strat,
            oracle,
            config,
            aggs,
            pools: Vec::with_capacity(k),
            samples: vec![Vec::new(); k],
            tallies: vec![Tally::default(); k],
            pilot: Vec::new(),
            t_hat: Vec::new(),
            n1: 0,
            n2: 0,
            spent: 0,
        }
    }

    /// Each stratum's estimates from its tally.
    fn estimates(&self) -> Vec<StratumEstimate> {
        self.tallies.iter().zip(self.strat.strata()).map(|(t, s)| t.estimate(s.len())).collect()
    }
}

impl<O: Oracle + ?Sized> Sampler for TwoStage<'_, O> {
    /// A stratum and one of its records.
    type Draw = (usize, usize);
    type Rows = Vec<AggAnswer>;

    fn draw_pilot<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<(usize, usize)> {
        let split = stage_split(self.config.budget, self.config.stage1_fraction, self.strat.len());
        self.n2 = split.n2_total;
        let mut draws = Vec::new();
        for (s, records) in self.strat.strata().iter().enumerate() {
            let mut pool = IndexPool::new(records.len());
            draws.extend(pool.draw(split.n1_per_stratum, rng).iter().map(|&l| (s, records[l])));
            self.pools.push(pool);
        }
        self.n1 = draws.len() as u64;
        draws
    }

    fn label(&mut self, chunk: &[(usize, usize)]) -> u64 {
        let ids: Vec<usize> = chunk.iter().map(|&(_, id)| id).collect();
        let labels = pipeline::label_all(self.oracle, &ids, &self.config.exec);
        for (&(s, _), &label) in chunk.iter().zip(&labels) {
            self.samples[s].push(label);
            self.tallies[s].push(label);
        }
        self.spent += chunk.len() as u64;
        self.spent
    }

    fn plan<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<(usize, usize)> {
        self.pilot = self.estimates();
        // Allocation from pilot estimates: T̂_k ∝ √p̂_k σ̂_k.
        let weights: Vec<f64> = self.pilot.iter().map(|e| e.p_hat.sqrt() * e.sigma_hat).collect();
        self.t_hat = crate::allocation::optimal_allocation(
            &self.pilot.iter().map(|e| e.p_hat).collect::<Vec<_>>(),
            &self.pilot.iter().map(|e| e.sigma_hat).collect::<Vec<_>>(),
        );
        let alloc = match self.config.rounding {
            Rounding::Floor => floor_allocation(&weights, self.n2),
            Rounding::LargestRemainder => largest_remainder_allocation(&weights, self.n2),
        };
        if self.config.reuse == SampleReuse::Disabled {
            // The final estimates discard the pilot's draws.
            self.samples.iter_mut().for_each(Vec::clear);
            self.tallies.fill(Tally::default());
        }
        let mut draws = Vec::new();
        for (s, (pool, records)) in self.pools.iter_mut().zip(self.strat.strata()).enumerate() {
            draws.extend(pool.draw(alloc[s], rng).iter().map(|&l| (s, records[l])));
        }
        draws
    }

    fn look(&self, target: Option<f64>) -> (Vec<AggAnswer>, bool) {
        // The stage-boundary look (every pilot draw labeled, no Stage-2
        // draw yet) answers from the pilot, which the tallies no longer
        // hold under `SampleReuse::Disabled`.
        let strata = if self.spent == self.n1 { self.pilot.clone() } else { self.estimates() };
        let alpha = self.config.bootstrap.alpha;
        let answer = |&agg: &Aggregate| AggAnswer {
            agg,
            estimate: combine_estimate(agg, &strata),
            ci: closed_form_ci(agg, &strata, alpha),
        };
        let answers: Vec<AggAnswer> = self.aggs.iter().map(answer).collect();
        // Never met while the draws so far hold no positive: an `AVG` then
        // has no CI, and a `COUNT` or `SUM` a degenerate [0, 0] at any spend.
        let positives = strata.iter().any(|s| s.positives > 0);
        let primary = answers.first().and_then(|a| a.ci);
        let meets = positives && target.zip(primary).is_some_and(|(w, ci)| ci.width() < w);
        (answers, meets)
    }

    fn finish<R: Rng + ?Sized>(self, threads: ReplicateThreads, rng: &mut R) -> Vec<AggAnswer> {
        let (strata, sizes) = (self.estimates(), self.strat.sizes());
        let bootstrap = &self.config.bootstrap;
        let cis = bootstrap_cis_on(threads, &self.samples, &sizes, self.aggs, bootstrap, rng);
        self.aggs
            .iter()
            .zip(cis)
            .map(|(&agg, ci)| AggAnswer { agg, estimate: combine_estimate(agg, &strata), ci })
            .collect()
    }
}

/// Runs Algorithm 1 on a prepared stratification.
///
/// `stratification` comes from [`Stratification::by_proxy_quantile`]
/// (`ABaeInit`); `oracle` is charged once per drawn record; `agg` selects
/// the aggregate; `rng` drives all randomness. Each stage is labeled in
/// one chunk, with no snapshots.
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
    let calls_before = oracle.calls();
    let mut sampler = TwoStage::new(stratification, oracle, config, &[]);
    schedule::run_stages(&mut sampler, usize::MAX, rng, |_, _, _| false);
    let (strata, oracle_calls) = (sampler.estimates(), oracle.calls() - calls_before);
    Ok(TwoStageRun {
        estimate: combine_estimate(agg, &strata),
        strata,
        pilot: sampler.pilot,
        t_hat: sampler.t_hat,
        samples: sampler.samples,
        oracle_calls,
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
/// Algorithm 2): validates `config`, stratifies the scores (`ABaeInit`)
/// and runs [`run_abae_stratified`] in blocking mode.
pub fn run_abae_with_ci<O: Oracle, R: Rng + ?Sized>(
    proxy_scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    agg: Aggregate,
    rng: &mut R,
) -> Result<AbaeResult, ConfigError> {
    config.validate()?;
    let strat = Stratification::by_proxy_quantile(proxy_scores, config.strata);
    let mut multi = run_abae_stratified(&strat, oracle, config, &[agg], None, rng, |_| {})?;
    let answer = multi.answers.pop().expect("one aggregate requested");
    Ok(AbaeResult { estimate: answer.estimate, ci: answer.ci, oracle_calls: multi.oracle_calls })
}

/// The anytime run over the scores: validates `config` and `progressive`,
/// stratifies the scores (`ABaeInit`) and runs [`run_abae_stratified`] in
/// anytime mode.
///
/// # Errors
/// As [`run_abae_stratified`].
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
    run_abae_stratified(&strat, oracle, config, aggs, Some(progressive), rng, on_snapshot)
}

/// The one scalar executor: runs ABae **once** over a stratification the
/// caller already built and answers several aggregates from the one
/// labeled sample, with Algorithm 2's CIs.
///
/// Algorithm 1's sampling does not depend on the aggregate: the draws,
/// the pilot estimates and the `√p̂_k·σ̂_k` allocation are functions of
/// the predicate and the statistic alone. So every aggregate is a cheap
/// [`combine_estimate`] fold over one run's per-stratum sufficient
/// statistics ([`StratumEstimate`]), and the bootstrap scores all of them
/// on each resample: `SELECT COUNT(*), SUM(v), AVG(v)` spends one oracle
/// budget. An empty `aggs` still samples and returns no answers.
///
/// `anytime` picks the mode: `None` blocks, answering bit for bit like
/// [`run_two_stage`] then
/// [`stratified_bootstrap_cis`](crate::bootstrap::stratified_bootstrap_cis)
/// on one stream; `Some(p)` reports a [`Snapshot`] after every chunk of
/// labels. An anytime run stops early once the pilot is complete, the
/// draws so far hold a positive, and the primary aggregate's CI is
/// narrower than [`ProgressiveOptions::target_ci_width`]. DESIGN.md,
/// "Running tallies and anytime snapshots", describes the schedule.
///
/// A stratification depends only on the scores and `K`, so a stored one
/// answers bit for bit like a fresh sort; its own `K` is the one sampled.
///
/// # Errors
/// Returns the configuration's validation error, or
/// [`ConfigError::BadTargetWidth`] when an anytime target is not a
/// positive finite number.
pub fn run_abae_stratified<O: Oracle, R: Rng + ?Sized>(
    strat: &Stratification,
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    anytime: Option<&ProgressiveOptions>,
    rng: &mut R,
    mut on_snapshot: impl FnMut(&Snapshot),
) -> Result<MultiAggResult, ConfigError> {
    config.validate()?;
    anytime.map_or(Ok(()), ProgressiveOptions::validate)?;
    let calls_before = oracle.calls();
    let sampler = TwoStage::new(strat, oracle, config, aggs);
    let emit = |answers, budget_spent, done| on_snapshot(&Snapshot { answers, budget_spent, done });
    let answers = schedule::run(sampler, anytime, config.exec.batch_size, rng, emit);
    Ok(MultiAggResult { answers, oracle_calls: oracle.calls() - calls_before })
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

    /// The blocking executor over the scores' quantile stratification.
    fn run_blocking<O: Oracle>(
        scores: &[f64],
        oracle: &O,
        cfg: &AbaeConfig,
        aggs: &[Aggregate],
        rng: &mut StdRng,
    ) -> Result<MultiAggResult, ConfigError> {
        let strat = Stratification::by_proxy_quantile(scores, cfg.strata);
        run_abae_stratified(&strat, oracle, cfg, aggs, None, rng, |_| {})
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
        let multi = run_blocking(&scores, &oracle, &cfg, &aggs, &mut rng).unwrap();
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
        let multi = run_blocking(&scores, &oracle, &cfg, &[], &mut rng).unwrap();
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
        let blocking = run_blocking(&scores, &oracle, &cfg, &aggs, &mut rng).unwrap();
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
        let blocking = run_blocking(&scores, &oracle, &cfg, &[Aggregate::Avg], &mut rng).unwrap();
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
        let blocking = run_blocking(&scores, &oracle, &cfg, &[Aggregate::Avg], &mut rng).unwrap();
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
            let blocking = run_blocking(&scores, &oracle(), &cfg, &aggs, &mut rng()).unwrap();
            let stored =
                run_abae_stratified(&strat, &oracle(), &cfg, &aggs, None, &mut rng(), |_| {})
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
            let stored = run_abae_stratified(
                &strat,
                &oracle(),
                &cfg,
                &aggs,
                Some(&opts),
                &mut rng(),
                |s| b.push(s.clone()),
            )
            .unwrap();
            assert_eq!(stored, fresh, "seed {seed}");
            assert_eq!(b, a, "seed {seed}");
        }
        // The stratified forms validate like the wrappers do.
        let bad = ProgressiveOptions { chunk: None, target_ci_width: Some(0.0) };
        let err = run_abae_stratified(
            &strat,
            &oracle_for(labels, values),
            &cfg,
            &aggs,
            Some(&bad),
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

    fn ci_bits(ci: Option<ConfidenceInterval>) -> Option<[u64; 3]> {
        ci.map(|c| [c.lo.to_bits(), c.hi.to_bits(), c.confidence.to_bits()])
    }

    fn answer_bits(snap: &Snapshot) -> Vec<(u64, Option<[u64; 3]>)> {
        snap.answers.iter().map(|a| (a.estimate.to_bits(), ci_bits(a.ci))).collect()
    }

    /// What a snapshot after `spent` labels answers, rebuilt from the
    /// blocking run's draws (`run` must reuse its pilot): each stratum's
    /// prefix of the draw order — Stage 1 stratum by stratum, then Stage 2
    /// stratum by stratum — folded by `from_draws`, then every aggregate's
    /// estimate and closed-form CI at `alpha`.
    fn reference_snapshot(
        run: &TwoStageRun,
        sizes: &[usize],
        aggs: &[Aggregate],
        alpha: f64,
        spent: u64,
    ) -> Vec<(u64, Option<[u64; 3]>)> {
        let n1: Vec<usize> = run.pilot.iter().map(|e| e.draws).collect();
        let stage1 = (0..sizes.len()).flat_map(|s| std::iter::repeat(s).take(n1[s]));
        let stage2 = (0..sizes.len())
            .flat_map(|s| std::iter::repeat(s).take(run.samples[s].len() - n1[s]));
        let mut prefix = vec![0usize; sizes.len()];
        for s in stage1.chain(stage2).take(spent as usize) {
            prefix[s] += 1;
        }
        let strata: Vec<StratumEstimate> = sizes
            .iter()
            .zip(&run.samples)
            .zip(&prefix)
            .map(|((&size, draws), &m)| StratumEstimate::from_draws(size, &draws[..m]))
            .collect();
        aggs.iter()
            .map(|&agg| {
                let ci = closed_form_ci(agg, &strata, alpha);
                (combine_estimate(agg, &strata).to_bits(), ci_bits(ci))
            })
            .collect()
    }

    /// What a look past the stage boundary of a run without sample reuse
    /// answers after `spent` labels, rebuilt from a reuse-enabled run's
    /// draws (the same draws): each stratum's prefix of the Stage-2 draw
    /// order, `samples[s][n1_s..]`, folded by `from_draws`, then every
    /// aggregate's estimate and closed-form CI at `alpha`.
    fn reference_stage2_snapshot(
        run: &TwoStageRun,
        sizes: &[usize],
        aggs: &[Aggregate],
        alpha: f64,
        spent: u64,
    ) -> Vec<(u64, Option<[u64; 3]>)> {
        let n1: Vec<usize> = run.pilot.iter().map(|e| e.draws).collect();
        let stage2 = (0..sizes.len())
            .flat_map(|s| std::iter::repeat(s).take(run.samples[s].len() - n1[s]));
        let mut prefix = vec![0usize; sizes.len()];
        for s in stage2.take(spent as usize - n1.iter().sum::<usize>()) {
            prefix[s] += 1;
        }
        let strata: Vec<StratumEstimate> = (0..sizes.len())
            .map(|s| StratumEstimate::from_draws(sizes[s], &run.samples[s][n1[s]..][..prefix[s]]))
            .collect();
        aggs.iter()
            .map(|&agg| {
                let ci = closed_form_ci(agg, &strata, alpha);
                (combine_estimate(agg, &strata).to_bits(), ci_bits(ci))
            })
            .collect()
    }

    #[test]
    fn intermediate_snapshots_fold_the_blocking_runs_draws_in_draw_order() {
        let (scores, labels, values) = make_population(10_000);
        let cfg = AbaeConfig {
            budget: 900,
            bootstrap: crate::config::BootstrapConfig { trials: 30, alpha: 0.1 },
            ..Default::default()
        };
        let aggs = [Aggregate::Avg, Aggregate::Count, Aggregate::Sum];
        let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
        let sizes = strat.sizes();
        let oracle = || oracle_for(labels.clone(), values.clone());
        let mut rng = StdRng::seed_from_u64(17);
        let run = run_two_stage(&strat, &oracle(), &cfg, aggs[0], &mut rng).unwrap();
        let n1: u64 = run.pilot.iter().map(|e| e.draws as u64).sum();
        assert!(n1 < run.oracle_calls, "Stage 2 has draws");
        // Without reuse the draws are the same (they never read a label);
        // only what a look folds changes.
        for reuse in [SampleReuse::Enabled, SampleReuse::Disabled] {
            let cfg = AbaeConfig { reuse, ..cfg };
            for chunk in [1usize, 64, 4096] {
                let mut snaps: Vec<Snapshot> = Vec::new();
                let opts = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
                run_abae_stratified(
                    &strat,
                    &oracle(),
                    &cfg,
                    &aggs,
                    Some(&opts),
                    &mut StdRng::seed_from_u64(17),
                    |s| snaps.push(s.clone()),
                )
                .unwrap();
                let (last, intermediate) = snaps.split_last().expect("a final snapshot");
                assert!(last.done, "{reuse:?}, chunk {chunk}");
                // A look at every chunk boundary inside each stage and one at
                // the stage boundary: at chunk 4096 that one is the only look.
                let c = chunk as u64;
                let looks: Vec<u64> = (1..)
                    .map(|i| i * c)
                    .take_while(|&x| x < n1)
                    .chain(std::iter::once(n1))
                    .chain((1..).map(|i| n1 + i * c).take_while(|&x| x < run.oracle_calls))
                    .collect();
                let spends: Vec<u64> = intermediate.iter().map(|s| s.budget_spent).collect();
                assert_eq!(spends, looks, "{reuse:?}, chunk {chunk}");
                for snap in intermediate {
                    let spent = snap.budget_spent;
                    let alpha = cfg.bootstrap.alpha;
                    // Up to the stage boundary a look folds the pilot prefix;
                    // past it, without reuse, the Stage-2 prefix alone.
                    let want = if reuse == SampleReuse::Disabled && spent > n1 {
                        reference_stage2_snapshot(&run, &sizes, &aggs, alpha, spent)
                    } else {
                        reference_snapshot(&run, &sizes, &aggs, alpha, spent)
                    };
                    assert_eq!(answer_bits(snap), want, "{reuse:?}, chunk {chunk}, spent {spent}");
                }
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
        let sizes = strat.sizes();
        let aggs = [Aggregate::Avg, Aggregate::Sum];
        let run = run_two_stage(
            &strat,
            &oracle_for(labels.clone(), values.clone()),
            &cfg,
            aggs[0],
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        let n1: u64 = run.pilot.iter().map(|e| e.draws as u64).sum();
        let opts = ProgressiveOptions { chunk: Some(100), target_ci_width: Some(1.5) };
        let oracle = oracle_for(labels, values);
        let mut snaps: Vec<Snapshot> = Vec::new();
        let result = run_abae_stratified(
            &strat,
            &oracle,
            &cfg,
            &aggs,
            Some(&opts),
            &mut StdRng::seed_from_u64(9),
            |s| snaps.push(s.clone()),
        )
        .unwrap();
        let stop = snaps.last().expect("a stopping snapshot");
        assert!(stop.done && snaps.iter().filter(|s| s.done).count() == 1);
        assert_eq!(result.answers, stop.answers, "the answer is the stopping snapshot");
        assert_eq!(result.oracle_calls, stop.budget_spent);
        assert!(result.oracle_calls < 4000, "spent {}", result.oracle_calls);
        // Every look answers from the blocking run's draws so far, and the
        // run stops at the first look after the pilot whose primary CI
        // meets the target.
        for snap in &snaps {
            let spent = snap.budget_spent;
            let want = reference_snapshot(&run, &sizes, &aggs, cfg.bootstrap.alpha, spent);
            assert_eq!(answer_bits(snap), want, "spent {spent}");
            let meets = spent >= n1 && snap.answers[0].ci.is_some_and(|ci| ci.width() < 1.5);
            assert_eq!(meets, snap.done, "spent {spent}");
        }
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
        let blocking = run_blocking(
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

    #[test]
    fn a_blocking_run_is_two_stage_then_the_bootstrap_on_one_stream() {
        use crate::bootstrap::stratified_bootstrap_cis;
        use rand::RngCore as _;
        let (scores, labels, values) = make_population(10_000);
        let aggs = [Aggregate::Avg, Aggregate::Count, Aggregate::Sum];
        let bootstrap = crate::config::BootstrapConfig { trials: 50, alpha: 0.05 };
        for reuse in [SampleReuse::Enabled, SampleReuse::Disabled] {
            let cfg = AbaeConfig { budget: 900, reuse, bootstrap, ..Default::default() };
            let strat = Stratification::by_proxy_quantile(&scores, cfg.strata);
            // Algorithm 1, then Algorithm 2's bootstrap, on one stream.
            let mut theirs = StdRng::seed_from_u64(29);
            let oracle = oracle_for(labels.clone(), values.clone());
            let run = run_two_stage(&strat, &oracle, &cfg, aggs[0], &mut theirs).unwrap();
            let sizes = strat.sizes();
            let cis = stratified_bootstrap_cis(&run.samples, &sizes, &aggs, &bootstrap, &mut theirs);
            let want: Vec<_> = aggs
                .iter()
                .zip(cis)
                .map(|(&agg, ci)| (agg, combine_estimate(agg, &run.strata).to_bits(), ci_bits(ci)))
                .collect();

            let (mut ours, mut snapshots) = (StdRng::seed_from_u64(29), 0usize);
            let oracle = oracle_for(labels.clone(), values.clone());
            let got = run_abae_stratified(&strat, &oracle, &cfg, &aggs, None, &mut ours, |_| {
                snapshots += 1
            })
            .unwrap();
            let bits: Vec<_> =
                got.answers.iter().map(|a| (a.agg, a.estimate.to_bits(), ci_bits(a.ci))).collect();
            assert_eq!(bits, want, "{reuse:?}");
            assert_eq!(got.oracle_calls, run.oracle_calls, "{reuse:?}");
            assert_eq!(ours.next_u64(), theirs.next_u64(), "{reuse:?}");
            assert_eq!(snapshots, 0, "{reuse:?}");
        }
    }
}
