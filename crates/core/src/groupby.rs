//! ABae-GroupBy: group-by aggregation with minimax allocation (§3.2, §4.5).
//!
//! The query computes a per-group statistic (e.g. `AVG(...) GROUP BY
//! hair_color`) where determining the group key is expensive. Each group
//! has its own proxy, hence its own stratification; the question is how to
//! split the Stage-2 budget *across stratifications* to minimize the
//! maximum per-group MSE. ABae-GroupBy estimates each group's
//! per-stratification error with the Proposition 2 plug-in formula and
//! solves the minimax objective (Eq. 10 single-oracle, Eq. 11
//! multiple-oracle) with Nelder–Mead over the probability simplex.
//!
//! Two oracle settings, as in the paper:
//!
//! * **Single oracle** — one invocation returns the record's group key, so
//!   every draw informs *all* groups; estimates from different
//!   stratifications are shared and combined by inverse-variance weighting.
//!   Labels are cached so a record drawn under two stratifications charges
//!   the oracle once.
//! * **Multiple oracles** — one oracle per group; a draw for group `g`'s
//!   stratification says nothing about other groups, so each group keeps
//!   its own two-stage ABae run and the allocation only decides the
//!   Stage-2 split.
//!
//! A single-oracle query with per-group CIs has one executor,
//! [`groupby_single_oracle_stratified`], over stored per-group
//! stratifications, blocking or anytime; [`check`] holds its checks in the
//! order it runs them, for callers that stratify first. Both single-oracle
//! entries run the crate's one two-stage schedule, which DESIGN.md
//! describes with anytime mode under "Running tallies and anytime
//! snapshots".

use crate::allocation::optimal_allocation;
use crate::config::{Aggregate, BootstrapConfig, ConfigError};
use crate::estimator::{combine_estimate, StratumEstimate};
use crate::normal_ci::{estimator_variance, normal_interval};
use crate::pipeline::{self, ReplicateThreads, Replicates};
use crate::schedule::{self, Sampler};
use crate::strata::Stratification;
use crate::two_stage::ProgressiveOptions;
use abae_data::{GroupLabel, GroupOracle, Labeled, Oracle};
use abae_optim::simplex::{minimize_on_simplex, SimplexOptions};
use abae_sampling::budget::floor_allocation;
use abae_sampling::pool::IndexPool;
use abae_sampling::wor::sample_without_replacement;
use abae_stats::StreamingMoments;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the Stage-2 budget is split across groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupAllocation {
    /// Minimize the maximum per-group MSE (Eq. 10/11) with Nelder–Mead.
    #[default]
    Minimax,
    /// Equal split `Λ_l = 1/G` — the "Equal" baseline in Figures 7 and 8.
    Equal,
}

/// Configuration for a group-by query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupByConfig {
    /// Strata per stratification.
    pub strata: usize,
    /// Total oracle budget across all groups and stages.
    pub budget: usize,
    /// Fraction of the budget spent in Stage 1.
    pub stage1_fraction: f64,
    /// Allocation strategy across groups.
    pub allocation: GroupAllocation,
    /// Oracle-labeling execution knobs (worker threads, batch size).
    pub exec: crate::pipeline::ExecOptions,
}

impl Default for GroupByConfig {
    fn default() -> Self {
        Self {
            strata: 5,
            budget: 10_000,
            stage1_fraction: 0.5,
            allocation: GroupAllocation::Minimax,
            exec: crate::pipeline::ExecOptions::default(),
        }
    }
}

impl GroupByConfig {
    /// Checks the configuration for a query over `groups` groups: at least
    /// one group, a positive strata count and budget, and a Stage-1
    /// fraction strictly inside `(0, 1)`, in that order. Every entry point
    /// runs it before it stratifies; a run with CIs runs it last of
    /// [`check`]'s checks.
    ///
    /// # Errors
    /// The first check that fails.
    pub fn validate(&self, groups: usize) -> Result<(), GroupByError> {
        if groups == 0 {
            return Err(GroupByError::NoGroups);
        }
        if self.strata == 0 {
            return Err(GroupByError::Config(ConfigError::ZeroStrata));
        }
        if self.budget == 0 {
            return Err(GroupByError::Config(ConfigError::ZeroBudget));
        }
        if !(self.stage1_fraction > 0.0 && self.stage1_fraction < 1.0) {
            return Err(GroupByError::Config(ConfigError::BadStageFraction(
                self.stage1_fraction,
            )));
        }
        Ok(())
    }
}

/// Errors from group-by execution.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupByError {
    /// The query has no groups.
    NoGroups,
    /// Group count disagreement between proxies and oracles.
    GroupMismatch {
        /// Number of proxies supplied.
        proxies: usize,
        /// Number of groups the oracle(s) know about.
        oracles: usize,
    },
    /// Underlying configuration error.
    Config(ConfigError),
}

impl std::fmt::Display for GroupByError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupByError::NoGroups => write!(f, "group-by query needs at least one group"),
            GroupByError::GroupMismatch { proxies, oracles } => {
                write!(f, "{proxies} proxies but {oracles} oracle groups")
            }
            GroupByError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for GroupByError {}

/// Estimate for one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEstimate {
    /// Group id (index into the proxy list).
    pub group: u16,
    /// Estimated per-group average.
    pub estimate: f64,
}

/// A group estimate with a per-group CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEstimateWithCi {
    /// Group id (index into the proxy list).
    pub group: u16,
    /// Estimated per-group average.
    pub estimate: f64,
    /// The CI: a stratified percentile bootstrap, widened to reach the
    /// estimate, for a blocking or capped answer (`None` when the group's
    /// samples are empty), closed-form for an intermediate or early-stopped
    /// anytime snapshot (`None` when the group's estimate takes the
    /// fallback path).
    pub ci: Option<abae_stats::bootstrap::ConfidenceInterval>,
}

/// Every (stratification, stratum, group) cell's estimates, stored so that
/// one (stratification, group) row of `K` cells is contiguous: cell
/// `(l, kk, gg)` sits at `(l·G + gg)·K + kk`. A cell's size is its stratum's,
/// set once; filling a bucket rewrites the rest.
#[derive(Clone)]
struct CellGrid {
    groups: usize,
    strata: usize,
    cells: Vec<StratumEstimate>,
    /// One accumulator per group, reused by every bucket.
    moments: Vec<StreamingMoments>,
}

impl CellGrid {
    /// Empty cells over the stratum sizes of every group's stratification,
    /// in group order.
    fn new(stratifications: &[Arc<Stratification>]) -> Self {
        let groups = stratifications.len();
        let strata = stratifications.first().map_or(0, |s| s.len());
        let empty = StreamingMoments::new();
        let cells = stratifications
            .iter()
            .flat_map(|s| {
                let sizes = s.sizes();
                (0..groups).flat_map(move |_| sizes.clone())
            })
            .map(|size| StratumEstimate::from_moments(size, 0, &empty))
            .collect();
        CellGrid { groups, strata, cells, moments: vec![empty; groups] }
    }

    /// The `K` cells of group `gg` under stratification `l`.
    fn row(&self, l: usize, gg: usize) -> &[StratumEstimate] {
        let start = (l * self.groups + gg) * self.strata;
        &self.cells[start..start + self.strata]
    }

    /// Fills bucket `(l, kk)`'s cells for every group in one pass over its
    /// labels: each label of group `gg < G` feeds cell `gg` in draw order;
    /// any other label is a draw that no group counts as positive.
    fn fill_bucket(&mut self, l: usize, kk: usize, labels: impl Iterator<Item = GroupLabel>) {
        self.moments.fill(StreamingMoments::new());
        let mut draws = 0;
        for label in labels {
            draws += 1;
            if let Some(m) = label.group.and_then(|gg| self.moments.get_mut(usize::from(gg))) {
                m.push(label.value);
            }
        }
        for (gg, m) in self.moments.iter().enumerate() {
            let cell = &mut self.cells[(l * self.groups + gg) * self.strata + kk];
            *cell = StratumEstimate::from_moments(cell.size, draws, m);
        }
    }
}

/// The cells of sampled buckets, each label looked up once.
fn bucket_cells(
    buckets: &[Vec<Vec<usize>>],
    cache: &BTreeMap<usize, GroupLabel>,
    stratifications: &[Arc<Stratification>],
) -> CellGrid {
    let mut grid = CellGrid::new(stratifications);
    for (l, stratification) in buckets.iter().enumerate() {
        for (kk, ids) in stratification.iter().enumerate() {
            grid.fill_bucket(l, kk, ids.iter().map(|id| cached_label(cache, id)));
        }
    }
    grid
}

/// A sampled id's cached label.
fn cached_label(cache: &BTreeMap<usize, GroupLabel>, id: &usize) -> GroupLabel {
    *cache.get(id).expect("every sampled id is labeled")
}

/// Eq. 10/11 inner term: the per-unit-budget error of estimating group `g`
/// from one stratification, `Σ_k ŵ²_k σ̂²_k / (p̂_k T̂_k)`.
fn per_unit_error(cells: &[StratumEstimate], t_hat: &[f64]) -> f64 {
    let weight_total: f64 = cells.iter().map(|c| c.size as f64 * c.p_hat).sum();
    if weight_total <= 0.0 {
        return f64::INFINITY;
    }
    let mut err = 0.0;
    for (c, &t) in cells.iter().zip(t_hat) {
        let w = c.size as f64 * c.p_hat / weight_total;
        if w == 0.0 || c.sigma_hat == 0.0 {
            continue;
        }
        let eff = c.p_hat * t;
        if eff <= 0.0 {
            return f64::INFINITY;
        }
        err += w * w * c.sigma_hat * c.sigma_hat / eff;
    }
    err
}

/// Solves the minimax allocation over groups given per-(stratification,
/// group) unit errors. `err_unit[l][g]` may be infinite (stratification `l`
/// carries no information about group `g`).
fn solve_allocation(
    err_unit: &[Vec<f64>],
    n2: usize,
    strategy: GroupAllocation,
) -> Vec<f64> {
    let g = err_unit.len();
    match strategy {
        GroupAllocation::Equal => vec![1.0 / g as f64; g],
        GroupAllocation::Minimax => {
            let objective = |lambda: &[f64]| -> f64 {
                // Eq. 10: max_g [ Σ_l Λ_l·N2 / err_unit[l][g] ]^{-1}
                let mut worst = 0.0f64;
                for gg in 0..g {
                    let mut precision = 0.0;
                    for (row, lam) in err_unit.iter().zip(lambda) {
                        let e = row[gg];
                        if e.is_finite() && e > 0.0 {
                            precision += lam * n2 as f64 / e;
                        } else if e == 0.0 {
                            precision = f64::INFINITY;
                        }
                    }
                    let mse = if precision > 0.0 { 1.0 / precision } else { f64::INFINITY };
                    worst = worst.max(mse);
                }
                worst
            };
            let (lambda, _) = minimize_on_simplex(objective, g, SimplexOptions::default());
            lambda
        }
    }
}

/// Labels the cache misses among `ids` through the batch pipeline (one
/// oracle charge per distinct record, ever). `ids` may repeat a record
/// drawn under two stratifications — only its first occurrence reaches the
/// oracle, exactly as if the occurrences were labeled in separate calls.
fn label_uncached<O: GroupOracle + ?Sized>(
    oracle: &O,
    ids: impl Iterator<Item = usize>,
    cache: &mut BTreeMap<usize, GroupLabel>,
    cfg: &GroupByConfig,
) {
    let mut seen = BTreeSet::new();
    let misses: Vec<usize> = ids.filter(|i| !cache.contains_key(i) && seen.insert(*i)).collect();
    let labels = crate::pipeline::label_groups_all(oracle, &misses, &cfg.exec);
    for (idx, label) in misses.into_iter().zip(labels) {
        cache.insert(idx, label);
    }
}

/// Stage-1 size of a single-oracle group-by run over `records` records:
/// one uniform pilot of ⌊C·budget⌋ draws, capped at the table size and
/// shared by every group's stratification. The rest of the budget goes to
/// the minimax allocation. Execution and `EXPLAIN` both call this, so the
/// printed split is the one that runs.
pub fn single_oracle_pilot(budget: usize, stage1_fraction: f64, records: usize) -> usize {
    ((stage1_fraction * budget as f64).floor() as usize).min(records)
}

/// The sampled state of one single-oracle group-by run: everything the
/// final estimator (and its bootstrap) needs, with no further oracle cost.
struct SingleOracleRun {
    /// `buckets[l][k]`: record ids sampled into stratum `k` of
    /// stratification `l` (pilot plus that stratification's Stage-2 draws).
    buckets: Vec<Vec<Vec<usize>>>,
    /// Every sampled id's group label (one oracle charge per distinct id).
    cache: BTreeMap<usize, GroupLabel>,
    /// Per-group stratifications, in group order, shared with the caller.
    stratifications: Vec<Arc<Stratification>>,
}

/// The checks [`groupby_single_oracle_stratified`] runs first, in order:
/// the bootstrap `alpha`, then (for an anytime run) the CI width target,
/// then [`GroupByConfig::validate`] over `groups` groups. A caller that
/// stratifies on its own (as the engine's strata cache does) runs them
/// before it sorts, so a bad statement fails the same way and sorts
/// nothing.
///
/// # Errors
/// The first check that fails.
pub fn check(
    cfg: &GroupByConfig,
    bootstrap: &BootstrapConfig,
    anytime: Option<&ProgressiveOptions>,
    groups: usize,
) -> Result<(), GroupByError> {
    bootstrap.validate().map_err(GroupByError::Config)?;
    anytime.map_or(Ok(()), ProgressiveOptions::validate).map_err(GroupByError::Config)?;
    cfg.validate(groups)
}

fn check_oracle<O: GroupOracle + ?Sized>(groups: usize, oracle: &O) -> Result<(), GroupByError> {
    let oracles = oracle.group_count();
    if oracles != groups {
        return Err(GroupByError::GroupMismatch { proxies: groups, oracles });
    }
    Ok(())
}

/// Checks the configuration, then the oracle's group count, then
/// stratifies every group's proxy into `cfg.strata` quantile strata
/// (`ABaeInit`), in group order: what the proxy-taking entry points do
/// before they sample.
fn stratify_groups<O: GroupOracle + ?Sized>(
    proxies: &[&[f64]],
    oracle: &O,
    cfg: &GroupByConfig,
) -> Result<Vec<Arc<Stratification>>, GroupByError> {
    cfg.validate(proxies.len())?;
    check_oracle(proxies.len(), oracle)?;
    Ok(proxies.iter().map(|p| Arc::new(Stratification::by_proxy_quantile(p, cfg.strata))).collect())
}

/// ABae-GroupBy in the single-oracle setting.
///
/// `proxies[g]` are group `g`'s proxy scores over the full dataset; the
/// oracle returns the group key. Returns one estimate per group.
pub fn groupby_single_oracle<O: GroupOracle + ?Sized, R: Rng + ?Sized>(
    proxies: &[&[f64]],
    oracle: &O,
    cfg: &GroupByConfig,
    rng: &mut R,
) -> Result<Vec<GroupEstimate>, GroupByError> {
    let stratifications = stratify_groups(proxies, oracle, cfg)?;
    // No look and no bootstrap, so the bootstrap settings go unread.
    let mut sampler = SingleOracle::new(&stratifications, oracle, cfg, BootstrapConfig::default())?;
    schedule::run_stages(&mut sampler, usize::MAX, rng, |_, _, _| false);
    let run = &sampler.run;
    let estimates = single_oracle_estimates(&run.buckets, &run.cache, &run.stratifications);
    Ok(estimates
        .into_iter()
        .enumerate()
        .map(|(gg, estimate)| GroupEstimate { group: gg as u16, estimate })
        .collect())
}

/// Per-group point estimates plus bootstrap CIs for a sampled single-oracle
/// run state, with the replicates run by `threads`. Pure in the run state;
/// all randomness comes from `rng`.
///
/// Each bucket's labels are looked up once per call, not once per
/// replicate, draw and group. A replicate resamples every bucket's labels —
/// stratifications in order, strata in order, one `gen_range(0..n)` per
/// draw — straight into the bucket's cells, every group in one pass, and
/// takes the same [`estimates_from_cells`] step as the point estimate, so
/// it equals [`single_oracle_estimates`] over the resampled ids. A
/// replicate reads one word per bucket draw, so replicates split into
/// blocks across `threads` like the scalar bootstrap's
/// ([`pipeline::replicates`]).
fn single_oracle_bootstrap_cis_on<R: Rng + ?Sized>(
    threads: ReplicateThreads,
    run: &SingleOracleRun,
    bootstrap: &BootstrapConfig,
    rng: &mut R,
) -> Vec<GroupEstimateWithCi> {
    let kernel = GroupReplicates::new(run);
    let replicates = pipeline::replicates(&kernel, bootstrap.trials, kernel.draws, threads, rng);
    kernel.with_cis(replicates, bootstrap.alpha)
}

/// The single-oracle GROUP BY replicate kernel: every bucket's labels,
/// looked up once, and the point estimate's cells.
struct GroupReplicates {
    /// `labels[l][kk]`: bucket `(l, kk)`'s labels in draw order.
    labels: Vec<Vec<Vec<GroupLabel>>>,
    /// The point estimate's cells; every block of replicates refills a copy.
    grid: CellGrid,
    /// Draws per replicate: the sum of the bucket sizes.
    draws: usize,
}

impl GroupReplicates {
    fn new(run: &SingleOracleRun) -> Self {
        let labels: Vec<Vec<Vec<GroupLabel>>> = run
            .buckets
            .iter()
            .map(|buckets| {
                buckets
                    .iter()
                    .map(|ids| ids.iter().map(|id| cached_label(&run.cache, id)).collect())
                    .collect()
            })
            .collect();
        let mut grid = CellGrid::new(&run.stratifications);
        let mut draws = 0;
        for (l, buckets) in labels.iter().enumerate() {
            for (kk, bucket) in buckets.iter().enumerate() {
                grid.fill_bucket(l, kk, bucket.iter().copied());
                draws += bucket.len();
            }
        }
        GroupReplicates { labels, grid, draws }
    }

    /// Each group's point estimate with the percentile CI of its replicate
    /// estimates.
    fn with_cis(&self, replicates: Vec<Vec<f64>>, alpha: f64) -> Vec<GroupEstimateWithCi> {
        estimates_from_cells(&self.grid)
            .into_iter()
            .zip(replicates)
            .enumerate()
            .map(|(gg, (estimate, mut reps))| GroupEstimateWithCi {
                group: gg as u16,
                estimate,
                ci: bracketing_ci(estimate, &mut reps, alpha),
            })
            .collect()
    }
}

/// The percentile CI of a group's replicate estimates, widened to reach the
/// group's point estimate. The blend of a group whose labeled values are
/// all equal can round one ulp to one side of that value while every
/// replicate rounds to the other; widening keeps `lo <= estimate <= hi`.
fn bracketing_ci(
    estimate: f64,
    replicates: &mut [f64],
    alpha: f64,
) -> Option<abae_stats::bootstrap::ConfidenceInterval> {
    abae_stats::bootstrap::percentile_ci(replicates, alpha).map(|ci| {
        abae_stats::bootstrap::ConfidenceInterval {
            lo: ci.lo.min(estimate),
            hi: ci.hi.max(estimate),
            ..ci
        }
    })
}

impl Replicates for GroupReplicates {
    fn statistics(&self) -> usize {
        self.labels.len()
    }

    fn run<G: Rng + ?Sized>(&self, reps: usize, rng: &mut G) -> Vec<Vec<f64>> {
        let mut grid = self.grid.clone();
        let mut replicates: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); self.labels.len()];
        for _ in 0..reps {
            for (l, buckets) in self.labels.iter().enumerate() {
                for (kk, bucket) in buckets.iter().enumerate() {
                    let n = bucket.len();
                    grid.fill_bucket(l, kk, (0..n).map(|_| bucket[rng.gen_range(0..n)]));
                }
            }
            for (gg, reps) in replicates.iter_mut().enumerate() {
                reps.push(blend_group(&grid, gg, |_, _| {}).estimate);
            }
        }
        replicates
    }
}

/// One progressive group-by snapshot: per-group estimates with CIs from
/// the labels accumulated so far.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSnapshot {
    /// Per-group estimates with CIs, in group order. An intermediate
    /// snapshot's CIs are closed-form (`None` for a group on the fallback
    /// path); the last snapshot of a run that spends its cap carries the
    /// blocking run's bootstrap CIs.
    pub groups: Vec<GroupEstimateWithCi>,
    /// Oracle labels actually charged so far.
    pub budget_spent: u64,
    /// True on the run's final snapshot (early stop or full budget).
    pub done: bool,
}

/// The answer of a single-oracle group-by run with CIs, blocking or
/// anytime.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByResult {
    /// Per-group estimates with CIs, in group order (an anytime run's
    /// final snapshot's rows).
    pub groups: Vec<GroupEstimateWithCi>,
    /// Oracle labels actually charged (less than the configured budget
    /// when an anytime run stopped early).
    pub oracle_calls: u64,
}

/// Anytime ABae-GroupBy (single oracle) over the proxies: runs the
/// checks, stratifies every group's proxy (`ABaeInit`), in group order,
/// and runs [`groupby_single_oracle_stratified`] in anytime mode.
///
/// # Errors
/// The errors of [`check`], then a group-count mismatch with the oracle.
pub fn groupby_single_oracle_progressive<O: GroupOracle + ?Sized, R: Rng + ?Sized>(
    proxies: &[&[f64]],
    oracle: &O,
    cfg: &GroupByConfig,
    bootstrap: &BootstrapConfig,
    progressive: &ProgressiveOptions,
    rng: &mut R,
    on_snapshot: impl FnMut(&GroupSnapshot),
) -> Result<GroupByResult, GroupByError> {
    check(cfg, bootstrap, Some(progressive), proxies.len())?;
    let stratifications = stratify_groups(proxies, oracle, cfg)?;
    groupby_single_oracle_stratified(
        &stratifications,
        oracle,
        cfg,
        bootstrap,
        Some(progressive),
        rng,
        on_snapshot,
    )
}

/// The one single-oracle GROUP BY executor with CIs, over per-group
/// stratifications the caller already built, in group order.
///
/// The sampling phase is [`groupby_single_oracle`]'s (same RNG stream,
/// same oracle spend); the bootstrap then resamples every `(stratification,
/// stratum)` bucket's cached labels and recomputes the full
/// inverse-variance-weighted estimator per replicate. That treats the
/// buckets as independent, but the pilot's records are shared across
/// stratifications, so the CIs are too narrow: `BENCH_coverage.json`
/// measures 0.864–0.868 per CI at a nominal 0.95 (ROADMAP item 1).
///
/// `anytime` picks the mode as in [`crate::two_stage::run_abae_stratified`];
/// an anytime run stops once the pilot is complete and **every** group's
/// closed-form CI is narrower than [`ProgressiveOptions::target_ci_width`]
/// (DESIGN.md, "Running tallies and anytime snapshots").
///
/// Stored stratifications answer bit for bit like a fresh sort of the
/// same proxies and `K`.
///
/// # Errors
/// The errors of [`check`], then a group-count mismatch with the oracle.
///
/// # Panics
/// Panics unless every stratification has `cfg.strata` strata over one
/// record count.
pub fn groupby_single_oracle_stratified<O: GroupOracle + ?Sized, R: Rng + ?Sized>(
    stratifications: &[Arc<Stratification>],
    oracle: &O,
    cfg: &GroupByConfig,
    bootstrap: &BootstrapConfig,
    anytime: Option<&ProgressiveOptions>,
    rng: &mut R,
    mut on_snapshot: impl FnMut(&GroupSnapshot),
) -> Result<GroupByResult, GroupByError> {
    check(cfg, bootstrap, anytime, stratifications.len())?;
    let calls_before = oracle.calls();
    let sampler = SingleOracle::new(stratifications, oracle, cfg, *bootstrap)?;
    let batch = cfg.exec.batch_size;
    let groups = schedule::run(sampler, anytime, batch, rng, |groups, spent, done| {
        on_snapshot(&GroupSnapshot { groups, budget_spent: spent, done })
    });
    Ok(GroupByResult { groups, oracle_calls: oracle.calls() - calls_before })
}

/// Single-oracle ABae-GroupBy (§4.5) as the schedule's sampler: one
/// uniform pilot shared by every group's stratification, then each
/// stratification's Stage 2 by the minimax allocation. A record drawn
/// under two stratifications charges the oracle once: labeling goes
/// through the batch pipeline, cache misses only.
struct SingleOracle<'a, O: ?Sized> {
    oracle: &'a O,
    cfg: &'a GroupByConfig,
    bootstrap: BootstrapConfig,
    run: SingleOracleRun,
    /// The pilot's size.
    n1: usize,
    calls_before: u64,
}

impl<'a, O: GroupOracle + ?Sized> SingleOracle<'a, O> {
    fn new(
        stratifications: &[Arc<Stratification>],
        oracle: &'a O,
        cfg: &'a GroupByConfig,
        bootstrap: BootstrapConfig,
    ) -> Result<Self, GroupByError> {
        let (g, k) = (stratifications.len(), cfg.strata);
        check_oracle(g, oracle)?;
        let n = stratifications[0].total();
        assert!(
            stratifications.iter().all(|s| s.len() == k && s.total() == n),
            "every group's stratification must have {k} strata over {n} records"
        );
        Ok(SingleOracle {
            oracle,
            cfg,
            bootstrap,
            run: SingleOracleRun {
                buckets: vec![vec![Vec::new(); k]; g],
                cache: BTreeMap::new(),
                stratifications: stratifications.to_vec(),
            },
            n1: single_oracle_pilot(cfg.budget, cfg.stage1_fraction, n),
            calls_before: oracle.calls(),
        })
    }
}

impl<O: GroupOracle + ?Sized> Sampler for SingleOracle<'_, O> {
    /// A record id and the `(stratification, stratum)` bucket it was drawn
    /// for, or `None` for a pilot draw, which every stratification files.
    type Draw = (usize, Option<(usize, usize)>);
    type Rows = Vec<GroupEstimateWithCi>;

    fn draw_pilot<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<Self::Draw> {
        let n = self.run.stratifications[0].total();
        sample_without_replacement(n, self.n1, rng).into_iter().map(|id| (id, None)).collect()
    }

    fn label(&mut self, chunk: &[Self::Draw]) -> u64 {
        label_uncached(self.oracle, chunk.iter().map(|&(id, _)| id), &mut self.run.cache, self.cfg);
        let run = &mut self.run;
        for &(id, bucket) in chunk {
            match bucket {
                Some((l, kk)) => run.buckets[l][kk].push(id),
                None => {
                    for (l, strat) in run.stratifications.iter().enumerate() {
                        run.buckets[l][strat.locate(id).0].push(id);
                    }
                }
            }
        }
        self.oracle.calls() - self.calls_before
    }

    fn plan<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<Self::Draw> {
        let run = &self.run;
        let g = run.stratifications.len();
        // Pilot estimates and allocations.
        let grid = bucket_cells(&run.buckets, &run.cache, &run.stratifications);
        let mut t_hats: Vec<Vec<f64>> = Vec::with_capacity(g);
        let mut err_unit: Vec<Vec<f64>> = vec![vec![f64::INFINITY; g]; g];
        for (l, err_row) in err_unit.iter_mut().enumerate() {
            // Allocation optimized for stratification l's own group.
            let own = grid.row(l, l);
            let t = optimal_allocation(
                &own.iter().map(|c| c.p_hat).collect::<Vec<_>>(),
                &own.iter().map(|c| c.sigma_hat).collect::<Vec<_>>(),
            );
            for (gg, slot) in err_row.iter_mut().enumerate() {
                *slot = per_unit_error(grid.row(l, gg), &t);
            }
            t_hats.push(t);
        }

        // Allocation across stratifications, then every Stage-2 draw.
        let n2 = self.cfg.budget.saturating_sub(self.n1);
        let lambda = solve_allocation(&err_unit, n2.max(1), self.cfg.allocation);
        let mut draws = Vec::new();
        for l in 0..g {
            let budget_l = (lambda[l] * n2 as f64).floor() as usize;
            let per_stratum = floor_allocation(&t_hats[l], budget_l);
            for (kk, &want) in per_stratum.iter().enumerate() {
                // Records new to this bucket, so that its two stages stay a
                // without-replacement sample. A record drawn under another
                // stratification can recur; the label cache absorbs it.
                let fresh = draw_fresh(&run.stratifications[l], kk, &run.buckets[l][kk], want, rng);
                draws.extend(fresh.into_iter().map(|id| (id, Some((l, kk)))));
            }
        }
        draws
    }

    fn look(&self, target: Option<f64>) -> (Vec<GroupEstimateWithCi>, bool) {
        let groups = single_oracle_closed_form_cis(&self.run, self.bootstrap.alpha);
        // A group with no CI yet keeps the run going.
        let meets = target
            .is_some_and(|w| groups.iter().all(|e| e.ci.is_some_and(|ci| ci.width() < w)));
        (groups, meets)
    }

    fn finish<R: Rng + ?Sized>(self, threads: ReplicateThreads, rng: &mut R) -> Self::Rows {
        single_oracle_bootstrap_cis_on(threads, &self.run, &self.bootstrap, rng)
    }
}

/// Draws `want` fresh members of stratum `kk` — members not among
/// `taken`, the bucket's ids so far — uniformly without replacement, in
/// O(|taken| + want) rather than O(|members|). The fresh members, in
/// member order, are never built: `sample_without_replacement(members −
/// taken, …)` draws fresh positions, and each maps to its member by
/// skipping the taken members' sorted positions (located through the
/// record → position map). So this returns the same records, in the same
/// order, from the same RNG calls as drawing from the filtered member
/// list.
fn draw_fresh<R: Rng + ?Sized>(
    strat: &Stratification,
    kk: usize,
    taken: &[usize],
    want: usize,
    rng: &mut R,
) -> Vec<usize> {
    let members = strat.stratum(kk);
    let mut skips: Vec<usize> = taken
        .iter()
        .map(|&id| {
            let (k, i) = strat.locate(id);
            debug_assert_eq!(k, kk, "a bucket holds only its own stratum's members");
            i
        })
        .collect();
    skips.sort_unstable();
    skips.dedup();
    // `skips[j] - j` fresh members precede the j-th taken one, so fresh
    // position `f` lies past exactly the taken members with
    // `skips[j] - j <= f`.
    for (j, skip) in skips.iter_mut().enumerate() {
        *skip -= j;
    }
    sample_without_replacement(members.len() - skips.len(), want, rng)
        .into_iter()
        .map(|f| members[f + skips.partition_point(|&s| s <= f)])
        .collect()
}

/// Final single-oracle estimates: per group, inverse-variance weighting
/// across stratifications (§4.5 "Single Oracle"). Pure function of the
/// sampled buckets and cached labels.
fn single_oracle_estimates(
    buckets: &[Vec<Vec<usize>>],
    cache: &BTreeMap<usize, GroupLabel>,
    stratifications: &[Arc<Stratification>],
) -> Vec<f64> {
    estimates_from_cells(&bucket_cells(buckets, cache, stratifications))
}

/// The cells → estimates step of the point estimate: every group's
/// [`blend_group`].
fn estimates_from_cells(grid: &CellGrid) -> Vec<f64> {
    (0..grid.groups).map(|gg| blend_group(grid, gg, |_, _| {}).estimate).collect()
}

/// One group's estimate, blended across stratifications.
struct Blend {
    /// The group's estimate.
    estimate: f64,
    /// The sum of the blended stratifications' weights; `0` when the
    /// estimate takes the fallback path (no stratification is usable, or
    /// none has a finite variance).
    weight_total: f64,
}

/// Group `gg`'s inverse-variance blend across stratifications (§4.5
/// "Single Oracle"), shared by the point estimate, every bootstrap
/// replicate and the closed-form CI. Each stratification `l` whose cells
/// weigh only strata with positive draws gives an estimate `est_l` and a
/// variance `Σ_k ŵ²σ̂²/B_k`, and is weighted by `w_l = 1/max(var_l, 1e-12)`;
/// `on_term(w_l, cells_l)` sees each such weight with the
/// stratification's row of cells.
fn blend_group(
    grid: &CellGrid,
    gg: usize,
    mut on_term: impl FnMut(f64, &[StratumEstimate]),
) -> Blend {
    let mut weighted = 0.0;
    let mut weight_total = 0.0;
    let mut fallback_sum = 0.0;
    let mut fallback_n = 0usize;
    for l in 0..grid.groups {
        let cells = grid.row(l, gg);
        // Point estimate from stratification l.
        let est = combine_estimate(Aggregate::Avg, cells);
        // Variance estimate: Σ_k ŵ²σ̂²/B_k over positive draws.
        let w_total: f64 = cells.iter().map(|c| c.size as f64 * c.p_hat).sum();
        if w_total <= 0.0 {
            continue;
        }
        let mut var = 0.0;
        let mut usable = true;
        for c in cells {
            let w = c.size as f64 * c.p_hat / w_total;
            if w == 0.0 {
                continue;
            }
            if c.positives == 0 {
                usable = false;
                break;
            }
            var += w * w * c.sigma_hat * c.sigma_hat / c.positives as f64;
        }
        if !usable {
            continue;
        }
        fallback_sum += est;
        fallback_n += 1;
        let w = 1.0 / var.max(1e-12);
        weighted += w * est;
        weight_total += w;
        on_term(w, cells);
    }
    let estimate = if weight_total > 0.0 {
        weighted / weight_total
    } else if fallback_n > 0 {
        fallback_sum / fallback_n as f64
    } else {
        0.0
    };
    Blend { estimate, weight_total }
}

/// Per-group estimates with closed-form CIs at `alpha`: an intermediate
/// snapshot's answer, with no RNG. A group's variance blends each
/// stratification's `AVG` delta-method variance `V_l`
/// ([`estimator_variance`]) with the point estimate's own normalized
/// weights `a_l = w_l / Σ w`: `Var = Σ_l a_l² V_l`, the variance of the
/// blend if the stratifications were independent. A group on the fallback
/// path, or with a variance that is not finite, gets no CI.
fn single_oracle_closed_form_cis(run: &SingleOracleRun, alpha: f64) -> Vec<GroupEstimateWithCi> {
    let grid = bucket_cells(&run.buckets, &run.cache, &run.stratifications);
    let mut terms: Vec<(f64, Option<f64>)> = Vec::with_capacity(grid.groups);
    (0..grid.groups)
        .map(|gg| {
            terms.clear();
            let blend = blend_group(&grid, gg, |w, strata| {
                terms.push((w, estimator_variance(Aggregate::Avg, strata)));
            });
            let var = (blend.weight_total > 0.0).then(|| {
                terms
                    .iter()
                    .filter(|&&(w, _)| w > 0.0)
                    .map(|&(w, v)| {
                        let a = w / blend.weight_total;
                        v.map(|v| a * a * v)
                    })
                    .sum::<Option<f64>>()
            });
            let ci = var.flatten().and_then(|var| normal_interval(blend.estimate, var, alpha));
            GroupEstimateWithCi { group: gg as u16, estimate: blend.estimate, ci }
        })
        .collect()
}

/// ABae-GroupBy in the multiple-oracle setting: one predicate oracle per
/// group; group `g`'s samples inform only group `g`.
pub fn groupby_multi_oracle<O: Oracle, R: Rng + ?Sized>(
    proxies: &[&[f64]],
    oracles: &[&O],
    cfg: &GroupByConfig,
    rng: &mut R,
) -> Result<Vec<GroupEstimate>, GroupByError> {
    let g = proxies.len();
    cfg.validate(g)?;
    if oracles.len() != g {
        return Err(GroupByError::GroupMismatch { proxies: g, oracles: oracles.len() });
    }
    let k = cfg.strata;

    let stratifications: Vec<Stratification> =
        proxies.iter().map(|p| Stratification::by_proxy_quantile(p, k)).collect();

    // Stage 1: per-group pilot of ⌊C·budget/G⌋ draws, spread over strata.
    let n1_group = ((cfg.stage1_fraction * cfg.budget as f64) / g as f64).floor() as usize;
    let n1_stratum = (n1_group / k).max(1);

    let mut pools: Vec<Vec<IndexPool>> = Vec::with_capacity(g);
    let mut draws: Vec<Vec<Vec<Labeled>>> = Vec::with_capacity(g);
    for l in 0..g {
        let mut group_pools = Vec::with_capacity(k);
        let mut group_draws = Vec::with_capacity(k);
        for kk in 0..k {
            let members = stratifications[l].stratum(kk);
            let mut pool = IndexPool::new(members.len());
            let drawn: Vec<usize> =
                pool.draw(n1_stratum, rng).iter().map(|&local| members[local]).collect();
            group_pools.push(pool);
            group_draws.push(crate::pipeline::label_all(oracles[l], &drawn, &cfg.exec));
        }
        pools.push(group_pools);
        draws.push(group_draws);
    }

    // Pilot estimates, T̂ per group, Eq. 11 unit errors.
    let mut t_hats: Vec<Vec<f64>> = Vec::with_capacity(g);
    let mut unit_err: Vec<f64> = Vec::with_capacity(g);
    for l in 0..g {
        let sizes = stratifications[l].sizes();
        let ests: Vec<StratumEstimate> = (0..k)
            .map(|kk| StratumEstimate::from_draws(sizes[kk], &draws[l][kk]))
            .collect();
        let t = optimal_allocation(
            &ests.iter().map(|e| e.p_hat).collect::<Vec<_>>(),
            &ests.iter().map(|e| e.sigma_hat).collect::<Vec<_>>(),
        );
        unit_err.push(per_unit_error(&ests, &t));
        t_hats.push(t);
    }

    // Eq. 11 is the diagonal special case of Eq. 10.
    let err_matrix: Vec<Vec<f64>> = (0..g)
        .map(|l| {
            (0..g)
                .map(|gg| if l == gg { unit_err[l] } else { f64::INFINITY })
                .collect()
        })
        .collect();
    let n2 = cfg.budget.saturating_sub(n1_stratum * k * g);
    let lambda = solve_allocation(&err_matrix, n2.max(1), cfg.allocation);

    // Stage 2: extend each group's without-replacement draws.
    let mut out = Vec::with_capacity(g);
    for l in 0..g {
        let budget_l = (lambda[l] * n2 as f64).floor() as usize;
        let per_stratum = floor_allocation(&t_hats[l], budget_l);
        let sizes = stratifications[l].sizes();
        for kk in 0..k {
            let members = stratifications[l].stratum(kk);
            let drawn: Vec<usize> =
                pools[l][kk].draw(per_stratum[kk], rng).iter().map(|&local| members[local]).collect();
            draws[l][kk].extend(crate::pipeline::label_all(oracles[l], &drawn, &cfg.exec));
        }
        let ests: Vec<StratumEstimate> = (0..k)
            .map(|kk| StratumEstimate::from_draws(sizes[kk], &draws[l][kk]))
            .collect();
        out.push(GroupEstimate {
            group: l as u16,
            estimate: combine_estimate(crate::config::Aggregate::Avg, &ests),
        });
    }
    Ok(out)
}

/// Uniform baseline for the single-oracle setting: spend the whole budget
/// on one uniform sample and average per group.
pub fn groupby_uniform_single<O: GroupOracle + ?Sized, R: Rng + ?Sized>(
    n: usize,
    oracle: &O,
    budget: usize,
    rng: &mut R,
) -> Vec<GroupEstimate> {
    let g = oracle.group_count();
    let mut sums = vec![0.0; g];
    let mut counts = vec![0usize; g];
    let drawn = sample_without_replacement(n, budget, rng);
    for l in oracle.label_group_batch(&drawn) {
        if let Some(gg) = l.group {
            sums[gg as usize] += l.value;
            counts[gg as usize] += 1;
        }
    }
    (0..g)
        .map(|gg| GroupEstimate {
            group: gg as u16,
            estimate: if counts[gg] > 0 { sums[gg] / counts[gg] as f64 } else { 0.0 },
        })
        .collect()
}

/// Uniform baseline for the multiple-oracle setting: `budget/G` uniform
/// draws per group, labeled with that group's oracle.
pub fn groupby_uniform_multi<O: Oracle, R: Rng + ?Sized>(
    n: usize,
    oracles: &[&O],
    budget: usize,
    rng: &mut R,
) -> Vec<GroupEstimate> {
    let g = oracles.len();
    let per_group = budget.checked_div(g).unwrap_or(0);
    let mut out = Vec::with_capacity(g);
    for (gg, oracle) in oracles.iter().enumerate() {
        let mut sum = 0.0;
        let mut count = 0usize;
        for idx in sample_without_replacement(n, per_group, rng) {
            let l = oracle.label(idx);
            if l.matches {
                sum += l.value;
                count += 1;
            }
        }
        out.push(GroupEstimate {
            group: gg as u16,
            estimate: if count > 0 { sum / count as f64 } else { 0.0 },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use abae_data::{PredicateOracle, SingleGroupOracle, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a dataset with three disjoint groups whose proxies are
    /// informative and whose per-group means differ.
    fn group_table(n: usize, seed: u64) -> Table {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let rates = [0.15, 0.10, 0.05];
        let means = [10.0, 20.0, 40.0];
        let mut key = Vec::with_capacity(n);
        let mut labels: Vec<Vec<bool>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
        let mut proxies: Vec<Vec<f64>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = rng.gen();
            let group = if u < rates[0] {
                Some(0u16)
            } else if u < rates[0] + rates[1] {
                Some(1)
            } else if u < rates[0] + rates[1] + rates[2] {
                Some(2)
            } else {
                None
            };
            key.push(group);
            for g in 0..3 {
                let member = group == Some(g as u16);
                labels[g].push(member);
                let base: f64 = if member { 0.75 } else { 0.25 };
                proxies[g].push((base + rng.gen_range(-0.2..0.2)).clamp(0.0, 1.0));
            }
            let mean = group.map(|g| means[g as usize]).unwrap_or(0.0);
            values.push(mean + rng.gen_range(-2.0..2.0));
        }
        let mut builder = Table::builder("grp", values);
        for (g, name) in ["g0", "g1", "g2"].iter().enumerate() {
            builder = builder.predicate(
                *name,
                std::mem::take(&mut labels[g]),
                std::mem::take(&mut proxies[g]),
            );
        }
        builder
            .group_key(vec!["g0".into(), "g1".into(), "g2".into()], key)
            .build()
            .unwrap()
    }

    fn max_abs_err(table: &Table, ests: &[GroupEstimate]) -> f64 {
        ests.iter()
            .map(|e| {
                let exact = table.exact_group_avg(e.group).unwrap();
                (e.estimate - exact).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn single_oracle_estimates_every_group() {
        let t = group_table(40_000, 1);
        let oracle = SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 6000, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let ests = groupby_single_oracle(&proxies, &oracle, &cfg, &mut rng).unwrap();
        assert_eq!(ests.len(), 3);
        let err = max_abs_err(&t, &ests);
        assert!(err < 2.0, "max abs err {err}: {ests:?}");
    }

    #[test]
    fn single_oracle_label_cache_bounds_cost() {
        let t = group_table(20_000, 3);
        let oracle = SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 3000, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(4);
        let _ = groupby_single_oracle(&proxies, &oracle, &cfg, &mut rng).unwrap();
        assert!(oracle.calls() <= 3000, "spent {}", oracle.calls());
        assert!(oracle.calls() >= 1500, "spent only {}", oracle.calls());
    }

    #[test]
    fn multi_oracle_estimates_every_group() {
        let t = group_table(40_000, 5);
        let o0 = PredicateOracle::new(&t, "g0").unwrap();
        let o1 = PredicateOracle::new(&t, "g1").unwrap();
        let o2 = PredicateOracle::new(&t, "g2").unwrap();
        let oracles = vec![&o0, &o1, &o2];
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 9000, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(6);
        let ests = groupby_multi_oracle(&proxies, &oracles, &cfg, &mut rng).unwrap();
        assert_eq!(ests.len(), 3);
        let err = max_abs_err(&t, &ests);
        assert!(err < 2.0, "max abs err {err}: {ests:?}");
        let total: u64 = [&o0, &o1, &o2].iter().map(|o| o.calls()).sum();
        assert!(total <= 9000, "spent {total}");
    }

    #[test]
    fn minimax_beats_or_matches_equal_on_worst_group() {
        // The rarest group dominates the minimax error; the optimizer
        // should shift budget toward it.
        let t = group_table(40_000, 7);
        let o0 = PredicateOracle::new(&t, "g0").unwrap();
        let o1 = PredicateOracle::new(&t, "g1").unwrap();
        let o2 = PredicateOracle::new(&t, "g2").unwrap();
        let oracles = vec![&o0, &o1, &o2];
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 15;
        let mut worst = |alloc: GroupAllocation| -> f64 {
            let cfg = GroupByConfig { budget: 6000, allocation: alloc, ..Default::default() };
            let mut acc: f64 = 0.0;
            for _ in 0..trials {
                let ests = groupby_multi_oracle(&proxies, &oracles, &cfg, &mut rng).unwrap();
                // Mean squared worst-group error across trials.
                let e = max_abs_err(&t, &ests);
                acc += e * e;
            }
            (acc / trials as f64).sqrt()
        };
        let minimax = worst(GroupAllocation::Minimax);
        let equal = worst(GroupAllocation::Equal);
        assert!(
            minimax <= equal * 1.25,
            "minimax {minimax} should not lose badly to equal {equal}"
        );
    }

    #[test]
    fn uniform_baselines_estimate_groups() {
        let t = group_table(30_000, 9);
        let oracle = SingleGroupOracle::new(&t).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let ests = groupby_uniform_single(t.len(), &oracle, 5000, &mut rng);
        assert_eq!(ests.len(), 3);
        assert!(max_abs_err(&t, &ests) < 2.5);

        let o0 = PredicateOracle::new(&t, "g0").unwrap();
        let o1 = PredicateOracle::new(&t, "g1").unwrap();
        let o2 = PredicateOracle::new(&t, "g2").unwrap();
        let ests = groupby_uniform_multi(t.len(), &[&o0, &o1, &o2], 9000, &mut rng);
        assert_eq!(ests.len(), 3);
        assert!(max_abs_err(&t, &ests) < 2.5);
        assert_eq!(o0.calls(), 3000);
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let t = group_table(1000, 11);
        let oracle = SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let mut rng = StdRng::seed_from_u64(12);
        let bad = GroupByConfig { strata: 0, ..Default::default() };
        assert!(matches!(
            groupby_single_oracle(&proxies, &oracle, &bad, &mut rng),
            Err(GroupByError::Config(ConfigError::ZeroStrata))
        ));
        assert!(matches!(
            groupby_single_oracle(&[], &oracle, &GroupByConfig::default(), &mut rng),
            Err(GroupByError::NoGroups)
        ));
        // Group mismatch: two proxies, three oracle groups.
        assert!(matches!(
            groupby_single_oracle(
                &proxies[..2],
                &oracle,
                &GroupByConfig::default(),
                &mut rng
            ),
            Err(GroupByError::GroupMismatch { proxies: 2, oracles: 3 })
        ));
    }

    #[test]
    fn solve_allocation_equalizes_known_errors() {
        // Diagonal errors (multi-oracle shape): err_g/λ_g equalized ⇒
        // λ_g ∝ err_g.
        let err = vec![
            vec![4.0, f64::INFINITY, f64::INFINITY],
            vec![f64::INFINITY, 1.0, f64::INFINITY],
            vec![f64::INFINITY, f64::INFINITY, 1.0],
        ];
        let lambda = solve_allocation(&err, 1000, GroupAllocation::Minimax);
        assert!((lambda[0] - 4.0 / 6.0).abs() < 0.02, "{lambda:?}");
        assert!((lambda[1] - 1.0 / 6.0).abs() < 0.02, "{lambda:?}");
    }
}

#[cfg(test)]
mod ci_tests {
    use super::*;
    use crate::config::BootstrapConfig;
    use crate::normal_ci::closed_form_ci;
    use abae_stats::bootstrap::ConfidenceInterval;
    use abae_data::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_group_table(n: usize, seed: u64) -> Table {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut key = Vec::with_capacity(n);
        let mut labels: Vec<Vec<bool>> = vec![Vec::new(), Vec::new()];
        let mut proxies: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = rng.gen();
            let group =
                if u < 0.12 { Some(0u16) } else if u < 0.3 { Some(1) } else { None };
            key.push(group);
            for g in 0..2u16 {
                let member = group == Some(g);
                labels[g as usize].push(member);
                proxies[g as usize]
                    .push(if member { rng.gen_range(0.6..1.0) } else { rng.gen_range(0.0..0.4) });
            }
            values.push(match group {
                Some(0) => 10.0 + rng.gen_range(-1.0..1.0),
                Some(1) => 25.0 + rng.gen_range(-1.0..1.0),
                _ => 0.0,
            });
        }
        Table::builder("two", values)
            .predicate("g0", std::mem::take(&mut labels[0]), std::mem::take(&mut proxies[0]))
            .predicate("g1", std::mem::take(&mut labels[1]), std::mem::take(&mut proxies[1]))
            .group_key(vec!["g0".into(), "g1".into()], key)
            .build()
            .unwrap()
    }

    /// The blocking executor over the proxies' quantile stratifications,
    /// after the checks and the sort a proxy-taking entry point makes.
    fn blocking_with_ci<O: GroupOracle + ?Sized, R: Rng + ?Sized>(
        proxies: &[&[f64]],
        oracle: &O,
        cfg: &GroupByConfig,
        bootstrap: &BootstrapConfig,
        rng: &mut R,
    ) -> Result<Vec<GroupEstimateWithCi>, GroupByError> {
        check(cfg, bootstrap, None, proxies.len())?;
        let strata = stratify_groups(proxies, oracle, cfg)?;
        groupby_single_oracle_stratified(&strata, oracle, cfg, bootstrap, None, rng, |_| {})
            .map(|r| r.groups)
    }

    /// The sampled state of a blocking run over the proxies on `seed`.
    fn sampled_run<O: GroupOracle + ?Sized>(
        proxies: &[&[f64]],
        oracle: &O,
        cfg: &GroupByConfig,
        seed: u64,
    ) -> SingleOracleRun {
        let strata = stratify_groups(proxies, oracle, cfg).unwrap();
        let mut sampler =
            SingleOracle::new(&strata, oracle, cfg, BootstrapConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        schedule::run_stages(&mut sampler, usize::MAX, &mut rng, |_, _, _| false);
        sampler.run
    }

    #[test]
    fn single_oracle_with_ci_matches_plain_variant_and_brackets() {
        let t = two_group_table(30_000, 5);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 5000, ..Default::default() };
        let bs = BootstrapConfig { trials: 300, alpha: 0.05 };
        // Same RNG stream → identical sampling; the CI variant appends the
        // bootstrap afterwards without extra oracle spend.
        let mut rng = StdRng::seed_from_u64(6);
        let plain = groupby_single_oracle(&proxies, &oracle, &cfg, &mut rng).unwrap();
        let spent = oracle.calls();
        let mut rng = StdRng::seed_from_u64(6);
        let with_ci =
            blocking_with_ci(&proxies, &oracle, &cfg, &bs, &mut rng).unwrap();
        assert_eq!(oracle.calls(), 2 * spent, "bootstrap must not charge the oracle");
        for (a, b) in plain.iter().zip(&with_ci) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.estimate, b.estimate);
            let ci = b.ci.expect("non-empty groups");
            assert!(
                ci.lo <= b.estimate && b.estimate <= ci.hi,
                "group {}: [{}, {}] vs {}",
                b.group,
                ci.lo,
                ci.hi,
                b.estimate
            );
            let exact = t.exact_group_avg(b.group).unwrap();
            assert!(
                (ci.lo - 3.0..=ci.hi + 3.0).contains(&exact),
                "group {} CI [{}, {}] far from truth {exact}",
                b.group,
                ci.lo,
                ci.hi
            );
        }
    }

    #[test]
    fn single_oracle_with_ci_rejects_bad_alpha() {
        let t = two_group_table(1_000, 7);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let bs = BootstrapConfig { trials: 10, alpha: 0.0 };
        assert!(matches!(
            blocking_with_ci(&proxies, &oracle, &GroupByConfig::default(), &bs, &mut rng),
            Err(GroupByError::Config(ConfigError::BadAlpha(_)))
        ));
    }

    #[test]
    fn progressive_final_snapshot_matches_blocking_with_ci() {
        let t = two_group_table(8_000, 9);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 600, ..Default::default() };
        let bs = BootstrapConfig { trials: 20, alpha: 0.05 };
        let mut rng = StdRng::seed_from_u64(11);
        let blocking = blocking_with_ci(&proxies, &oracle, &cfg, &bs, &mut rng).unwrap();
        // Draws per stage: the pilot, and the Stage-2 draws the blocking
        // run's buckets hold beyond it (every pilot draw sits in G buckets).
        let n1 = single_oracle_pilot(cfg.budget, cfg.stage1_fraction, t.len());
        let buckets = sampled_run(&proxies, &oracle, &cfg, 11).buckets;
        let n2 = buckets.iter().flatten().map(Vec::len).sum::<usize>() - proxies.len() * n1;
        for chunk in [1usize, 50, 4096] {
            let before = oracle.calls();
            let mut rng = StdRng::seed_from_u64(11);
            let opts = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
            let mut snaps: Vec<GroupSnapshot> = Vec::new();
            let mut charged: Vec<u64> = Vec::new();
            let result = groupby_single_oracle_progressive(
                &proxies,
                &oracle,
                &cfg,
                &bs,
                &opts,
                &mut rng,
                |s| {
                    charged.push(oracle.calls() - before);
                    snaps.push(s.clone());
                },
            )
            .unwrap();
            assert_eq!(result.groups, blocking, "chunk {chunk}");
            assert_eq!(result.oracle_calls, oracle.calls() - before, "chunk {chunk}");
            let last = snaps.last().unwrap();
            assert!(last.done);
            assert_eq!(last.groups, blocking, "chunk {chunk}");
            assert_eq!(last.budget_spent, result.oracle_calls);
            assert!(snaps.iter().rev().skip(1).all(|s| !s.done));
            assert!(snaps.windows(2).all(|w| w[0].budget_spent <= w[1].budget_spent));
            // A look after every chunk of either stage but the last, the
            // pilot's last standing in for the deferred stage boundary; each
            // reports what the oracle had charged when it was taken.
            let intermediate = &snaps[..snaps.len() - 1];
            let looks = n1.div_ceil(chunk) - 1 + n2.div_ceil(chunk);
            assert_eq!(intermediate.len(), looks, "chunk {chunk}: n1 {n1}, n2 {n2}");
            let spends: Vec<u64> = intermediate.iter().map(|s| s.budget_spent).collect();
            assert_eq!(spends, charged[..looks], "chunk {chunk}");
        }
    }

    #[test]
    fn a_blocking_run_emits_no_snapshots_and_answers_like_an_uncapped_anytime_run() {
        use rand::RngCore as _;
        let t = two_group_table(8_000, 9);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> = t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 600, ..Default::default() };
        let bs = BootstrapConfig { trials: 20, alpha: 0.05 };
        let strata = stratify_groups(&proxies, &oracle, &cfg).unwrap();
        let run = |anytime: Option<&ProgressiveOptions>| {
            let (mut rng, mut snaps) = (StdRng::seed_from_u64(11), 0usize);
            let result = groupby_single_oracle_stratified(
                &strata,
                &oracle,
                &cfg,
                &bs,
                anytime,
                &mut rng,
                |_| snaps += 1,
            );
            (result.unwrap(), snaps, rng.next_u64())
        };
        let (blocking, snaps, next) = run(None);
        assert_eq!(snaps, 0, "a blocking run reports no snapshot");
        for chunk in [1usize, 50, 4096] {
            let (anytime, snaps, after) =
                run(Some(&ProgressiveOptions { chunk: Some(chunk), target_ci_width: None }));
            assert_eq!(anytime, blocking, "chunk {chunk}");
            assert!(snaps >= 1, "chunk {chunk}: {snaps} snapshots");
            assert_eq!(after, next, "chunk {chunk}");
        }
    }

    #[test]
    fn progressive_early_stop_spends_less_and_meets_target() {
        let t = two_group_table(30_000, 13);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 4000, ..Default::default() };
        let bs = BootstrapConfig { trials: 60, alpha: 0.05 };
        let opts = ProgressiveOptions { chunk: Some(100), target_ci_width: Some(3.0) };
        let mut rng = StdRng::seed_from_u64(14);
        let mut snaps: Vec<GroupSnapshot> = Vec::new();
        let result = groupby_single_oracle_progressive(
            &proxies,
            &oracle,
            &cfg,
            &bs,
            &opts,
            &mut rng,
            |s| snaps.push(s.clone()),
        )
        .unwrap();
        assert!(result.oracle_calls < 4000, "spent {}", result.oracle_calls);
        assert_eq!(oracle.calls(), result.oracle_calls);
        let last = snaps.last().unwrap();
        assert!(last.done);
        assert_eq!(last.groups, result.groups);
        for e in &result.groups {
            let ci = e.ci.expect("stopping snapshot has CIs for every group");
            assert!(ci.width() < 3.0, "group {} width {}", e.group, ci.width());
        }
    }

    #[test]
    fn progressive_rejects_bad_targets() {
        let t = two_group_table(1_000, 15);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> =
            t.predicates().iter().map(|p| p.proxy()).collect();
        let bs = BootstrapConfig { trials: 10, alpha: 0.05 };
        for w in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let opts = ProgressiveOptions { chunk: None, target_ci_width: Some(w) };
            let mut rng = StdRng::seed_from_u64(16);
            let err = groupby_single_oracle_progressive(
                &proxies,
                &oracle,
                &GroupByConfig::default(),
                &bs,
                &opts,
                &mut rng,
                |_| {},
            )
            .unwrap_err();
            assert!(matches!(err, GroupByError::Config(ConfigError::BadTargetWidth(_))));
        }
    }

    #[test]
    fn stratified_entries_answer_like_the_proxy_entries() {
        use rand::RngCore as _;
        let t = two_group_table(8_000, 9);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> = t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 600, ..Default::default() };
        let bs = BootstrapConfig { trials: 20, alpha: 0.05 };
        let strata: Vec<Arc<Stratification>> = proxies
            .iter()
            .map(|p| Arc::new(Stratification::by_proxy_quantile(p, cfg.strata)))
            .collect();

        let (mut ours, mut theirs) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let want = blocking_with_ci(&proxies, &oracle, &cfg, &bs, &mut theirs);
        let got =
            groupby_single_oracle_stratified(&strata, &oracle, &cfg, &bs, None, &mut ours, |_| {});
        assert_eq!(got.unwrap().groups, want.unwrap());
        assert_eq!(ours.next_u64(), theirs.next_u64());

        for target in [None, Some(40.0)] {
            let p = ProgressiveOptions { chunk: Some(50), target_ci_width: target };
            let (mut ours, mut theirs) = (StdRng::seed_from_u64(4), StdRng::seed_from_u64(4));
            let (mut got_snaps, mut want_snaps) = (Vec::new(), Vec::new());
            let want = groupby_single_oracle_progressive(
                &proxies,
                &oracle,
                &cfg,
                &bs,
                &p,
                &mut theirs,
                |s| want_snaps.push(s.clone()),
            );
            let got = groupby_single_oracle_stratified(
                &strata,
                &oracle,
                &cfg,
                &bs,
                Some(&p),
                &mut ours,
                |s| got_snaps.push(s.clone()),
            );
            assert_eq!(got.unwrap(), want.unwrap(), "{target:?}");
            assert_eq!(got_snaps, want_snaps, "{target:?}");
            assert_eq!(ours.next_u64(), theirs.next_u64(), "{target:?}");
        }

        // The same checks in the same order: a bad alpha wins over a bad
        // config, and a zero `K` fails before the strata are read.
        let mut rng = StdRng::seed_from_u64(5);
        let zero_k = GroupByConfig { strata: 0, ..cfg };
        let bad_alpha = BootstrapConfig { alpha: 1.0, ..bs };
        let err = groupby_single_oracle_stratified(
            &strata, &oracle, &zero_k, &bad_alpha, None, &mut rng, |_| {},
        );
        assert_eq!(err.unwrap_err(), GroupByError::Config(ConfigError::BadAlpha(1.0)));
        let err =
            groupby_single_oracle_stratified(&strata, &oracle, &zero_k, &bs, None, &mut rng, |_| {});
        assert_eq!(err.unwrap_err(), GroupByError::Config(ConfigError::ZeroStrata));
    }

    /// Group `g`'s cell of one bucket of a stratum of `size` records, one
    /// cache lookup per id: the per-group pass the one-pass cells replaced,
    /// kept as their reference.
    fn reference_cell(
        ids: &[usize],
        cache: &BTreeMap<usize, GroupLabel>,
        g: u16,
        size: usize,
    ) -> StratumEstimate {
        let mut moments = StreamingMoments::new();
        let mut positives = 0usize;
        for id in ids {
            let label = cache.get(id).expect("every sampled id is labeled");
            if label.group == Some(g) {
                positives += 1;
                moments.push(label.value);
            }
        }
        StratumEstimate {
            size,
            draws: ids.len(),
            positives,
            p_hat: if ids.is_empty() { 0.0 } else { positives as f64 / ids.len() as f64 },
            mu_hat: moments.mean_or_zero(),
            sigma_hat: moments.sample_std_dev_or_zero(),
        }
    }

    /// `single_oracle_estimates` as it was before the cells → estimates
    /// split: per group and stratification, fresh sizes and per-group
    /// lookups.
    fn reference_estimates(
        buckets: &[Vec<Vec<usize>>],
        cache: &BTreeMap<usize, GroupLabel>,
        stratifications: &[Arc<Stratification>],
    ) -> Vec<f64> {
        let g = stratifications.len();
        let k = buckets.first().map(Vec::len).unwrap_or(0);
        let mut out = Vec::with_capacity(g);
        for gg in 0..g {
            let mut weighted = 0.0;
            let mut weight_total = 0.0;
            let mut fallback_sum = 0.0;
            let mut fallback_n = 0usize;
            for l in 0..g {
                let sizes = stratifications[l].sizes();
                let cells: Vec<StratumEstimate> = (0..k)
                    .map(|kk| reference_cell(&buckets[l][kk], cache, gg as u16, sizes[kk]))
                    .collect();
                let est = combine_estimate(crate::config::Aggregate::Avg, &cells);
                let w_total: f64 = cells.iter().map(|c| c.size as f64 * c.p_hat).sum();
                if w_total <= 0.0 {
                    continue;
                }
                let mut var = 0.0;
                let mut usable = true;
                for c in &cells {
                    let w = c.size as f64 * c.p_hat / w_total;
                    if w == 0.0 {
                        continue;
                    }
                    if c.positives == 0 {
                        usable = false;
                        break;
                    }
                    var += w * w * c.sigma_hat * c.sigma_hat / c.positives as f64;
                }
                if !usable {
                    continue;
                }
                fallback_sum += est;
                fallback_n += 1;
                let w = 1.0 / var.max(1e-12);
                weighted += w * est;
                weight_total += w;
            }
            out.push(if weight_total > 0.0 {
                weighted / weight_total
            } else if fallback_n > 0 {
                fallback_sum / fallback_n as f64
            } else {
                0.0
            });
        }
        out
    }

    /// The replicate loop the one-pass kernel replaced: resample every
    /// bucket's ids, then re-estimate from the resampled ids.
    fn reference_bootstrap_cis<R: Rng + ?Sized>(
        run: &SingleOracleRun,
        bootstrap: &BootstrapConfig,
        rng: &mut R,
    ) -> Vec<GroupEstimateWithCi> {
        let points = reference_estimates(&run.buckets, &run.cache, &run.stratifications);
        let mut replicates: Vec<Vec<f64>> =
            vec![Vec::with_capacity(bootstrap.trials); points.len()];
        let mut resampled = run.buckets.clone();
        for _ in 0..bootstrap.trials {
            for (res_strat, buckets) in resampled.iter_mut().zip(&run.buckets) {
                for (res_bucket, ids) in res_strat.iter_mut().zip(buckets) {
                    res_bucket.clear();
                    if !ids.is_empty() {
                        for _ in 0..ids.len() {
                            res_bucket.push(ids[rng.gen_range(0..ids.len())]);
                        }
                    }
                }
            }
            let est = reference_estimates(&resampled, &run.cache, &run.stratifications);
            for (reps, e) in replicates.iter_mut().zip(est) {
                reps.push(e);
            }
        }
        points
            .into_iter()
            .zip(replicates)
            .enumerate()
            .map(|(gg, (estimate, mut reps))| GroupEstimateWithCi {
                group: gg as u16,
                estimate,
                ci: bracketing_ci(estimate, &mut reps, bootstrap.alpha),
            })
            .collect()
    }

    /// A random sampled run state: `groups` stratifications of `strata`
    /// strata over `n` records, buckets of 0–30 member ids (ids recur
    /// across stratifications), and labels that are `None`, a group below
    /// `G`, or a group id at or above `G`, with ±0, ±1e150 (large, yet
    /// squares stay finite, so replicates stay NaN-free) or small values.
    fn random_run(gen: &mut StdRng, groups: usize, strata: usize) -> SingleOracleRun {
        use rand::Rng as _;
        let n = gen.gen_range(strata..200);
        let stratifications: Vec<Arc<Stratification>> = (0..groups)
            .map(|_| {
                let scores: Vec<f64> = (0..n).map(|_| gen.gen()).collect();
                Arc::new(Stratification::by_proxy_quantile(&scores, strata))
            })
            .collect();
        let buckets: Vec<Vec<Vec<usize>>> = stratifications
            .iter()
            .map(|s| {
                (0..strata)
                    .map(|kk| {
                        let members = s.stratum(kk);
                        let len = match gen.gen_range(0..4) {
                            0 => 0,
                            1 => 1,
                            _ => gen.gen_range(2..30),
                        };
                        if members.is_empty() {
                            return Vec::new();
                        }
                        (0..len).map(|_| members[gen.gen_range(0..members.len())]).collect()
                    })
                    .collect()
            })
            .collect();
        let mut cache = BTreeMap::new();
        for &id in buckets.iter().flatten().flatten() {
            let group = match gen.gen_range(0..6) {
                0 => None,
                1 => Some(groups as u16 + gen.gen_range(0..3)),
                _ => Some(gen.gen_range(0..groups as u16)),
            };
            let value = match gen.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                2 => 1e150 * if gen.gen() { 1.0 } else { -1.0 },
                _ => gen.gen_range(-50.0..50.0),
            };
            cache.entry(id).or_insert(GroupLabel { group, value });
        }
        SingleOracleRun { buckets, cache, stratifications }
    }

    fn group_bits(rows: &[GroupEstimateWithCi]) -> Vec<(u16, u64, Option<[u64; 3]>)> {
        rows.iter()
            .map(|r| {
                let ci = r.ci.map(|c| [c.lo.to_bits(), c.hi.to_bits(), c.confidence.to_bits()]);
                (r.group, r.estimate.to_bits(), ci)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn one_pass_estimates_match_per_group_lookups(
            seed in 0u64..u64::MAX,
            groups in 1usize..5,
            strata in 1usize..6,
        ) {
            let run = random_run(&mut StdRng::seed_from_u64(seed), groups, strata);
            let got = single_oracle_estimates(&run.buckets, &run.cache, &run.stratifications);
            let want = reference_estimates(&run.buckets, &run.cache, &run.stratifications);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn closed_form_cis_match_the_written_out_blend(
            seed in 0u64..u64::MAX,
            groups in 1usize..5,
            strata in 1usize..6,
        ) {
            let run = random_run(&mut StdRng::seed_from_u64(seed), groups, strata);
            let got = single_oracle_closed_form_cis(&run, 0.05);
            let points = single_oracle_estimates(&run.buckets, &run.cache, &run.stratifications);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let estimates: Vec<f64> = got.iter().map(|r| r.estimate).collect();
            proptest::prop_assert_eq!(bits(&estimates), bits(&points));
            let cis: Vec<_> = got.iter().map(|r| r.ci).collect();
            proptest::prop_assert_eq!(cis, reference_blend_cis(&run, 0.05));
        }

        #[test]
        fn fresh_draws_match_the_filtered_member_list(
            seed in 0u64..u64::MAX,
            n in 1usize..300,
            k in 1usize..6,
            taken_pick in 0usize..5,
            want_pick in 0usize..4,
        ) {
            use rand::{Rng as _, RngCore as _};
            let mut gen = StdRng::seed_from_u64(seed);
            let scores: Vec<f64> = (0..n).map(|_| gen.gen()).collect();
            let strat = Stratification::by_proxy_quantile(&scores, k);
            let kk = gen.gen_range(0..k);
            let members = strat.stratum(kk);
            // A bucket's ids come in draw order, not member order.
            let mut drawn = members.to_vec();
            for i in (1..drawn.len()).rev() {
                drawn.swap(i, gen.gen_range(0..=i));
            }
            let m = drawn.len();
            let taken = match taken_pick {
                0 => 0,
                1 => m.min(1),
                2 => m.saturating_sub(1),
                3 => m,
                _ => gen.gen_range(0..=m),
            };
            let fresh = m - taken;
            let want = match want_pick {
                0 => fresh,
                1 => fresh + gen.gen_range(1..10),
                2 => gen.gen_range(0..=fresh),
                _ => fresh.saturating_sub(1),
            };
            let mut ours = StdRng::seed_from_u64(seed ^ 7);
            let mut theirs = ours.clone();
            let got = draw_fresh(&strat, kk, &drawn[..taken], want, &mut ours);
            let expected = reference_fresh(members, &drawn[..taken], want, &mut theirs);
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(ours.next_u64(), theirs.next_u64());
        }

        #[test]
        fn bootstrap_matches_resampling_ids_bit_for_bit(
            seed in 0u64..u64::MAX,
            groups in 1usize..5,
            strata in 1usize..6,
            trials_pick in 0usize..5,
        ) {
            use rand::RngCore as _;
            let run = random_run(&mut StdRng::seed_from_u64(seed), groups, strata);
            let trials = [1, 7, 8, 9, 1000][trials_pick];
            let bootstrap = BootstrapConfig { trials, alpha: 0.05 };
            let mut ours = StdRng::seed_from_u64(seed ^ 1);
            let mut theirs = ours.clone();
            let threads = ReplicateThreads::Calling;
            let got = single_oracle_bootstrap_cis_on(threads, &run, &bootstrap, &mut ours);
            let want = reference_bootstrap_cis(&run, &bootstrap, &mut theirs);
            proptest::prop_assert_eq!(group_bits(&got), group_bits(&want));
            proptest::prop_assert_eq!(ours.next_u64(), theirs.next_u64());
        }
    }

    #[test]
    fn split_replicates_match_the_calling_thread_bit_for_bit() {
        use rand::RngCore as _;
        // A real sampled run at two budgets, so that trials × draws falls
        // on both sides of the split floor of 2^17 at 1,000 trials.
        let t = two_group_table(20_000, 9);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> = t.predicates().iter().map(|p| p.proxy()).collect();
        for budget in [60, 1500] {
            let cfg = GroupByConfig { budget, ..Default::default() };
            let run = sampled_run(&proxies, &oracle, &cfg, 8);
            let kernel = GroupReplicates::new(&run);
            let draws = kernel.draws;
            assert_eq!(draws * 1000 < 1 << 17, budget == 60, "{draws} draws");
            for trials in [1, 63, 64, 65, 1000] {
                let bootstrap = BootstrapConfig { trials, alpha: 0.05 };
                let rng = StdRng::seed_from_u64(trials as u64);
                let mut theirs = rng.clone();
                let want = group_bits(&reference_bootstrap_cis(&run, &bootstrap, &mut theirs));
                let after = theirs.next_u64();
                for workers in [1, 2, 4] {
                    let case = format!("{draws} draws, {trials} trials, {workers} workers");
                    let mut ours = rng.clone();
                    let reps = pipeline::replicates_on(workers, &kernel, trials, draws, &mut ours);
                    let got = kernel.with_cis(reps, bootstrap.alpha);
                    assert_eq!(group_bits(&got), want, "{case}");
                    assert_eq!(ours.next_u64(), after, "{case}");
                }
                for threads in [ReplicateThreads::Calling, ReplicateThreads::FreeCores] {
                    let case = format!("{draws} draws, {trials} trials, {threads:?}");
                    let mut ours = rng.clone();
                    let got = single_oracle_bootstrap_cis_on(threads, &run, &bootstrap, &mut ours);
                    assert_eq!(group_bits(&got), want, "{case}");
                    assert_eq!(ours.next_u64(), after, "{case}");
                }
            }
        }
    }

    /// The Stage-2 draw that [`draw_fresh`] replaced: filter the stratum's
    /// members through the bucket's taken ids, then draw positions of the
    /// filtered list.
    fn reference_fresh<R: Rng + ?Sized>(
        members: &[usize],
        taken: &[usize],
        want: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        let taken: BTreeSet<usize> = taken.iter().copied().collect();
        let fresh: Vec<usize> = members.iter().copied().filter(|i| !taken.contains(i)).collect();
        sample_without_replacement(fresh.len(), want, rng).into_iter().map(|p| fresh[p]).collect()
    }

    /// Group `gg`'s cells under stratification `l`.
    fn reference_strata(run: &SingleOracleRun, l: usize, gg: u16) -> Vec<StratumEstimate> {
        let sizes = run.stratifications[l].sizes();
        run.buckets[l]
            .iter()
            .zip(sizes)
            .map(|(ids, size)| reference_cell(ids, &run.cache, gg, size))
            .collect()
    }

    /// The closed-form blend, written out: per group, the normalized
    /// inverse-variance weights `a_l` of the point estimate and each
    /// stratification's `AVG` delta-method variance `V_l`, then
    /// `estimate ± z·√(Σ a_l² V_l)`.
    fn reference_blend_cis(run: &SingleOracleRun, alpha: f64) -> Vec<Option<ConfidenceInterval>> {
        let estimates = reference_estimates(&run.buckets, &run.cache, &run.stratifications);
        let z = abae_stats::special::normal_quantile(1.0 - alpha / 2.0);
        (0..run.stratifications.len())
            .map(|gg| {
                let mut weights = Vec::new();
                let mut variances = Vec::new();
                for l in 0..run.stratifications.len() {
                    let strata = reference_strata(run, l, gg as u16);
                    let w_total: f64 = strata.iter().map(|s| s.size as f64 * s.p_hat).sum();
                    if w_total <= 0.0 {
                        continue;
                    }
                    let mut var = 0.0;
                    let mut usable = true;
                    for s in &strata {
                        let w = s.size as f64 * s.p_hat / w_total;
                        if w == 0.0 {
                            continue;
                        }
                        if s.positives == 0 {
                            usable = false;
                            break;
                        }
                        var += w * w * s.sigma_hat * s.sigma_hat / s.positives as f64;
                    }
                    if usable {
                        weights.push(1.0 / var.max(1e-12));
                        variances.push(estimator_variance(Aggregate::Avg, &strata));
                    }
                }
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    return None;
                }
                let mut var = 0.0;
                for (w, v) in weights.iter().zip(&variances) {
                    if *w > 0.0 {
                        let a = w / total;
                        var += a * a * (*v)?;
                    }
                }
                if !var.is_finite() {
                    return None;
                }
                let half = z * var.sqrt();
                let estimate = estimates[gg];
                Some(ConfidenceInterval { lo: estimate - half, hi: estimate + half, confidence: 1.0 - alpha })
            })
            .collect()
    }

    /// A table with a single group: 12% of records, with an informative
    /// proxy.
    fn one_group_table(n: usize, seed: u64) -> Table {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let key: Vec<Option<u16>> = (0..n).map(|_| (rng.gen::<f64>() < 0.12).then_some(0)).collect();
        let labels: Vec<bool> = key.iter().map(Option::is_some).collect();
        let proxy: Vec<f64> = labels
            .iter()
            .map(|&l| if l { rng.gen_range(0.5..1.0) } else { rng.gen_range(0.0..0.6) })
            .collect();
        let values: Vec<f64> = labels
            .iter()
            .map(|&l| if l { 10.0 + rng.gen_range(-3.0..3.0) } else { 0.0 })
            .collect();
        Table::builder("one", values)
            .predicate("g0", labels, proxy)
            .group_key(vec!["g0".into()], key)
            .build()
            .unwrap()
    }

    /// Every intermediate snapshot of a progressive run over `table`,
    /// beside the run state it was taken from, rendered by `reference`.
    fn snapshots_and_states<T>(
        table: &Table,
        cfg: &GroupByConfig,
        bootstrap: &BootstrapConfig,
        seed: u64,
        mut reference: impl FnMut(&SingleOracleRun, u64) -> T,
    ) -> Vec<(GroupSnapshot, T)> {
        let oracle = abae_data::SingleGroupOracle::new(table).unwrap();
        let proxies: Vec<&[f64]> = table.predicates().iter().map(|p| p.proxy()).collect();
        let strata = stratify_groups(&proxies, &oracle, cfg).unwrap();
        let chunk = 64;
        let mut want = Vec::new();
        let mut sampler = SingleOracle::new(&strata, &oracle, cfg, *bootstrap).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        schedule::run_stages(&mut sampler, chunk, &mut rng, |s, spent, _| {
            want.push(reference(&s.run, spent));
            false
        });
        let mut snaps = Vec::new();
        let opts = ProgressiveOptions { chunk: Some(chunk), target_ci_width: None };
        groupby_single_oracle_stratified(
            &strata,
            &oracle,
            cfg,
            bootstrap,
            Some(&opts),
            &mut StdRng::seed_from_u64(seed),
            |s| snaps.push(s.clone()),
        )
        .unwrap();
        let last = snaps.pop().expect("a final snapshot");
        assert!(last.done && snaps.iter().all(|s| !s.done));
        assert_eq!(snaps.len(), want.len());
        snaps.into_iter().zip(want).collect()
    }

    #[test]
    fn one_group_snapshots_carry_the_closed_form_ci_of_its_stratification() {
        let t = one_group_table(8_000, 21);
        let cfg = GroupByConfig { budget: 900, ..Default::default() };
        let bootstrap = BootstrapConfig { trials: 20, alpha: 0.1 };
        let pairs = snapshots_and_states(&t, &cfg, &bootstrap, 22, |state, spent| {
            let strata = reference_strata(state, 0, 0);
            let estimate = reference_estimates(&state.buckets, &state.cache, &state.stratifications)[0];
            (spent, estimate, strata)
        });
        assert!(pairs.len() > 5, "{} snapshots", pairs.len());
        let mut with_ci = 0;
        for (snap, (spent, estimate, strata)) in &pairs {
            assert_eq!(snap.budget_spent, *spent);
            let row = snap.groups[0];
            assert_eq!(row.estimate.to_bits(), estimate.to_bits(), "spent {spent}");
            let want = closed_form_ci(Aggregate::Avg, strata, bootstrap.alpha);
            match (row.ci, want) {
                (None, None) => {}
                (Some(ci), Some(want)) => {
                    with_ci += 1;
                    // One stratification's weight normalizes to exactly 1,
                    // so the half-width is the closed form's, bit for bit;
                    // the centre is the blended estimate `(w·est)/w`, which
                    // may round one ulp away from the stratification's own.
                    let var = estimator_variance(Aggregate::Avg, strata).unwrap();
                    assert_eq!(Some(ci), normal_interval(row.estimate, var, bootstrap.alpha));
                    assert_eq!(ci.confidence.to_bits(), want.confidence.to_bits());
                    for (got, want) in [(ci.lo, want.lo), (ci.hi, want.hi)] {
                        assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0), "{got} vs {want}");
                    }
                }
                (got, want) => panic!("spent {spent}: CI {got:?}, closed form {want:?}"),
            }
        }
        assert!(with_ci > 3, "{with_ci} snapshots with a CI");
    }

    #[test]
    fn two_group_snapshots_carry_the_blended_closed_form_ci() {
        let t = two_group_table(20_000, 23);
        let cfg = GroupByConfig { budget: 1500, ..Default::default() };
        let bootstrap = BootstrapConfig { trials: 20, alpha: 0.05 };
        let pairs = snapshots_and_states(&t, &cfg, &bootstrap, 24, |state, spent| {
            (spent, reference_blend_cis(state, bootstrap.alpha))
        });
        assert!(pairs.len() > 10, "{} snapshots", pairs.len());
        for (snap, (spent, want)) in &pairs {
            assert_eq!(snap.budget_spent, *spent);
            let got: Vec<_> = snap.groups.iter().map(|g| g.ci).collect();
            assert_eq!(&got, want, "spent {spent}");
        }
        assert!(pairs.last().unwrap().0.groups.iter().all(|g| g.ci.is_some()));
    }

    #[test]
    fn a_group_on_the_fallback_path_has_no_closed_form_ci() {
        // Two groups over 40 records in 2 strata; group 1 never appears
        // among the labels, so no stratification can weigh it.
        let strat = Arc::new(Stratification::by_proxy_quantile(
            &(0..40).map(|i| i as f64).collect::<Vec<_>>(),
            2,
        ));
        let stratifications = vec![strat.clone(), strat];
        let buckets: Vec<Vec<Vec<usize>>> = vec![vec![(0..10).collect(), (20..30).collect()]; 2];
        let cache: BTreeMap<usize, GroupLabel> = (0..40)
            .map(|id| {
                let group = (id % 3 == 0).then_some(0);
                (id, GroupLabel { group, value: id as f64 })
            })
            .collect();
        let run = SingleOracleRun { buckets, cache, stratifications };
        let rows = single_oracle_closed_form_cis(&run, 0.05);
        assert!(rows[0].ci.is_some(), "{rows:?}");
        assert_eq!(rows[1].ci, None, "{rows:?}");
        assert_eq!(rows[1].estimate, 0.0);
        assert_eq!(rows.iter().map(|r| r.ci).collect::<Vec<_>>(), reference_blend_cis(&run, 0.05));
    }

    #[test]
    fn sampled_run_bootstrap_matches_resampling_ids() {
        // A real sampled run (pilot plus Stage 2, ids shared across
        // stratifications) rather than a synthetic state.
        let t = two_group_table(20_000, 9);
        let oracle = abae_data::SingleGroupOracle::new(&t).unwrap();
        let proxies: Vec<&[f64]> = t.predicates().iter().map(|p| p.proxy()).collect();
        let cfg = GroupByConfig { budget: 3000, ..Default::default() };
        let run = sampled_run(&proxies, &oracle, &cfg, 8);
        let bootstrap = BootstrapConfig { trials: 64, alpha: 0.05 };
        let mut ours = StdRng::seed_from_u64(10);
        let mut theirs = ours.clone();
        let got =
            single_oracle_bootstrap_cis_on(ReplicateThreads::Calling, &run, &bootstrap, &mut ours);
        let want = reference_bootstrap_cis(&run, &bootstrap, &mut theirs);
        assert_eq!(group_bits(&got), group_bits(&want));
        use rand::RngCore as _;
        assert_eq!(ours.next_u64(), theirs.next_u64());
    }
}
