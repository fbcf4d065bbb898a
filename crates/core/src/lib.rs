//! # ABae core — aggregation queries with expensive predicates
//!
//! This crate implements the primary contribution of *Kang, Guibas, Bailis,
//! Hashimoto, Sun, Zaharia: Accelerating Approximate Aggregation Queries
//! with Expensive Predicates* (VLDB 2021): a two-stage stratified sampling
//! algorithm (**ABae**) that answers `AVG` / `SUM` / `COUNT` queries whose
//! predicate requires an expensive oracle (a DNN or human labeler), using a
//! cheap proxy score per record to stratify, under a hard oracle-invocation
//! budget and with bootstrap confidence intervals.
//!
//! Module map (paper section in parentheses):
//!
//! * [`config`] — query configuration: strata count `K`, budget `N`,
//!   Stage-1 fraction `C`, sample-reuse and rounding toggles (§3.1).
//! * [`strata`] — stratification by proxy-score quantile (`ABaeInit`).
//! * [`allocation`] — the optimal allocation `T*_k ∝ √p_k·σ_k`
//!   (Proposition 1).
//! * [`error_model`] — the closed-form MSE of the optimal allocation
//!   (Proposition 2), used for proxy selection and group-by allocation.
//! * [`estimator`] — per-stratum plug-in estimates `p̂_k, μ̂_k, σ̂_k`, the
//!   running per-stratum tally every sampler folds its labels into, and
//!   the combined estimator `Σ p̂_k μ̂_k / Σ p̂_k` (Algorithm 1 lines 9–20).
//! * [`two_stage`] — the two-stage sampling algorithm (`ABaeSample`),
//!   blocking and anytime (progressive snapshots with early stop), on the
//!   crate-private `schedule` that single-oracle [`groupby`] shares.
//! * [`pipeline`] — batch-parallel oracle labeling with deterministic
//!   ordering; every algorithm labels its draws through it.
//! * [`batcher`] — cross-session coalescing of labeling requests into
//!   shared oracle invocations, with fair-share admission (the engine's
//!   multi-tenant governor).
//! * [`bootstrap`] — stratified bootstrap CIs over both stages
//!   (Algorithm 2).
//! * [`uniform`] — the uniform-sampling baseline every experiment compares
//!   against.
//! * [`multipred`] — ABae-MultiPred: boolean predicate expressions with
//!   proxy-score combination (§3.3).
//! * [`groupby`] — ABae-GroupBy: minimax allocation across per-group
//!   stratifications, single- and multiple-oracle settings (§3.2, §4.5).
//! * [`proxy_select`] — proxy selection by plug-in optimal MSE (§3.4).
//! * [`proxy_combine`] — proxy combination via logistic regression (§3.4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod allocation;
pub mod batcher;
pub mod bootstrap;
pub mod config;
pub mod error_model;
pub mod estimator;
pub mod groupby;
pub mod importance;
pub mod multipred;
pub mod normal_ci;
pub mod pipeline;
pub mod proxy_combine;
pub mod proxy_select;
mod schedule;
pub mod strata;
pub mod two_stage;
pub mod uniform;

pub use batcher::{BatcherOptions, BatcherStats, GovernedOracle, OracleBatcher};
pub use config::{Aggregate, AbaeConfig, BootstrapConfig, ConfigError, Rounding, SampleReuse};
pub use estimator::{combine_estimate, StratumEstimate};
pub use pipeline::ExecOptions;
pub use strata::Stratification;
pub use two_stage::{
    run_abae, run_abae_multi_progressive, run_abae_stratified, run_abae_with_ci, AbaeResult,
    AggAnswer, MultiAggResult, ProgressiveOptions, Snapshot, TwoStageRun,
};
pub use uniform::{run_uniform, run_uniform_with_ci};
