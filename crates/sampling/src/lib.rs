//! Sampling substrate for the ABae reproduction.
//!
//! Algorithm 1 of the paper draws records *without replacement* from each
//! stratum in two stages: a pilot stage and an allocation stage that must
//! exclude the pilot's draws. This crate provides those primitives:
//!
//! * [`pool::IndexPool`] — incremental without-replacement draws from
//!   `0..n`, the workhorse behind two-stage stratified sampling.
//! * [`wor`] — one-shot without-replacement sampling (partial Fisher–Yates
//!   and Floyd's algorithm, chosen by sample fraction).
//! * [`weighted`] — weighted draws with replacement, for the
//!   importance-sampling baseline.
//! * [`budget`] — sample-budget arithmetic: the paper's floor rounding
//!   `⌊N2·T̂_k⌋`, the largest-remainder alternative (ablation), and the
//!   Stage-1/Stage-2 split `N1 = ⌊C·N/K⌋`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod pool;
pub mod weighted;
pub mod wor;

pub use budget::{floor_allocation, largest_remainder_allocation, stage_split, StageSplit};
pub use pool::IndexPool;
pub use weighted::WeightedSampler;
pub use wor::sample_without_replacement;
