//! Statistics substrate for the ABae reproduction.
//!
//! The ABae paper relies on a standard scientific-computing stack
//! (NumPy/SciPy) for random variates, summary statistics, bootstrap
//! confidence intervals, and evaluation metrics. This crate rebuilds that
//! substrate from scratch on top of [`rand`]:
//!
//! * [`dist`] — random variate generation (Normal, Gamma, Beta, Bernoulli,
//!   Poisson, alias-method categorical) implementing
//!   [`rand::distributions::Distribution`].
//! * [`moments`] — numerically stable streaming moments (Welford) with merge
//!   support, plus batch helpers.
//! * [`quantile`] — type-7 (linear interpolation) quantiles and percentile
//!   helpers used by the bootstrap.
//! * [`bootstrap`] — the confidence-interval type and the percentile
//!   interval behind the paper's Algorithm 2.
//! * [`metrics`] — the paper's evaluation metrics: RMSE, normalized Q-error
//!   (Figure 4), relative error, and CI coverage/width (Figure 5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod dist;
pub mod metrics;
pub mod moments;
pub mod quantile;
pub mod special;

pub use bootstrap::{percentile_ci, ConfidenceInterval};
pub use dist::{Bernoulli, Beta, Categorical, Gamma, Normal, Poisson};
pub use metrics::{coverage, mean_width, normalized_q_error, q_error, relative_error, rmse};
pub use moments::{summarize, StreamingMoments, Summary};
pub use quantile::{quantile_sorted, quantiles_sorted};
pub use special::{erf, normal_cdf, normal_quantile};
