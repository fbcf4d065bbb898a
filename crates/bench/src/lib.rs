//! Experiment harness for the ABae reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§5); this library provides the shared machinery:
//!
//! * [`config::ExpConfig`] — trial count, dataset scale, and master seed,
//!   overridable via `ABAE_TRIALS`, `ABAE_SCALE`, `ABAE_SEED` so the same
//!   binaries serve quick shape checks and full paper-scale runs.
//! * [`runner`] — deterministic, multi-threaded trial execution (one
//!   seeded RNG per trial).
//! * [`report`] — aligned text tables matching the series the paper plots.
//! * [`datasets`] — builds the six emulated datasets at the experiment
//!   scale.
//! * [`artifact`] — `BENCH_<name>.json` artifacts at the repository root
//!   for the serving and storage benches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod config;
pub mod datasets;
pub mod report;
pub mod runner;
pub mod sweep;

pub use artifact::{emit_artifact, write_artifact};
pub use config::ExpConfig;
pub use report::{print_series_table, Series};
pub use runner::run_trials;
