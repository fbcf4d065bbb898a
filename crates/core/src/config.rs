//! Query configuration.
//!
//! Mirrors the knobs of Algorithm 1 plus the toggles the paper's lesion and
//! sensitivity studies flip: the number of strata `K` (Figure 10), the
//! Stage-1 fraction `C` (Figure 11), sample reuse (Figure 9), and — as an
//! ablation beyond the paper — the allocation rounding rule.

/// Which aggregate the query computes (§2.1: `AVG`, `SUM`, `COUNT`; other
/// aggregate types such as `MAX` are explicitly unsupported).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Mean of the statistic over records matching the predicate.
    Avg,
    /// Sum of the statistic over matching records.
    Sum,
    /// Number of matching records.
    Count,
}

/// Whether final estimates reuse Stage-1 samples (the paper's default) or
/// discard them (the Figure 9 lesion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleReuse {
    /// Use samples from both stages in the final estimates (Algorithm 1).
    #[default]
    Enabled,
    /// Final estimates from Stage-2 draws only.
    Disabled,
}

/// How the fractional Stage-2 allocation `N2·T̂_k` is rounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rounding {
    /// The paper's `⌊N2·T̂_k⌋`; leftover draws are not spent (§4.4.2 shows
    /// the rate is unaffected).
    #[default]
    Floor,
    /// Largest-remainder rounding that spends the full Stage-2 budget
    /// (ablation `ablation_rounding`).
    LargestRemainder,
}

/// Bootstrap CI settings (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapConfig {
    /// Number of bootstrap resamples `β` of a blocking answer, or of an
    /// anytime run that spends its cap; intermediate anytime snapshots take
    /// a closed-form CI and resample nothing.
    pub trials: usize,
    /// Total tail mass `α` (0.05 ⇒ a 95% CI, the paper's default).
    pub alpha: f64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self { trials: 1000, alpha: 0.05 }
    }
}

impl BootstrapConfig {
    /// Checks that `alpha` lies strictly inside `(0, 1)`.
    ///
    /// # Errors
    /// [`ConfigError::BadAlpha`] otherwise.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConfigError::BadAlpha(self.alpha));
        }
        Ok(())
    }
}

/// Configuration of one ABae query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbaeConfig {
    /// Number of strata `K`. The paper's evaluation uses 5 and recommends
    /// the largest `K` such that every stratum gets ≥ 100 Stage-1 samples.
    pub strata: usize,
    /// Total oracle budget `N` (Stage 1 + Stage 2 combined).
    pub budget: usize,
    /// Fraction `C` of the budget spent in Stage 1 (recommended 0.3–0.5;
    /// the evaluation uses 0.5).
    pub stage1_fraction: f64,
    /// Sample-reuse toggle.
    pub reuse: SampleReuse,
    /// Stage-2 rounding rule.
    pub rounding: Rounding,
    /// Bootstrap settings used by the `*_with_ci` entry points.
    pub bootstrap: BootstrapConfig,
    /// Oracle-labeling execution knobs (worker threads, batch size). Does
    /// not affect results — only how fast the oracle budget is spent.
    pub exec: crate::pipeline::ExecOptions,
}

impl Default for AbaeConfig {
    fn default() -> Self {
        Self {
            strata: 5,
            budget: 10_000,
            stage1_fraction: 0.5,
            reuse: SampleReuse::Enabled,
            rounding: Rounding::Floor,
            bootstrap: BootstrapConfig::default(),
            exec: crate::pipeline::ExecOptions::default(),
        }
    }
}

/// Configuration validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `strata` was zero.
    ZeroStrata,
    /// `budget` was zero.
    ZeroBudget,
    /// `stage1_fraction` outside `(0, 1)`.
    BadStageFraction(f64),
    /// Budget too small to give each stratum at least one pilot draw.
    BudgetBelowStrata {
        /// Configured budget.
        budget: usize,
        /// Configured strata count.
        strata: usize,
    },
    /// Bootstrap `alpha` outside `(0, 1)`.
    BadAlpha(f64),
    /// Early-stop CI width target not a positive finite number.
    BadTargetWidth(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroStrata => write!(f, "strata count must be positive"),
            ConfigError::ZeroBudget => write!(f, "oracle budget must be positive"),
            ConfigError::BadStageFraction(c) => {
                write!(f, "stage-1 fraction {c} must lie strictly between 0 and 1")
            }
            ConfigError::BudgetBelowStrata { budget, strata } => write!(
                f,
                "budget {budget} cannot give each of {strata} strata a stage-1 draw"
            ),
            ConfigError::BadAlpha(a) => write!(f, "bootstrap alpha {a} must lie in (0, 1)"),
            ConfigError::BadTargetWidth(w) => {
                write!(f, "CI width target {w} must be a positive finite number")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl AbaeConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.strata == 0 {
            return Err(ConfigError::ZeroStrata);
        }
        if self.budget == 0 {
            return Err(ConfigError::ZeroBudget);
        }
        if !(self.stage1_fraction > 0.0 && self.stage1_fraction < 1.0) {
            return Err(ConfigError::BadStageFraction(self.stage1_fraction));
        }
        let n1 = ((self.stage1_fraction * self.budget as f64) / self.strata as f64).floor();
        if n1 < 1.0 {
            return Err(ConfigError::BudgetBelowStrata {
                budget: self.budget,
                strata: self.strata,
            });
        }
        self.bootstrap.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_papers_evaluation_setting() {
        let c = AbaeConfig::default();
        assert_eq!(c.strata, 5);
        assert_eq!(c.budget, 10_000);
        assert_eq!(c.stage1_fraction, 0.5);
        assert_eq!(c.reuse, SampleReuse::Enabled);
        assert_eq!(c.rounding, Rounding::Floor);
        assert_eq!(c.bootstrap.trials, 1000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_each_bad_field() {
        let ok = AbaeConfig::default();
        assert_eq!(AbaeConfig { strata: 0, ..ok }.validate(), Err(ConfigError::ZeroStrata));
        assert_eq!(AbaeConfig { budget: 0, ..ok }.validate(), Err(ConfigError::ZeroBudget));
        assert_eq!(
            AbaeConfig { stage1_fraction: 0.0, ..ok }.validate(),
            Err(ConfigError::BadStageFraction(0.0))
        );
        assert_eq!(
            AbaeConfig { stage1_fraction: 1.0, ..ok }.validate(),
            Err(ConfigError::BadStageFraction(1.0))
        );
        assert_eq!(
            AbaeConfig { budget: 5, strata: 10, ..ok }.validate(),
            Err(ConfigError::BudgetBelowStrata { budget: 5, strata: 10 })
        );
        assert_eq!(
            AbaeConfig { bootstrap: BootstrapConfig { trials: 10, alpha: 0.0 }, ..ok }.validate(),
            Err(ConfigError::BadAlpha(0.0))
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let msg = ConfigError::BudgetBelowStrata { budget: 5, strata: 10 }.to_string();
        assert!(msg.contains('5') && msg.contains("10"));
    }
}
