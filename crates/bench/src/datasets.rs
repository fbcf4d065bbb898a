//! Construction of the emulated datasets used by the experiments: each
//! call runs the seeded emulator at the experiment scale.

use abae_data::emulators::EmulatorOptions;
use abae_data::registry::{build_dataset, DatasetInfo, PAPER_DATASETS};
use abae_data::Table;

use crate::config::ExpConfig;

/// A dataset prepared for experimentation: the emulated table plus its
/// registry metadata.
pub struct PreparedDataset {
    /// Registry metadata (paper name, predicate column, ...).
    pub info: DatasetInfo,
    /// The emulated table at the configured scale.
    pub table: Table,
    /// Exact answer of the paper's query over this instantiation.
    pub exact: f64,
}

/// Builds all six paper datasets at the experiment scale.
pub fn paper_datasets(cfg: &ExpConfig) -> Vec<PreparedDataset> {
    PAPER_DATASETS
        .iter()
        .map(|info| {
            let opts = EmulatorOptions { scale: cfg.scale, seed: cfg.seed };
            let table = build_dataset(info.name, &opts).expect("registry name");
            let exact = table.exact_avg(info.predicate_column).expect("registry predicate");
            PreparedDataset { info: *info, table, exact }
        })
        .collect()
}

/// Builds a single paper dataset by name.
pub fn paper_dataset(cfg: &ExpConfig, name: &str) -> PreparedDataset {
    let info = *PAPER_DATASETS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"));
    let opts = EmulatorOptions { scale: cfg.scale, seed: cfg.seed };
    let table = build_dataset(name, &opts).expect("registry name");
    let exact = table.exact_avg(info.predicate_column).expect("registry predicate");
    PreparedDataset { info, table, exact }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_six() {
        let cfg = ExpConfig { trials: 1, scale: 0.005, seed: 1 };
        let ds = paper_datasets(&cfg);
        assert_eq!(ds.len(), 6);
        for d in &ds {
            assert!(d.table.len() >= 1000);
            assert!(d.exact.is_finite());
        }
    }

    #[test]
    fn single_lookup_matches_bulk() {
        let cfg = ExpConfig { trials: 1, scale: 0.005, seed: 1 };
        let one = paper_dataset(&cfg, "celeba");
        assert_eq!(one.info.name, "celeba");
        assert!(one.table.predicate("blonde_hair").is_ok());
    }
}
