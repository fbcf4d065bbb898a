//! The Table 2 dataset inventory.
//!
//! Mirrors the paper's Table 2 ("Summary of datasets, predicates, target
//! DNNs, and proxies") with, per dataset, the metadata the paper reports
//! plus what this reproduction substitutes for the DNN oracle and proxy.
//! [`summarize`] measures the quantities the emulators were calibrated to
//! (size, positive rate, proxy AUC, exact answer) so the harness's `table2`
//! binary can print paper-vs-built side by side.

use crate::emulators::{
    amazon_movies, amazon_office, celeba, night_street, taipei, trec05p, EmulatorOptions,
};
use crate::table::Table;
use abae_ml::metrics::auc;

/// Static metadata for one paper dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Record count reported in Table 2.
    pub paper_size: usize,
    /// Predicate description from Table 2.
    pub predicate: &'static str,
    /// The paper's oracle ("target DNN") and our substitution.
    pub oracle: &'static str,
    /// The paper's proxy model and our substitution.
    pub proxy: &'static str,
    /// Name of the primary predicate column in the emulated table.
    pub predicate_column: &'static str,
}

/// All six paper datasets in Table 2 order.
pub const PAPER_DATASETS: [DatasetInfo; 6] = [
    DatasetInfo {
        name: "night-street",
        paper_size: 973_136,
        predicate: "At least one car",
        oracle: "Mask R-CNN -> latent-intensity generator",
        proxy: "TASTI -> noisy calibrated propensity",
        predicate_column: "has_car",
    },
    DatasetInfo {
        name: "taipei",
        paper_size: 1_187_850,
        predicate: "At least one car",
        oracle: "Mask R-CNN -> latent-intensity generator",
        proxy: "TASTI -> noisy calibrated propensity",
        predicate_column: "has_car",
    },
    DatasetInfo {
        name: "celeba",
        paper_size: 202_599,
        predicate: "Blonde hair",
        oracle: "Human labels -> attribute generator",
        proxy: "MobileNetV2 -> noisy calibrated propensity",
        predicate_column: "blonde_hair",
    },
    DatasetInfo {
        name: "amazon-movies",
        paper_size: 35_815,
        predicate: "Contains woman",
        oracle: "MT-CNN + VGGFace -> attribute generator",
        proxy: "MobileNetV2 -> noisy calibrated propensity",
        predicate_column: "female_face",
    },
    DatasetInfo {
        name: "trec05p",
        paper_size: 52_578,
        predicate: "Is spam",
        oracle: "Human labels -> token-stream generator",
        proxy: "Keyword-based -> real keyword proxy over generated tokens",
        predicate_column: "is_spam",
    },
    DatasetInfo {
        name: "amazon-office",
        paper_size: 800_144,
        predicate: "Strong positive sentiment",
        oracle: "FlairNLP BERT -> sentiment generator",
        proxy: "NLTK sentiment -> noisy calibrated propensity",
        predicate_column: "strongly_positive",
    },
];

/// Builds an emulated dataset by paper name. Returns `None` for unknown
/// names.
pub fn build_dataset(name: &str, opts: &EmulatorOptions) -> Option<Table> {
    match name {
        "night-street" => Some(night_street(opts)),
        "taipei" => Some(taipei(opts)),
        "celeba" => Some(celeba(opts)),
        "amazon-movies" => Some(amazon_movies(opts)),
        "trec05p" => Some(trec05p(opts)),
        "amazon-office" => Some(amazon_office(opts)),
        _ => None,
    }
}

/// Measured characteristics of an emulated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Generated record count.
    pub size: usize,
    /// Ground-truth positive rate of the primary predicate.
    pub positive_rate: f64,
    /// AUC of the primary proxy against the oracle.
    pub proxy_auc: f64,
    /// Exact value of the paper's aggregation query.
    pub exact_answer: f64,
}

/// Measures the calibration quantities for one emulated dataset.
pub fn summarize(table: &Table, predicate: &str) -> DatasetSummary {
    let pred = table.predicate(predicate).expect("registry predicate exists");
    DatasetSummary {
        name: table.name().to_string(),
        size: table.len(),
        positive_rate: table.positive_rate(predicate).expect("predicate exists"),
        proxy_auc: auc(pred.proxy(), &pred.labels_vec()).unwrap_or(f64::NAN),
        exact_answer: table.exact_avg(predicate).expect("predicate exists"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_paper_datasets() {
        assert_eq!(PAPER_DATASETS.len(), 6);
        let total: usize = PAPER_DATASETS.iter().map(|d| d.paper_size).sum();
        // Table 2 sizes sum to 3,252,122 records.
        assert_eq!(total, 3_252_122);
    }

    #[test]
    fn build_dataset_dispatches_every_name() {
        let opts = EmulatorOptions { scale: 0.005, seed: 3 };
        for info in &PAPER_DATASETS {
            let t = build_dataset(info.name, &opts).expect("known dataset");
            assert_eq!(t.name(), info.name);
            assert!(t.predicate(info.predicate_column).is_ok());
        }
        assert!(build_dataset("unknown", &opts).is_none());
    }

    #[test]
    fn summaries_report_sane_values() {
        let opts = EmulatorOptions { scale: 0.02, seed: 5 };
        for info in &PAPER_DATASETS {
            let t = build_dataset(info.name, &opts).unwrap();
            let s = summarize(&t, info.predicate_column);
            assert!(s.size >= 1000);
            assert!(s.positive_rate > 0.0 && s.positive_rate < 1.0, "{}", info.name);
            assert!(s.proxy_auc > 0.55, "{} AUC {}", info.name, s.proxy_auc);
            assert!(s.exact_answer.is_finite());
        }
    }
}
