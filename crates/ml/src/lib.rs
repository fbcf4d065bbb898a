//! Proxy-model toolkit for the ABae reproduction.
//!
//! The paper's proxies are cheap ML models: specialized MobileNetV2
//! classifiers, NLTK's rule-based sentiment scorer, and hand-written keyword
//! rules. Rust has no equivalent ecosystem (the calibration note for this
//! reproduction flags the "thin ML ecosystem for proxy models"), so this
//! crate implements the pieces ABae actually needs from scratch:
//!
//! * [`logistic`] — L2-regularized logistic regression trained with
//!   full-batch gradient descent; used to combine multiple proxies into one
//!   (paper §3.4, Figure 12).
//! * [`features`] — tokenization and feature hashing for text records, the
//!   substrate for keyword proxies over the emulated spam corpus.
//! * [`keyword`] — keyword-count proxies ("money", "please", ...) like the
//!   paper's trec05p proxy.
//! * [`calibration`] — Platt scaling and reliability/ECE diagnostics; the
//!   multi-predicate combination rules assume roughly calibrated proxies
//!   (§3.3), and this module measures how far a proxy deviates.
//! * [`metrics`] — AUC (Mann–Whitney with tie correction), Brier score,
//!   accuracy.
//! * [`proxy`] — the trainable [`ProxyModel`] interface the query engine
//!   serves (`CREATE PROXY`): learned keyword lists, logistic regression
//!   over hashed features, and Platt-calibrated wrappers, all scoring
//!   deterministically in batches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod features;
pub mod keyword;
pub mod logistic;
pub mod metrics;
pub mod proxy;

pub use calibration::{expected_calibration_error, reliability_bins, PlattScaler};
pub use features::{tokenize, HashingVectorizer};
pub use keyword::KeywordProxy;
pub use logistic::{LogisticRegression, TrainOptions};
pub use metrics::{accuracy, auc, brier_score};
pub use proxy::{Calibrated, KeywordModel, LogisticModel, ModelSummary, ProxyModel};
