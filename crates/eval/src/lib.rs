//! # crowdrl-eval
//!
//! Metrics and experiment infrastructure for reproducing the CrowdRL
//! evaluation (§VI):
//!
//! * [`metrics`] — precision, recall, F1 and accuracy over a final
//!   labelling (the paper's three metrics, §VI-A.3), plus macro-averaged
//!   variants for multi-class tasks;
//! * [`runner`] — run a set of [`LabellingStrategy`]s over datasets and
//!   seeds, in parallel on the shared `crowdrl_linalg` pool, aggregating
//!   mean ± std across repetitions in job order; includes the paper's
//!   offline cross-training helper (§VI-A.4);
//! * [`table`] — paper-style result rows and CSV output.
//!
//! [`LabellingStrategy`]: crowdrl_baselines::LabellingStrategy

#![forbid(unsafe_code)]

pub mod metrics;
pub mod runner;
pub mod table;

pub use metrics::{evaluate_labels, Metrics};
pub use runner::{cross_train, CellResult, Condition, ExperimentGrid};
