//! # crowdrl-baselines
//!
//! The five end-to-end labelling frameworks the CrowdRL paper compares
//! against (§VI-A.2), implemented from their descriptions:
//!
//! * [`Dlta`] — iterative EM label inference + budget-aware label
//!   acquisition; no feature use.
//! * [`Oba`] — "AI worker" human+AI loop: a k-NN model labels confident
//!   objects, humans label the rest and are **trusted blindly** (the paper
//!   identifies this blind trust as why OBA performs worst).
//! * [`Idle`] — two-level quality assurance: crowd workers first, experts
//!   for ambiguous objects, still-ambiguous objects marked unsolvable;
//!   random task selection.
//! * [`Dalc`] — Bayesian active learning from crowds: most-informative task
//!   selection, highest-expertise assignment, classifier folded into
//!   inference as an extra annotator — but TS/TA are two greedy passes and
//!   there is no RL.
//! * [`Hybrid`] — the strongest baseline the paper constructs:
//!   MinExpError-style bootstrap-uncertainty task selection + a DQN for
//!   task assignment (as in Shan et al. \[32\]) + PM truth inference.
//!
//! All baselines implement [`LabellingStrategy`], as does the
//! [`CrowdRlStrategy`] adapter, so experiment harnesses can iterate over
//! `Vec<Box<dyn LabellingStrategy>>`.

#![forbid(unsafe_code)]

pub mod common;
pub mod dalc;
pub mod dlta;
pub mod hybrid;
pub mod idle;
pub mod knn;
pub mod oba;

pub use common::{BaselineParams, CrowdRlStrategy, LabellingStrategy};
pub use dalc::Dalc;
pub use dlta::Dlta;
pub use hybrid::Hybrid;
pub use idle::Idle;
pub use knn::KnnClassifier;
pub use oba::Oba;

/// All five paper baselines with default hyperparameters, in the order the
/// paper's figures list them.
pub fn paper_baselines() -> Vec<Box<dyn LabellingStrategy>> {
    vec![
        Box::new(Dlta::default()),
        Box::new(Oba::default()),
        Box::new(Idle::default()),
        Box::new(Dalc::default()),
        Box::new(Hybrid::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baselines_are_ordered_like_the_figures() {
        let names: Vec<String> = paper_baselines()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        assert_eq!(names, vec!["DLTA", "OBA", "IDLE", "DALC", "Hybrid"]);
    }
}
