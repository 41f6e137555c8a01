//! # crowdrl-core
//!
//! The CrowdRL framework (Li et al., ICDE 2021): an end-to-end
//! reinforcement-learning loop that labels a dataset under a monetary
//! budget by unifying **task selection**, **task assignment** and **truth
//! inference**.
//!
//! One iteration of [`CrowdRl::run`] (the paper's Algorithm 1):
//!
//! 1. **Labelled-set enrichment** — the classifier `φ` (retrained by the
//!    joint inference model) rates every unlabelled object; objects whose
//!    top-two class probabilities differ by more than `ε` are auto-labelled
//!    for free ([`enrichment`]).
//! 2. **Unified task selection + assignment** — the agent embeds every
//!    candidate (object, annotator) pair into a state-action feature vector
//!    ([`features`]), scores them with the DQN, adds the UCB1 exploration
//!    bonus (Eq. 6), masks already-answered pairs with `Q = -inf`, sums the
//!    top-`k` per object with a bounded min-heap, and selects the batch of
//!    objects with the largest sums ([`agent`]).
//! 3. **Truth inference** — the selected questions go to the platform; the
//!    joint inference model (`crowdrl-inference`) couples annotator
//!    confusion matrices with the classifier to infer labels.
//! 4. **Reward and learning** — `r(t) = λ·r_φ(t) − η·r_cost(t)` rewards
//!    enrichment coverage and penalizes spend ([`reward`]); transitions go
//!    to the experience pool and the DQN takes minibatch TD steps.
//!
//! The loop ends when every object is labelled or the budget is exhausted;
//! any remainder is labelled by the final classifier.
//!
//! [`CrowdRlConfig`] exposes every design choice, including the paper's
//! ablations (Fig. 8): `M1` random task selection, `M2` random task
//! assignment, `M3` PM inference instead of the joint model.

#![forbid(unsafe_code)]

pub mod agent;
pub mod classifier_util;
pub mod config;
pub mod decide;
pub mod enrichment;
pub mod features;
pub mod infer_step;
pub mod outcome;
pub mod reward;
pub mod workflow;

pub use config::{Ablation, CrowdRlConfig, CrowdRlConfigBuilder, Exploration, InferenceModel};
pub use crowdrl_inference::EngineConfig;
pub use decide::{DecideMode, DecideStats};
pub use outcome::{IterationStats, LabellingOutcome};
pub use workflow::CrowdRl;
