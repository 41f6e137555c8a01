//! # crowdrl-inference
//!
//! Truth inference: given noisy labels `ψ_i` from multiple annotators for
//! each object `o_i`, estimate the true labels `y_i` (and, as a byproduct,
//! each annotator's confusion matrix `Π̂^j`).
//!
//! The crate implements the models the paper builds on and compares
//! against:
//!
//! * [`MajorityVote`] — the naive baseline (§V-A.1).
//! * [`DawidSkene`] — classical EM over confusion matrices \[48\]; the
//!   inference engine inside the DLTA and IDLE baselines.
//! * [`Pm`] — the PM / CRH conflict-minimisation algorithm \[48\], used by the
//!   Hybrid baseline and by CrowdRL's `M3` ablation.
//! * [`ClassifierAsAnnotator`] — the naive way to mix a trained model into
//!   inference: append its predictions as one more annotator column and run
//!   EM (§V-A.1, Fig. 3a). The paper argues (and our fig8-style ablation
//!   shows) this composes biases.
//! * [`JointInference`] — **the paper's contribution** (§V-A.2): one EM that
//!   couples the classifier parameters `Θ`, the annotator confusion
//!   matrices `Π^j`, and the label posteriors `q(y_i)`, with expert-quality
//!   bounding so an EM pass cannot erode a trusted expert.
//!
//! All algorithms share [`InferenceResult`]: per-object posterior
//! distributions plus per-annotator estimated confusion matrices.
//!
//! The [`engine`] module wraps the iterative models ([`JointInference`],
//! [`DawidSkene`]) in a persistent [`InferenceEngine`] that carries EM
//! state across the workflow's repeated inference calls: warm-started
//! posteriors/confusions, dirty-set E-steps, an append-only feature
//! matrix, and warm classifier retrains.

#![forbid(unsafe_code)]

pub mod classifier_annotator;
pub mod dawid_skene;
pub mod engine;
pub mod joint;
pub mod mv;
pub(crate) mod par;
pub mod pm;
pub mod result;

pub use classifier_annotator::ClassifierAsAnnotator;
pub use dawid_skene::DawidSkene;
pub use engine::{EngineConfig, EngineSnapshot, InferenceEngine};
pub use joint::{JointConfig, JointInference};
pub use mv::MajorityVote;
pub use pm::Pm;
pub use result::InferenceResult;
