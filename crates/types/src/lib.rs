//! # crowdrl-types
//!
//! Core data model shared by every crate in the CrowdRL workspace.
//!
//! CrowdRL (ICDE 2021) labels a set of *objects* `O = {o_i}` with classes
//! from `C = {c_j}` by asking *annotators* `W = {w_j}` (crowd workers and
//! experts) and a trained classifier. This crate defines the vocabulary used
//! throughout: typed identifiers, datasets with hidden ground truth,
//! annotator profiles and confusion matrices, answer sets, and budget
//! accounting — plus small deterministic-randomness and probability helpers
//! that keep heavier crates dependency-free.
//!
//! Everything here is plain data with no I/O; simulation lives in
//! `crowdrl-sim`, learning in `crowdrl-nn`/`crowdrl-rl`, and inference in
//! `crowdrl-inference`.

#![forbid(unsafe_code)]

pub mod answers;
pub mod budget;
pub mod confusion;
pub mod dataset;
pub mod error;
pub mod ids;
pub mod prob;
pub mod rng;
pub mod time;

pub use answers::{Answer, AnswerSet, LabelState, LabelledSet};
pub use budget::Budget;
pub use confusion::ConfusionMatrix;
pub use dataset::Dataset;
pub use error::{Error, Result};
pub use ids::{AnnotatorId, AnnotatorKind, AnnotatorProfile, ClassId, ObjectId};
pub use time::{AssignmentId, SimTime};
