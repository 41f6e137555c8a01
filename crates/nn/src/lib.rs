//! # crowdrl-nn
//!
//! From-scratch feed-forward neural networks for CrowdRL.
//!
//! The paper trains two models:
//!
//! * the **classifier** `φ` — "a fully connected neural network with a
//!   sigmoid output layer" (§VI-A.4) that rates unlabelled objects and
//!   participates in joint truth inference, and
//! * the **Deep Q-Network** that scores (object, annotator) actions
//!   (§IV-A).
//!
//! Both are small MLPs, so this crate implements exactly what they need:
//! dense layers with ReLU/Tanh/Sigmoid activations, softmax cross-entropy
//! (with *soft* targets and per-sample weights — required by the joint EM,
//! which retrains `φ` on posterior-weighted labels), MSE and Huber losses
//! for Q-regression, and SGD/Momentum/Adam optimizers. A finite-difference
//! gradient checker validates the backward pass in tests.
//!
//! Everything is `f32`, CPU-only, deterministic given a seeded RNG.

#![forbid(unsafe_code)]

pub mod activation;
pub mod classifier;
pub mod init;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optimizer;

pub use activation::Activation;
pub use classifier::{ClassifierConfig, ClassifierSnapshot, SoftmaxClassifier};
pub use layer::Dense;
pub use network::Network;
pub use optimizer::{Adam, Momentum, Optimizer, Sgd};
