//! # crowdrl-rl
//!
//! The reinforcement-learning substrate behind CrowdRL's unified task
//! selection + assignment agent (§IV).
//!
//! The paper models the joint operation "select object `o_i` and assign it
//! to annotator `w_j`" as one action whose long-term value
//! `Q(S(t), A(t))` is approximated by a Deep Q-Network (Eq. 4–5), trained
//! by experience replay, with a UCB1-style exploration bonus (Eq. 6)
//! replacing ε-greedy, `Q = -inf` masking of already-labelled objects, and
//! top-k per-object assignment selected with a bounded min-heap (§IV-B).
//!
//! This crate provides those mechanisms independent of the labelling
//! domain:
//!
//! * [`ReplayBuffer`] — fixed-capacity FIFO experience pool with uniform
//!   sampling;
//! * [`DqnAgent`] — online + target network over state-action feature
//!   vectors, Huber TD loss, Adam, periodic target sync;
//! * [`UcbExplorer`] / [`EpsilonGreedy`] — exploration policies;
//! * [`topk`] — heap-based top-k selection used to pick the `k` annotators
//!   per object and the best objects per iteration.

#![forbid(unsafe_code)]

pub mod dqn;
pub mod explore;
pub mod replay;
pub mod topk;

pub use dqn::{DqnAgent, DqnConfig, DqnSnapshot};
pub use explore::{EpsilonGreedy, UcbExplorer};
pub use replay::{ReplayBuffer, Transition};
