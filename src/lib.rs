//! # CrowdRL
//!
//! An end-to-end reinforcement-learning framework for data labelling — a
//! from-scratch Rust reproduction of *CrowdRL* (Li et al., ICDE 2021).
//!
//! CrowdRL labels a dataset under a monetary budget by unifying three
//! classically separate problems:
//!
//! * **Task selection** — which unlabelled objects to label next,
//! * **Task assignment** — which annotators (cheap noisy crowd workers or
//!   expensive near-perfect experts) should label them,
//! * **Truth inference** — what the true label is, given noisy answers.
//!
//! A Deep Q-Network scores (object, annotator) pairs so selection and
//! assignment become one action; an EM-style *joint* inference model couples
//! the annotator confusion matrices with a classifier trained on the
//! evolving labelled set; high-confidence classifier predictions enrich the
//! labelled set for free.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `crowdrl-types` | IDs, datasets, confusion matrices, budgets |
//! | [`obs`] | `crowdrl-obs` | zero-dependency tracing/metrics + trace analyzer |
//! | [`linalg`] | `crowdrl-linalg` | dense matrix kernels |
//! | [`nn`] | `crowdrl-nn` | feed-forward neural networks |
//! | [`sim`] | `crowdrl-sim` | crowdsourcing-platform simulator |
//! | [`inference`] | `crowdrl-inference` | truth-inference algorithms |
//! | [`rl`] | `crowdrl-rl` | DQN substrate |
//! | [`core`] | `crowdrl-core` | the CrowdRL workflow itself |
//! | [`baselines`] | `crowdrl-baselines` | DLTA / OBA / IDLE / DALC / Hybrid |
//! | [`eval`] | `crowdrl-eval` | metrics and experiment runner |
//! | [`serve`] | `crowdrl-serve` | the labelling engine: one project or many tenants over one shared pool |
//! | [`service`] | `crowdrl-service` | re-export of the engine's multi-tenant surface |
//!
//! ## Quickstart
//!
//! ```
//! use crowdrl::prelude::*;
//!
//! // A small synthetic labelling problem: 60 objects, 2 classes.
//! let spec = DatasetSpec::gaussian("demo", 60, 6, 2).with_separation(2.0);
//! let mut rng = crowdrl::types::rng::seeded(7);
//! let dataset = spec.generate(&mut rng).unwrap();
//!
//! // Three workers and one expert.
//! let pool = PoolSpec::new(3, 1).generate(dataset.num_classes(), &mut rng).unwrap();
//!
//! // Run the CrowdRL workflow with a budget of 120 units.
//! let config = CrowdRlConfig::builder().budget(120.0).initial_ratio(0.1).build().unwrap();
//! let outcome = CrowdRl::new(config).run(&dataset, &pool, &mut rng).unwrap();
//!
//! let metrics = evaluate_labels(&dataset, &outcome.labels).unwrap();
//! assert!(metrics.accuracy > 0.5);
//! ```

#![forbid(unsafe_code)]

pub use crowdrl_baselines as baselines;
pub use crowdrl_core as core;
pub use crowdrl_eval as eval;
pub use crowdrl_inference as inference;
pub use crowdrl_linalg as linalg;
pub use crowdrl_nn as nn;
pub use crowdrl_obs as obs;
pub use crowdrl_rl as rl;
pub use crowdrl_serve as serve;
pub use crowdrl_service as service;
pub use crowdrl_sim as sim;
pub use crowdrl_types as types;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crowdrl_core::{CrowdRl, CrowdRlConfig, LabellingOutcome};
    pub use crowdrl_eval::metrics::{evaluate_labels, Metrics};
    pub use crowdrl_serve::{AsyncOutcome, ExecMode, RunAsync, ServeConfig, ServiceMetrics};
    pub use crowdrl_service::{
        AdmissionPolicy, ProjectSpec, ProjectStatus, RunCheckpoint, Service, ServiceConfig,
        ServiceError, ServiceOutcome, ServiceRunOutcome,
    };
    pub use crowdrl_sim::{AnnotatorPool, DatasetSpec, PoolSpec};
    pub use crowdrl_types::{
        AnnotatorId, AnnotatorKind, AnnotatorProfile, Answer, AnswerSet, Budget, ClassId,
        ConfusionMatrix, Dataset, LabelState, LabelledSet, ObjectId,
    };
}
