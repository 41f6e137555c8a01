//! # crowdrl-sim
//!
//! A crowdsourcing-platform simulator standing in for the parts of the
//! CrowdRL evaluation we cannot ship: the proprietary TAL speech datasets,
//! the Fashion 10000 image set, and the human annotators themselves.
//!
//! Three layers:
//!
//! * [`datasets`] — synthetic dataset generators. A generic class-conditional
//!   Gaussian generator plus presets mirroring the paper's three datasets
//!   (Speech12, Speech3, Fashion) in cardinality, feature-family structure
//!   (contextual/prosodic blocks with C / P / CP views) and relative
//!   hardness.
//! * [`annotators`] — annotator pools. Each annotator is a latent
//!   [`ConfusionMatrix`](crowdrl_types::ConfusionMatrix) (the paper's own
//!   model of annotator expertise); workers are sampled noisy, experts
//!   near-perfect, and costs follow the paper (workers 1 unit, experts 5–10).
//! * [`platform`] — the interaction boundary. Labelling algorithms hold a
//!   [`Platform`] and may only *ask* (object, annotator) questions through
//!   it; the platform charges the budget, samples the answer through the
//!   latent confusion matrix, and records it. Ground truth never crosses
//!   this boundary.
//! * [`faults`] — deterministic fault injection for chaos testing: a seeded
//!   [`FaultPlan`] of no-shows, abandonment, stragglers, platform outages,
//!   duplicate deliveries and mid-run annotator quality drift, applied to
//!   sampled outcomes by a stateless [`FaultInjector`].

#![forbid(unsafe_code)]

pub mod annotators;
pub mod datasets;
pub mod faults;
pub mod latency;
pub mod platform;

pub use annotators::{AnnotatorPool, PoolSpec};
pub use datasets::{DatasetSpec, FashionSpec, SpeechSpec, SpeechViews};
pub use faults::{
    FaultInjector, FaultPlan, FaultRecord, InjectedOutcome, OutageWindow, ProjectAbort,
    ProjectOutage, ProjectPanic, QualityDrift, ServiceFaultPlan,
};
pub use latency::{AnnotatorDynamics, CapacitySpec, DynamicsSpec, LatencyModel};
pub use platform::Platform;
