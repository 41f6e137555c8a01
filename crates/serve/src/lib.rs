//! # crowdrl-serve
//!
//! A discrete-event **asynchronous labelling runtime** for CrowdRL, from
//! one project to many concurrent tenants over one shared crowd.
//!
//! The batch workflow ([`CrowdRl::run`]) pretends annotators answer
//! instantly: ask a panel, get the answers, infer, repeat. A deployed
//! labelling service gets none of that — answers arrive minutes apart,
//! some never arrive, and the budget must survive all of it. This crate
//! replays CrowdRL's decision loop on top of that reality with **one
//! engine** ([`service`]):
//!
//! * a deterministic **discrete-event scheduler** ([`clock`], [`event`])
//!   driven by per-annotator latency/availability models from
//!   `crowdrl-sim`, advanced in scheduling rounds over per-project
//!   shards;
//! * an **in-flight assignment ledger** ([`ledger`]) with configurable
//!   timeouts, requeue-on-expiry, duplicate-answer rejection, and
//!   reservation-based exactly-once charging on per-project accounts;
//! * **incremental answer ingestion** that refreshes truth inference on
//!   watermarks — every *k* delivered answers or *t* simulated time
//!   units ([`config`]);
//! * deterministic **fault injection** (one `FaultPlan` for assignment
//!   faults and project-scoped outages, aborts and panics), supervisor
//!   backoff and annotator quarantine ([`supervisor`]), and
//!   crash-consistent **checkpoints** ([`checkpoint`]) with bit-identical
//!   resume;
//! * **multi-tenant serving**: admission control, a pool broker
//!   arbitrating annotator slots and pooled quarantine evidence
//!   ([`broker`]), per-project budget isolation, and tenant-contained
//!   failures;
//! * one implementation at any width: [`ExecMode`] is the thread cap of
//!   the shared `crowdrl_linalg` pool for the run (matmul, EM, shard
//!   advance, refresh and response sampling fan out on it), and every
//!   width produces the identical trace by construction;
//! * a [`ServiceMetrics`] report per project: answer throughput, latency
//!   p50/p95/p99, timeout/requeue counts, budget burn rate.
//!
//! Two entry points drive the engine. [`Service::run`] runs many
//! [`ProjectSpec`]s; [`AsyncRuntime::run`] — and the [`RunAsync`]
//! extension trait that bolts `run_async` onto [`CrowdRl`] — runs one
//! project as a one-tenant, one-shard service
//! (capacity 1, epoch 0, unbounded annotator slots):
//!
//! ```
//! use crowdrl_core::{CrowdRl, CrowdRlConfig};
//! use crowdrl_serve::{RunAsync, ServeConfig};
//! use crowdrl_sim::{DatasetSpec, PoolSpec};
//! use crowdrl_types::rng::seeded;
//!
//! let mut rng = seeded(7);
//! let dataset = DatasetSpec::gaussian("demo", 40, 3, 2)
//!     .with_separation(3.0)
//!     .generate(&mut rng)
//!     .unwrap();
//! let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
//! let crowdrl = CrowdRl::new(CrowdRlConfig::builder().budget(120.0).build().unwrap());
//! let result = crowdrl
//!     .run_async(&dataset, &pool, &ServeConfig::default(), &mut rng)
//!     .unwrap();
//! assert!(result.outcome.coverage() > 0.0);
//! println!("{}", result.metrics);
//! ```
//!
//! The trait lives here rather than in `crowdrl-core` because the
//! dependency points this way (serve builds on core); re-exported from
//! the `crowdrl` facade it reads as part of the same API.
//!
//! [`CrowdRl`]: crowdrl_core::CrowdRl
//! [`CrowdRl::run`]: crowdrl_core::CrowdRl::run

#![forbid(unsafe_code)]

pub mod broker;
pub mod checkpoint;
pub mod clock;
pub mod config;
pub mod core_loop;
pub mod error;
pub mod event;
pub mod ledger;
pub mod metrics;
pub mod project;
pub mod runtime;
pub mod sampler;
pub mod service;
pub(crate) mod shard;
pub mod supervisor;

pub use broker::PoolBroker;
pub use checkpoint::{
    service_fingerprint, ActiveProjectState, ProjectCheckpoint, RunCheckpoint, ShardState,
};
pub use clock::EventQueue;
pub use config::{AdmissionPolicy, ExecMode, ProjectSpec, ServeConfig, ServiceConfig};
pub use error::ServiceError;
pub use event::{Event, EventKind, TraceEvent};
pub use ledger::{
    AccountBook, AccountState, AssignmentLedger, AssignmentRecord, AssignmentStatus, Delivery,
    Expiry,
};
pub use metrics::{
    AggregateMetrics, MetricsCollector, ProjectReport, ServiceMetrics, ServiceOutcome,
};
pub use project::ProjectStatus;
pub use runtime::{AsyncOutcome, AsyncRuntime, RunOutcome};
pub use service::{CheckpointSink, RunControl, Service, ServiceRunOutcome};
pub use supervisor::{
    DegradedMode, Quarantine, QuarantineConfig, QuarantineEvent, QuarantineStatus, SupervisorConfig,
};

use crowdrl_core::CrowdRl;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{Dataset, Result};
use rand::Rng;

/// Extension trait: run a configured [`CrowdRl`] through the
/// asynchronous runtime instead of the batch loop.
pub trait RunAsync {
    /// Label `dataset` asynchronously. Same dataset, pool and budget as
    /// [`CrowdRl::run`](crowdrl_core::CrowdRl::run); the outcome is
    /// directly comparable.
    fn run_async<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        serve: &ServeConfig,
        rng: &mut R,
    ) -> Result<AsyncOutcome>;
}

impl RunAsync for CrowdRl {
    fn run_async<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        serve: &ServeConfig,
        rng: &mut R,
    ) -> Result<AsyncOutcome> {
        AsyncRuntime::new(self.config().clone(), serve.clone()).run(dataset, pool, rng)
    }
}
