//! # crowdrl-service
//!
//! Multi-tenant **sharded serving** of concurrent CrowdRL labelling
//! projects over one shared annotator pool.
//!
//! The engine lives in `crowdrl-serve`, which runs every labelling job —
//! a single asynchronous run is a one-tenant, one-shard service. This
//! crate re-exports the multi-tenant surface under its historical name:
//!
//! * a [`Service`] owning N concurrent projects ([`ProjectSpec`]), with
//!   **admission control** ([`AdmissionPolicy`]): reject or queue
//!   submissions past [`ServiceConfig::capacity`];
//! * each project's objects **sharded across P partitions**, every
//!   shard a private event loop + ledger slice, advanced in parallel on
//!   the shared thread pool and merged back deterministically (the
//!   refresh watermark is the *minimum* frontier over a project's
//!   shards);
//! * one **pool broker** ([`PoolBroker`]) arbitrating annotator
//!   concurrency slots across projects in a stable (priority,
//!   submission) order, plus **cross-project quarantine evidence** — an
//!   annotator spamming project A is evidence for project B;
//! * **per-project budget isolation** on an
//!   [`AccountBook`](crowdrl_serve::AccountBook): reservations and
//!   exactly-once charges per account, never across accounts;
//! * per-project obs scoping (`project.<id>.` metric prefixes) and a
//!   cross-project [`AggregateMetrics`] report with a pool-fairness
//!   spread statistic;
//! * **tenant-isolated fault containment**: a shard panic (injected or
//!   genuine) or a scheduled abort fails only the offending project —
//!   typed [`ServiceError::ProjectFailed`], reservations released,
//!   quarantine evidence withdrawn, a queued project promoted in its
//!   place — while every other tenant keeps running bit-identically;
//! * **crash-consistent checkpoints** ([`RunCheckpoint`]) cut at round
//!   boundaries: kill-and-resume finishes bit-identically to an
//!   uninterrupted run, across exec modes, guarded by a config
//!   fingerprint;
//! * **overload protection**: a bounded admission queue that sheds with
//!   a typed error, a promotion backpressure floor on the shared pool's
//!   free slots, and per-project settlement-backlog bounds.
//!
//! Both [`ExecMode`](crowdrl_serve::ExecMode)s run the identical
//! sharded algorithm — `WorkerPool` only raises the thread cap — so a
//! whole multi-project run is bit-identical between them.
//!
//! ```
//! use crowdrl_core::CrowdRlConfig;
//! use crowdrl_service::{ProjectSpec, Service, ServiceConfig};
//! use crowdrl_sim::{DatasetSpec, PoolSpec};
//! use crowdrl_types::rng::seeded;
//!
//! let mut rng = seeded(11);
//! let pool = PoolSpec::new(6, 2).generate(2, &mut rng).unwrap();
//! let config = CrowdRlConfig::builder().budget(60.0).build().unwrap();
//! let specs: Vec<ProjectSpec> = (0..2)
//!     .map(|p| {
//!         let dataset = DatasetSpec::gaussian(format!("p{p}"), 20, 3, 2)
//!             .with_separation(3.0)
//!             .generate(&mut rng)
//!             .unwrap();
//!         ProjectSpec::new(format!("project-{p}"), config.clone(), dataset)
//!     })
//!     .collect();
//! let service = Service::new(ServiceConfig::default()).unwrap();
//! let outcome = service.run(&specs, &pool, &mut rng).unwrap();
//! assert_eq!(outcome.reports.len(), 2);
//! println!("{}", outcome.aggregate);
//! ```

#![forbid(unsafe_code)]

pub use crowdrl_serve::{
    service_fingerprint, ActiveProjectState, AdmissionPolicy, AggregateMetrics, CheckpointSink,
    PoolBroker, ProjectCheckpoint, ProjectReport, ProjectSpec, ProjectStatus, RunCheckpoint,
    Service, ServiceConfig, ServiceError, ServiceOutcome, ServiceRunOutcome, ShardState,
};
