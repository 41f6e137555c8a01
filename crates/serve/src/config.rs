//! Configuration: the per-run knobs every project shares
//! ([`ServeConfig`]), and the multi-tenant layer around them
//! ([`ServiceConfig`], [`ProjectSpec`], [`AdmissionPolicy`]).

use crate::supervisor::{QuarantineConfig, SupervisorConfig};
use crowdrl_core::CrowdRlConfig;
use crowdrl_sim::{CapacitySpec, DynamicsSpec, FaultPlan};
use crowdrl_types::{Dataset, Error, Result};

/// How many threads a run may use. The engine runs one implementation
/// at every width: the mode is the
/// `crowdrl_linalg::pool` thread cap for the duration of the run, set and
/// restored by `pool::with_threads`. Every pooled section writes disjoint,
/// pre-indexed slots, so traces and outcomes are bit-identical across
/// modes and widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Pool width 1: everything on the calling thread — the reference
    /// execution.
    SingleThread,
    /// Pool width `workers`: the calling thread plus up to `workers - 1`
    /// pool threads (capped at `crowdrl_linalg::pool::MAX_THREADS`).
    WorkerPool {
        /// Thread cap for the run; must be at least 1.
        workers: usize,
    },
}

impl ExecMode {
    /// The pool thread cap this mode sets for a run.
    pub fn threads(self) -> usize {
        match self {
            ExecMode::SingleThread => 1,
            ExecMode::WorkerPool { workers } => workers,
        }
    }

    /// Reject `WorkerPool { workers: 0 }`.
    pub fn validate(self) -> Result<()> {
        if self.threads() == 0 {
            return Err(Error::InvalidParameter(
                "worker pool must have at least one worker".into(),
            ));
        }
        Ok(())
    }
}

/// Per-run knobs of the asynchronous labelling loop. A one-project
/// [`AsyncRuntime`](crate::AsyncRuntime) run takes them directly; a
/// multi-tenant [`ServiceConfig`] holds one set that every project shares.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated time units before a dispatched question expires and its
    /// reservation is released.
    pub timeout: f64,
    /// Answer watermark: refresh truth inference after this many newly
    /// delivered answers.
    pub answer_watermark: usize,
    /// Time watermark: refresh after this much simulated time since the
    /// last refresh, even if the answer watermark was not reached
    /// (checked once per simulated instant, after all of its events).
    pub time_watermark: f64,
    /// How many timeouts an object may accumulate before the service
    /// abandons it to the classifier fallback.
    pub max_requeues: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Annotator latency/availability models (per-tier means; per-
    /// annotator dynamics are generated from the run's RNG).
    pub dynamics: DynamicsSpec,
    /// Seed of the per-assignment sampling streams. Response label,
    /// latency and availability of assignment `i` are drawn from a stream
    /// derived from `(sampling_seed, i)`, which is what makes the
    /// worker-pool trace identical to the single-threaded one.
    pub sampling_seed: u64,
    /// Deterministic fault injection applied to sampled outcomes
    /// (no-shows, abandonment, stragglers, outages, duplicates, drift).
    /// The default plan injects nothing.
    pub faults: FaultPlan,
    /// Retry/backoff policy for timed-out assignments. Backoff is off by
    /// default.
    pub supervisor: SupervisorConfig,
    /// Annotator circuit-breaker policy. Off by default.
    pub quarantine: QuarantineConfig,
    /// Take a crash-consistent checkpoint every this many truth-inference
    /// refreshes; `0` (the default) never checkpoints. A multi-tenant run
    /// counts scheduling rounds in which at least one project refreshed.
    pub checkpoint_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            timeout: 60.0,
            answer_watermark: 12,
            time_watermark: 25.0,
            max_requeues: 3,
            mode: ExecMode::SingleThread,
            dynamics: DynamicsSpec::default(),
            sampling_seed: 0x5EED_CAFE,
            faults: FaultPlan::default(),
            supervisor: SupervisorConfig::default(),
            quarantine: QuarantineConfig::default(),
            checkpoint_every: 0,
        }
    }
}

impl ServeConfig {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if !self.timeout.is_finite() || self.timeout <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "timeout must be positive, got {}",
                self.timeout
            )));
        }
        if self.answer_watermark == 0 {
            return Err(Error::InvalidParameter(
                "answer_watermark must be at least 1".into(),
            ));
        }
        if !self.time_watermark.is_finite() || self.time_watermark <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "time_watermark must be positive, got {}",
                self.time_watermark
            )));
        }
        self.mode.validate()?;
        self.faults.validate()?;
        self.supervisor.validate()?;
        self.quarantine.validate()?;
        Ok(())
    }

    /// Set the execution mode (builder-style).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the timeout (builder-style).
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.timeout = timeout;
        self
    }

    /// Set the watermarks (builder-style).
    pub fn with_watermarks(mut self, answers: usize, time: f64) -> Self {
        self.answer_watermark = answers;
        self.time_watermark = time;
        self
    }

    /// Set the fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the supervisor policy (builder-style).
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Set the quarantine policy (builder-style).
    pub fn with_quarantine(mut self, quarantine: QuarantineConfig) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Set the checkpoint cadence (builder-style).
    pub fn with_checkpoint_every(mut self, refreshes: usize) -> Self {
        self.checkpoint_every = refreshes;
        self
    }
}

/// What happens to a project submitted past [`ServiceConfig::capacity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse it outright: the report carries no outcome and no money
    /// ever moves on its account.
    Reject,
    /// Park it; it activates (at the then-current simulated time) when a
    /// running project finishes and frees a slot.
    Queue,
}

/// One tenant: a complete CrowdRL labelling run — its own dataset,
/// config, and budget — submitted to the service.
#[derive(Debug, Clone)]
pub struct ProjectSpec {
    /// Human-readable name, used in reports.
    pub name: String,
    /// The full per-run configuration (budget, inference model, DQN…).
    pub config: CrowdRlConfig,
    /// The objects this project labels.
    pub dataset: Dataset,
    /// Broker priority: higher goes first when projects contend for the
    /// same annotators in one scheduling round. Ties break by submission
    /// order, so grants stay deterministic.
    pub priority: u32,
}

impl ProjectSpec {
    /// A priority-0 project.
    pub fn new(name: impl Into<String>, config: CrowdRlConfig, dataset: Dataset) -> Self {
        Self {
            name: name.into(),
            config,
            dataset,
            priority: 0,
        }
    }

    /// Set the broker priority.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

/// Configuration of the multi-tenant service: capacity, admission,
/// sharding, scheduling cadence and pool arbitration, around the
/// [`ServeConfig`] every project runs under.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Max projects running concurrently.
    pub capacity: usize,
    /// What to do with submissions past `capacity`.
    pub admission: AdmissionPolicy,
    /// Event-loop partitions per project (objects are sharded
    /// `object mod shards`). Clamped to the project's object count.
    pub shards_per_project: usize,
    /// Scheduling slack, time units: each round advances every shard to
    /// `earliest pending event + epoch`, batching nearby events into one
    /// parallel sweep. Zero settles exactly one event instant per round.
    pub epoch: f64,
    /// Per-annotator concurrent-assignment capacities (the shared-pool
    /// resource the broker arbitrates).
    pub annotator_capacity: CapacitySpec,
    /// Cross-project evidence: an annotator currently quarantined by at
    /// least this many projects is blocked pool-wide (no project gets
    /// it). `0` disables the shared view.
    pub shared_evidence_threshold: usize,
    /// Overload shedding: under [`AdmissionPolicy::Queue`], at most this
    /// many projects may wait beyond the running set — submissions past
    /// `capacity + max_queue_depth` are shed with a typed
    /// [`ServiceError::AdmissionRejected`](crate::ServiceError). `0`
    /// leaves the queue unbounded.
    pub max_queue_depth: usize,
    /// Backpressure floor on the shared pool: a queued project is not
    /// promoted while the pool's free-slot ratio sits below this value —
    /// the service degrades to queueing instead of piling a fresh
    /// tenant's initial burst onto saturated annotators. `0.0` disables
    /// the floor.
    pub min_free_slot_ratio: f64,
    /// Per-project settlement-backlog bound: a project holding more than
    /// this many pending shard events is skipped for refresh/dispatch
    /// until its backlog drains below the bound — new questions must not
    /// outrun settlement. `0` leaves backlogs unbounded.
    pub max_settlement_backlog: usize,
    /// The per-run knobs every project shares: timeout, watermarks,
    /// requeue allowance, execution mode, crowd dynamics, sampling seed,
    /// faults, backoff, quarantine and checkpoint cadence.
    pub serve: ServeConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            capacity: 16,
            admission: AdmissionPolicy::Queue,
            shards_per_project: 4,
            epoch: 5.0,
            annotator_capacity: CapacitySpec::default(),
            shared_evidence_threshold: 0,
            max_queue_depth: 0,
            min_free_slot_ratio: 0.0,
            max_settlement_backlog: 0,
            serve: ServeConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// The engine settings of a single asynchronous run: one project on
    /// one shard, one event instant per round, and no annotator
    /// concurrency cap — so the engine replays the classic single-run
    /// event loop (DESIGN.md §8).
    pub(crate) fn one_project(serve: ServeConfig) -> Self {
        Self {
            capacity: 1,
            shards_per_project: 1,
            epoch: 0.0,
            annotator_capacity: CapacitySpec {
                worker_slots: usize::MAX,
                expert_slots: usize::MAX,
            },
            serve,
            ..Self::default()
        }
    }

    /// Validate all knobs.
    pub fn validate(&self) -> Result<()> {
        if self.capacity == 0 {
            return Err(Error::InvalidParameter(
                "service capacity must be at least 1".into(),
            ));
        }
        if self.shards_per_project == 0 {
            return Err(Error::InvalidParameter(
                "shards_per_project must be at least 1".into(),
            ));
        }
        if !self.epoch.is_finite() || self.epoch < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "epoch must be finite and non-negative, got {}",
                self.epoch
            )));
        }
        if !self.min_free_slot_ratio.is_finite() || !(0.0..=1.0).contains(&self.min_free_slot_ratio)
        {
            return Err(Error::InvalidParameter(format!(
                "min_free_slot_ratio must be in [0,1], got {}",
                self.min_free_slot_ratio
            )));
        }
        self.annotator_capacity.validate()?;
        self.serve.validate()
    }

    /// Set the project capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Set the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Set the shard count per project.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards_per_project = shards;
        self
    }

    /// Set the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.serve.mode = mode;
        self
    }

    /// Set the refresh watermarks.
    pub fn with_watermarks(mut self, answers: usize, time: f64) -> Self {
        self.serve = self.serve.with_watermarks(answers, time);
        self
    }

    /// Set the assignment timeout.
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.serve.timeout = timeout;
        self
    }

    /// Set the shared-evidence threshold.
    pub fn with_shared_evidence(mut self, threshold: usize) -> Self {
        self.shared_evidence_threshold = threshold;
        self
    }

    /// Cut a checkpoint every `refreshes` rounds in which some project
    /// refreshed (`0` = off).
    pub fn with_checkpoint_every(mut self, refreshes: usize) -> Self {
        self.serve.checkpoint_every = refreshes;
        self
    }

    /// Bound the admission queue (`0` = unbounded).
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Set the promotion backpressure floor (`0.0` = off).
    pub fn with_min_free_slot_ratio(mut self, ratio: f64) -> Self {
        self.min_free_slot_ratio = ratio;
        self
    }

    /// Bound each project's settlement backlog (`0` = unbounded).
    pub fn with_max_settlement_backlog(mut self, backlog: usize) -> Self {
        self.max_settlement_backlog = backlog;
        self
    }

    /// Attach a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.serve.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_knobs_are_rejected() {
        assert!(ServeConfig {
            timeout: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            answer_watermark: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            time_watermark: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig::default()
            .with_mode(ExecMode::WorkerPool { workers: 0 })
            .validate()
            .is_err());
    }

    #[test]
    fn exec_mode_is_a_pool_width() {
        assert_eq!(ExecMode::SingleThread.threads(), 1);
        assert_eq!(ExecMode::WorkerPool { workers: 3 }.threads(), 3);
        assert!(ExecMode::WorkerPool { workers: 1 }.validate().is_ok());
    }

    #[test]
    fn nested_policies_are_validated() {
        let faults = FaultPlan {
            no_show_rate: 2.0,
            ..FaultPlan::default()
        };
        assert!(ServeConfig::default()
            .with_faults(faults)
            .validate()
            .is_err());
        let sup = SupervisorConfig {
            backoff_base: f64::NAN,
            ..SupervisorConfig::default()
        };
        assert!(ServeConfig::default()
            .with_supervisor(sup)
            .validate()
            .is_err());
        let quar = QuarantineConfig {
            score_threshold: -0.1,
            ..QuarantineConfig::default()
        };
        assert!(ServeConfig::default()
            .with_quarantine(quar)
            .validate()
            .is_err());
    }

    #[test]
    fn default_service_config_validates() {
        assert!(ServiceConfig::default().validate().is_ok());
        assert!(ServiceConfig::one_project(ServeConfig::default())
            .validate()
            .is_ok());
    }

    #[test]
    fn service_validation_catches_degenerate_knobs() {
        assert!(ServiceConfig::default()
            .with_capacity(0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default().with_shards(0).validate().is_err());
        assert!(ServiceConfig::default()
            .with_timeout(0.0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_watermarks(0, 25.0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_watermarks(12, f64::NAN)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_mode(ExecMode::WorkerPool { workers: 0 })
            .validate()
            .is_err());
        let bad_epoch = ServiceConfig {
            epoch: -1.0,
            ..ServiceConfig::default()
        };
        assert!(bad_epoch.validate().is_err());
        assert!(ServiceConfig::default()
            .with_min_free_slot_ratio(1.5)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_min_free_slot_ratio(f64::NAN)
            .validate()
            .is_err());
        let bad_faults = ServiceConfig::default().with_faults(FaultPlan {
            aborts: vec![crowdrl_sim::ProjectAbort {
                project: 0,
                at: -1.0,
            }],
            ..Default::default()
        });
        assert!(bad_faults.validate().is_err());
    }

    #[test]
    fn builder_helpers_set_fields() {
        let c = ServeConfig::default()
            .with_mode(ExecMode::WorkerPool { workers: 4 })
            .with_timeout(30.0)
            .with_watermarks(5, 10.0);
        assert_eq!(c.mode, ExecMode::WorkerPool { workers: 4 });
        assert_eq!(c.timeout, 30.0);
        assert_eq!(c.answer_watermark, 5);
        assert_eq!(c.time_watermark, 10.0);
    }
}
