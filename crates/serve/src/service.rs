//! The engine: admission, scheduling rounds, the deterministic
//! cross-shard merge, and pool arbitration. Every run goes through it — a
//! multi-tenant [`Service`] with many projects, and a single
//! [`AsyncRuntime`](crate::AsyncRuntime) run as one project on one shard
//! (capacity 1, epoch 0, unbounded annotator slots).
//!
//! # One scheduling round
//!
//! 1. **Horizon.** Take the earliest pending event across every active
//!    shard and add [`ServiceConfig::epoch`] of slack — that is the
//!    round's horizon.
//! 2. **Advance (parallel).** Every shard of every active project
//!    advances to the horizon concurrently on the shared thread pool.
//!    Shards own disjoint state, so this is embarrassingly parallel;
//!    each produces a `ShardBatch` of settlements in its own event
//!    order. Every event at or before the horizon settles before any
//!    watermark is checked.
//! 3. **Merge (sequential).** Batches are applied in *(project, shard,
//!    event)* order: deliveries charge the project's account
//!    ([`AccountBook`]) and release broker slots, expiries release
//!    reservations, requeue objects and start their supervisor backoff.
//!    The merged answer stream, money movement, and trace are therefore
//!    identical at any thread count.
//! 4. **Refresh (parallel).** Projects whose watermark is due — or that
//!    have nothing pending — run truth inference + DQN training
//!    concurrently; each project's [`AgentCore`] is private state.
//! 5. **Grant (sequential).** Panels are arbitrated through the
//!    [`PoolBroker`] in *(priority descending, submission index
//!    ascending)* order; response sampling for the granted assignments
//!    fans out on the pool (pure per-uid streams), the fault plan
//!    rewrites the sampled outcomes, and the assignments open on their
//!    shards. A project whose refresh dispatched nothing while nothing is
//!    pending is finished.
//!
//! # Why both exec modes are bit-identical
//!
//! [`ExecMode`] does not select an algorithm — it sets the thread cap
//! around *one* implementation (`SingleThread` caps the pool at 1).
//! Every parallel section is a `pool::for_each_mut` over disjoint,
//! pre-indexed slots (shards, due projects) or a chunk-ordered
//! `map_chunks` (response sampling), and every stateful effect happens in
//! the sequential merge/grant phases, so the trace is invariant by
//! construction, not by testing luck.
//!
//! [`ExecMode`]: crate::ExecMode

use crate::broker::PoolBroker;
use crate::checkpoint::{
    service_fingerprint, ActiveProjectState, ProjectCheckpoint, RunCheckpoint,
};
use crate::config::{AdmissionPolicy, ProjectSpec, ServiceConfig};
use crate::core_loop::{AgentCore, BudgetView, FinalizeRequest, RefreshReply, RefreshRequest};
use crate::error::ServiceError;
use crate::event::TraceEvent;
use crate::ledger::{AccountBook, AssignmentStatus};
use crate::metrics::{
    AggregateMetrics, MetricsCollector, ProjectReport, ServiceMetrics, ServiceOutcome,
};
use crate::project::{Project, ProjectStatus};
use crate::sampler::{sample_outcomes, SampleJob};
use crate::shard::{Shard, ShardBatch, ShardEvent};
use crowdrl_linalg::pool as tpool;
use crowdrl_obs as obs;
use crowdrl_sim::{AnnotatorDynamics, AnnotatorPool, FaultInjector, FaultRecord};
use crowdrl_types::{Answer, AnswerSet, AssignmentId, Error, ObjectId, Result, SimTime};
use rand::Rng;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// What a checkpoint sink tells the engine to do after each snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep running.
    Continue,
    /// Stop here; the run ends halted. The checkpoint just handed to the
    /// sink resumes the run exactly where it stopped.
    Halt,
}

/// Receives each [`RunCheckpoint`] as it is cut and decides whether the
/// run continues.
pub type CheckpointSink<'s> = &'s mut dyn FnMut(RunCheckpoint) -> RunControl;

/// How a checkpoint-aware service run ended.
#[derive(Debug)]
pub enum ServiceRunOutcome {
    /// Every project ran to completion (or failure/rejection) and the
    /// full outcome is available.
    Completed(Box<ServiceOutcome>),
    /// A checkpoint sink requested a halt mid-run. The checkpoint just
    /// handed to the sink resumes the run exactly where it stopped.
    Halted,
}

/// A multi-tenant labelling service: many concurrent CrowdRL projects
/// over one shared annotator pool. See the module docs for the round
/// structure and the determinism argument.
#[derive(Debug, Clone)]
pub struct Service {
    config: ServiceConfig,
}

impl Service {
    /// A service with the given configuration.
    pub fn new(config: ServiceConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Run every submitted project to completion and return one report
    /// per project plus the merged trace and cross-project aggregate.
    ///
    /// `rng` seeds the shared virtual crowd (latency dynamics) and each
    /// project's agent core, all drawn up front in submission order —
    /// the run itself is deterministic given (specs, pool, rng state,
    /// config) and bit-identical across
    /// [`ExecMode`](crate::ExecMode)s.
    pub fn run<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<ServiceOutcome> {
        match self.run_inner(specs, pool, rng, None, None)? {
            ServiceRunOutcome::Completed(outcome) => Ok(*outcome),
            ServiceRunOutcome::Halted => unreachable!("no sink, nothing can halt"),
        }
    }

    /// [`run`](Self::run), cutting a [`RunCheckpoint`] into `sink` every
    /// [`ServeConfig::checkpoint_every`](crate::ServeConfig::checkpoint_every)
    /// scheduling rounds in which some project refreshed. The sink
    /// returning [`RunControl::Halt`] stops the run as
    /// [`ServiceRunOutcome::Halted`]; [`resume`](Self::resume) with the
    /// last checkpoint finishes it bit-identically to an uninterrupted
    /// run — in either [`ExecMode`](crate::ExecMode).
    pub fn run_with_checkpoints<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
        sink: CheckpointSink<'_>,
    ) -> Result<ServiceRunOutcome> {
        self.run_inner(specs, pool, rng, Some(sink), None)
    }

    /// Resume a halted run from `checkpoint`. `specs`, `pool`, and the
    /// rng must be handed over exactly as they were to the original run
    /// (the checkpoint's config fingerprint is verified and a mismatch
    /// is a typed [`ServiceError::ConfigMismatch`]); the rng is consumed
    /// identically, so the same seeding discipline reproduces the same
    /// virtual crowd.
    pub fn resume<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: RunCheckpoint,
        sink: CheckpointSink<'_>,
    ) -> Result<ServiceRunOutcome> {
        self.run_inner(specs, pool, rng, Some(sink), Some(checkpoint))
    }

    fn run_inner<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
        sink: Option<CheckpointSink<'_>>,
        checkpoint: Option<RunCheckpoint>,
    ) -> Result<ServiceRunOutcome> {
        obs::init_from_env();
        let run_span = obs::span("service.run");
        let outcome = drive(
            &self.config,
            specs,
            pool,
            rng,
            sink,
            checkpoint,
            Entry::Service,
        )?;
        drop(run_span);
        if let ServiceRunOutcome::Completed(o) = &outcome {
            o.aggregate.emit_trace();
        }
        obs::checkpoint();
        Ok(outcome)
    }
}

/// Which entry point drives the engine. It changes only how the run
/// names its obs output and whether project metrics carry wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// One project through [`AsyncRuntime`](crate::AsyncRuntime): the
    /// unscoped metric names of a single run, and wall-clock fields in
    /// its metrics.
    Run,
    /// A multi-tenant [`Service`]: every project's metrics under
    /// `project.<id>.`, `service.`-prefixed checkpoint counters, and
    /// wall time only in the aggregate.
    Service,
}

impl Entry {
    /// Prefix of the engine's own checkpoint counters.
    fn prefix(self) -> &'static str {
        match self {
            Entry::Run => "",
            Entry::Service => "service.",
        }
    }

    /// Obs scope of project `i`'s metrics.
    fn scope(self, i: usize) -> String {
        match self {
            Entry::Run => String::new(),
            Entry::Service => format!("project.{i}."),
        }
    }
}

/// Validate, draw every random input, and run the engine to completion
/// (or to a halting checkpoint) with the pool capped at the execution
/// mode's width. Both entry points call this inside their envelope span.
pub(crate) fn drive<R: Rng + ?Sized>(
    cfg: &ServiceConfig,
    specs: &[ProjectSpec],
    pool: &AnnotatorPool,
    rng: &mut R,
    mut sink: Option<CheckpointSink<'_>>,
    checkpoint: Option<RunCheckpoint>,
    entry: Entry,
) -> Result<ServiceRunOutcome> {
    cfg.validate()?;
    if specs.is_empty() {
        return Err(Error::InvalidParameter(
            "service run needs at least one project".into(),
        ));
    }
    if pool.is_empty() {
        return Err(Error::InvalidParameter("annotator pool is empty".into()));
    }
    for spec in specs {
        spec.config.validate()?;
        if spec.dataset.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "project '{}' has an empty dataset",
                spec.name
            )));
        }
    }

    // All randomness is drawn here, in submission order, before any
    // scheduling happens — the engine itself never touches `rng`.
    // Resume draws identically, so the same rng reproduces the same
    // virtual crowd and the same per-project seeds.
    let dynamics = cfg.serve.dynamics.generate(pool, rng)?;
    let capacities = cfg.annotator_capacity.generate(pool)?;
    let seeds: Vec<u64> = specs.iter().map(|_| rng.random()).collect();

    // ExecMode = thread cap around one shared implementation.
    tpool::with_threads(cfg.serve.mode.threads(), || -> Result<_> {
        let mut engine = Engine::new(
            cfg,
            specs,
            pool,
            &dynamics,
            capacities.clone(),
            &seeds,
            entry,
        )?;
        if let Some(cp) = checkpoint {
            let t0 = Instant::now();
            engine.restore(cp, capacities)?;
            obs::counter_add(&format!("{}checkpoint.restore", entry.prefix()), 1);
            obs::gauge(
                &format!("{}checkpoint.restore_ns", entry.prefix()),
                t0.elapsed().as_nanos() as f64,
            );
        }
        if engine.run(&mut sink)? {
            return Ok(ServiceRunOutcome::Halted);
        }
        Ok(ServiceRunOutcome::Completed(Box::new(
            engine.into_outcome(),
        )))
    })
}

/// One granted assignment, between arbitration and opening on a shard.
#[derive(Debug, Clone, Copy)]
struct Grant {
    project: usize,
    shard: usize,
    object: crowdrl_types::ObjectId,
    annotator: crowdrl_types::AnnotatorId,
    cost: f64,
    uid: u64,
}

/// The live scheduling state for one service run.
struct Engine<'a> {
    cfg: &'a ServiceConfig,
    specs: &'a [ProjectSpec],
    pool: &'a AnnotatorPool,
    dynamics: &'a [AnnotatorDynamics],
    /// One slot per submitted project; `None` = refused at admission.
    projects: Vec<Option<Project<'a>>>,
    /// Submission indices waiting for a capacity slot (policy `Queue`).
    queued: VecDeque<usize>,
    /// Submission indices of running projects, ascending (initial fill
    /// and FIFO promotion both preserve submission order).
    active: Vec<usize>,
    accounts: AccountBook,
    broker: PoolBroker,
    trace: Vec<(usize, TraceEvent)>,
    /// Service-wide assignment counter: trace id and sampling-stream
    /// index for every dispatch, across all projects.
    next_uid: u64,
    now: SimTime,
    rounds: usize,
    timeout: SimTime,
    /// Per-submission typed error, `None` for projects that are healthy
    /// (or still running). Admission refusals are recorded at
    /// construction, mid-run failures by [`fail_project`](Self::fail_project).
    errors: Vec<Option<ServiceError>>,
    /// How many submissions the bounded admission queue shed (a subset
    /// of the rejected count). Recomputed deterministically from the
    /// config at construction, so checkpoints need not carry it.
    shed: usize,
    /// Rounds with a refresh since the last checkpoint cut. Zero right
    /// after a cut, so checkpoints need not carry it.
    refreshes_since_cut: usize,
    entry: Entry,
    /// Wall clock at construction: the aggregate's wall time, and a
    /// one-project run's.
    started: Instant,
}

/// What one shard's parallel advance produced: a normal batch, or the
/// contained payload of a panic (injected or genuine). The
/// `catch_unwind` lives *inside* the chunk closure, so a panicking
/// tenant can never poison the shared thread pool or its siblings.
enum AdvanceSlot {
    Batch(Result<ShardBatch>),
    Panicked(String),
}

/// One shard's slot in the parallel advance: the shard, its injected
/// panic time (if any), and what its chunk produced.
struct AdvanceWork<'s> {
    project: usize,
    shard: &'s mut Shard,
    panic_at: Option<f64>,
    slot: Option<AdvanceSlot>,
}

/// [`tpool::for_each_mut`], except that a lone item runs directly on the
/// caller: there is nothing to fan out, so it is not pool work (and is
/// not traced as a pool chunk).
fn fan_out<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    match items {
        [only] => f(0, only),
        _ => tpool::for_each_mut(items, f),
    }
}

/// Render a caught panic payload for the typed `ProjectFailed` error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Bump the `fault.injected.*` trace counters for one injected outcome.
fn count_faults(faults: &FaultRecord) {
    if faults.is_clean() {
        return;
    }
    for (hit, name) in [
        (faults.no_show, "fault.injected.no_show"),
        (faults.abandoned, "fault.injected.abandon"),
        (faults.straggler, "fault.injected.straggler"),
        (faults.outage, "fault.injected.outage"),
        (faults.duplicate, "fault.injected.duplicate"),
        (faults.drifted, "fault.injected.drift"),
    ] {
        if hit {
            obs::counter_add(name, 1);
        }
    }
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        specs: &'a [ProjectSpec],
        pool: &'a AnnotatorPool,
        dynamics: &'a [AnnotatorDynamics],
        capacities: Vec<usize>,
        seeds: &[u64],
        entry: Entry,
    ) -> Result<Self> {
        let mut accounts = AccountBook::new();
        let mut projects: Vec<Option<Project<'a>>> = Vec::with_capacity(specs.len());
        let mut queued = VecDeque::new();
        let mut errors: Vec<Option<ServiceError>> = Vec::with_capacity(specs.len());
        let mut shed = 0usize;
        for (i, spec) in specs.iter().enumerate() {
            // Account ids are dense and opened in submission order, so
            // account id == submission index — even for rejected
            // projects (their accounts just never move).
            let account = accounts.open(spec.config.budget)?;
            debug_assert_eq!(account, i);
            let over = i >= cfg.capacity;
            // Overload shedding: under `Queue` with a bounded depth,
            // submissions past `capacity + max_queue_depth` are refused
            // up front instead of parked forever.
            let queue_full = cfg.max_queue_depth > 0 && i >= cfg.capacity + cfg.max_queue_depth;
            let admitted = !over || (cfg.admission == AdmissionPolicy::Queue && !queue_full);
            if !admitted {
                let reason = if cfg.admission == AdmissionPolicy::Reject {
                    format!("service at capacity ({})", cfg.capacity)
                } else {
                    shed += 1;
                    obs::counter_add("admission.shed", 1);
                    format!(
                        "admission queue full ({} running + {} queued) — shed",
                        cfg.capacity, cfg.max_queue_depth
                    )
                };
                errors.push(Some(ServiceError::AdmissionRejected { project: i, reason }));
                projects.push(None);
                continue;
            }
            errors.push(None);
            let mut core = AgentCore::new(
                spec.config.clone(),
                &spec.dataset,
                pool,
                seeds[i],
                cfg.serve.quarantine.clone(),
            )?;
            core.set_obs_scope(entry.scope(i));
            let injector = if cfg.serve.faults.rewrites_outcomes() {
                Some(FaultInjector::new(
                    cfg.serve.faults.clone(),
                    spec.dataset.num_classes(),
                )?)
            } else {
                None
            };
            projects.push(Some(Project {
                index: i,
                name: spec.name.clone(),
                priority: spec.priority,
                core,
                shards: Vec::new(),
                answers: Arc::new(AnswerSet::new(spec.dataset.len())),
                answers_since: 0,
                last_refresh: SimTime::ZERO,
                requeues: vec![0; spec.dataset.len()],
                abandoned: HashSet::new(),
                backoff_until: vec![0.0; spec.dataset.len()],
                injector,
                collector: MetricsCollector::default(),
                started_at: SimTime::ZERO,
                status: ProjectStatus::Queued,
                done: false,
                starved: false,
                outcome: None,
                metrics: None,
            }));
            // Every admitted project starts queued; the first
            // `fill_active` promotes the first `capacity` of them at
            // time zero.
            queued.push_back(i);
        }
        Ok(Self {
            cfg,
            specs,
            pool,
            dynamics,
            projects,
            queued,
            active: Vec::new(),
            accounts,
            broker: PoolBroker::new(capacities, cfg.shared_evidence_threshold),
            trace: Vec::new(),
            next_uid: 0,
            now: SimTime::ZERO,
            rounds: 0,
            timeout: SimTime::new(cfg.serve.timeout)?,
            errors,
            shed,
            refreshes_since_cut: 0,
            entry,
            started: Instant::now(),
        })
    }

    fn project(&self, i: usize) -> &Project<'a> {
        self.projects[i].as_ref().expect("admitted project")
    }

    fn project_mut(&mut self, i: usize) -> &mut Project<'a> {
        self.projects[i].as_mut().expect("admitted project")
    }

    /// Promote queued projects into free capacity slots, activating them
    /// at the current simulated time.
    ///
    /// When [`ServiceConfig::min_free_slot_ratio`] is set, promotion is
    /// deferred while the shared pool's free-slot ratio sits below the
    /// floor — the service degrades to queueing instead of piling a
    /// fresh tenant's initial burst onto saturated annotators. The floor
    /// never deadlocks: with no active tenants the queue must drain
    /// regardless of load, so an empty active set always promotes.
    fn fill_active(&mut self) -> Result<()> {
        while self.active.len() < self.cfg.capacity {
            if self.queued.is_empty() {
                break;
            }
            if self.cfg.min_free_slot_ratio > 0.0 && !self.active.is_empty() {
                let total = self.broker.total_capacity();
                let free = total.saturating_sub(self.broker.total_load());
                if (free as f64) < self.cfg.min_free_slot_ratio * total as f64 {
                    break;
                }
            }
            let i = self.queued.pop_front().expect("checked non-empty");
            self.activate(i)?;
        }
        Ok(())
    }

    /// Start project `i` now: create its shards, mark it active, and
    /// dispatch its initial stratified panels through the broker.
    fn activate(&mut self, i: usize) -> Result<()> {
        let at = self.now;
        let shards = self
            .cfg
            .shards_per_project
            .min(self.specs[i].dataset.len())
            .max(1);
        let panels = {
            let p = self.project_mut(i);
            p.status = ProjectStatus::Active;
            p.started_at = at;
            p.last_refresh = at;
            p.shards = (0..shards).map(|_| Shard::new(at)).collect();
            p.core.initial_panels()
        };
        self.active.push(i);
        let (grants, contended) = self.grant(i, &panels)?;
        let dispatched = self.dispatch(grants)?;
        self.project_mut(i).starved = contended && dispatched == 0;
        Ok(())
    }

    /// Arbitrate one project's panels through the broker: reserve budget
    /// and take annotator slots for every admissible assignment, in the
    /// deterministic panel order the core proposed. Returns the grants
    /// plus whether anything was refused *for pool contention* (slots
    /// held by in-flight work — the one kind of refusal that resolves by
    /// itself as time advances).
    fn grant(
        &mut self,
        i: usize,
        panels: &[(crowdrl_types::ObjectId, Vec<crowdrl_types::AnnotatorId>)],
    ) -> Result<(Vec<Grant>, bool)> {
        let mut grants = Vec::new();
        let mut contended = false;
        for (object, annotators) in panels {
            for &annotator in annotators {
                let a = annotator.index();
                let cost = self.pool.profile(annotator).cost;
                let shard = {
                    let p = self.project(i);
                    let s = p.shard_of(*object);
                    if p.shards[s].pair_claimed(*object, annotator) {
                        continue;
                    }
                    s
                };
                if !self.accounts.can_reserve(i, cost) {
                    continue;
                }
                if self.broker.blocked(a) {
                    continue;
                }
                if !self.broker.has_slot(a) {
                    contended = true;
                    continue;
                }
                self.accounts.reserve(i, cost)?;
                self.broker.acquire(a);
                let uid = self.next_uid;
                self.next_uid += 1;
                self.trace.push((
                    i,
                    TraceEvent::Dispatched {
                        at: self.now,
                        id: AssignmentId(uid),
                        object: *object,
                        annotator,
                    },
                ));
                grants.push(Grant {
                    project: i,
                    shard,
                    object: *object,
                    annotator,
                    cost,
                    uid,
                });
            }
        }
        self.project_mut(i).collector.dispatched += grants.len();
        Ok((grants, contended))
    }

    /// Sample the virtual crowd's responses for a batch of grants (in
    /// parallel — each uid keys an independent stream), let the fault
    /// plan rewrite them, and open the assignments on their shards.
    fn dispatch(&mut self, grants: Vec<Grant>) -> Result<usize> {
        if grants.is_empty() {
            return Ok(0);
        }
        let jobs: Vec<SampleJob> = grants
            .iter()
            .map(|g| SampleJob {
                id: AssignmentId(g.uid),
                object: g.object,
                annotator: g.annotator,
                truth: self.specs[g.project].dataset.truth(g.object.index()),
            })
            .collect();
        let sample_span = obs::span("serve.sample");
        let outcomes = sample_outcomes(
            self.cfg.serve.sampling_seed,
            &jobs,
            self.pool,
            self.dynamics,
        );
        drop(sample_span);
        let deadline = self.now + self.timeout;
        let now = self.now;
        let faults = &self.cfg.serve.faults;
        for (grant, outcome) in grants.iter().zip(outcomes) {
            debug_assert_eq!(outcome.id.0, grant.uid);
            let p = self.projects[grant.project]
                .as_mut()
                .expect("granted project");
            let (response, duplicate_at) = match &p.injector {
                Some(injector) => {
                    let injected = injector.apply(
                        outcome.id,
                        grant.annotator,
                        now,
                        self.cfg.serve.timeout,
                        outcome.response,
                    );
                    count_faults(&injected.faults);
                    (injected.response, injected.duplicate_at)
                }
                None => (outcome.response, None),
            };
            // Project-scoped outage windows push the arrival past the
            // window's end (fixed point — windows may chain); an arrival
            // deferred past the deadline late-rejects as usual. Untouched
            // arrivals keep their exact latency bits, so projects without
            // outages are bit-identical to a no-fault run.
            let response = match response {
                Some((label, latency)) => {
                    let arrival = now + latency;
                    let deferred = faults.project_defer(grant.project, arrival.as_f64());
                    if deferred == arrival.as_f64() {
                        Some((label, latency))
                    } else {
                        obs::counter_add("fault.injected.outage", 1);
                        Some((label, SimTime::new(deferred)? - now))
                    }
                }
                None => None,
            };
            p.shards[grant.shard].open(
                grant.object,
                grant.annotator,
                grant.cost,
                grant.uid,
                now,
                deadline,
                response,
                duplicate_at,
            )?;
        }
        Ok(grants.len())
    }

    /// Advance every active shard to `horizon` in parallel, then merge
    /// the settlements sequentially in (project, shard, event) order.
    ///
    /// Every chunk runs under `catch_unwind`, so a panicking shard —
    /// injected by the fault plan or genuine — is contained to its own
    /// project: the offender is failed via
    /// [`fail_project`](Self::fail_project) (releasing everything it
    /// held) while every other tenant's batch merges normally.
    fn advance_and_merge(&mut self, horizon: SimTime) -> Result<()> {
        // One slot per (active project, shard), in merge order. Injected
        // panics fire on the project's first shard, in the first round
        // whose horizon passes the scheduled time.
        let faults = &self.cfg.serve.faults;
        let mut projects: Vec<Option<&mut Project<'a>>> =
            self.projects.iter_mut().map(Option::as_mut).collect();
        let mut work: Vec<AdvanceWork<'_>> = Vec::new();
        for &i in &self.active {
            let p = projects[i].take().expect("active project");
            let panic_at = faults.panic_at(i).filter(|&at| at <= horizon.as_f64());
            for (s, shard) in p.shards.iter_mut().enumerate() {
                work.push(AdvanceWork {
                    project: i,
                    shard,
                    panic_at: panic_at.filter(|_| s == 0),
                    slot: None,
                });
            }
        }
        if work.is_empty() {
            return Ok(());
        }
        // Each chunk mutates only its own shard and slot. A panic unwinds
        // only out of `Shard::advance`, whose staged-batch design keeps
        // the shard's settled-but-unreported events recoverable.
        fan_out(&mut work, |_, w| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(at) = w.panic_at {
                    panic!("injected shard panic at t={at}");
                }
                w.shard.advance(horizon)
            }));
            w.slot = Some(match result {
                Ok(batch) => AdvanceSlot::Batch(batch),
                Err(payload) => AdvanceSlot::Panicked(panic_message(payload.as_ref())),
            });
        });
        let batches: Vec<(usize, AdvanceSlot)> = work
            .into_iter()
            .map(|w| (w.project, w.slot.expect("chunk ran")))
            .collect();
        // Merge: healthy projects apply normally; a panicked project's
        // sibling batches are diverted to the containment path so their
        // held slots and reservations are released, never charged.
        let mut failed: Vec<(usize, String)> = Vec::new();
        let mut orphaned: Vec<(usize, ShardBatch)> = Vec::new();
        for (i, slot) in batches {
            match slot {
                AdvanceSlot::Panicked(msg) => {
                    if !failed.iter().any(|(p, _)| *p == i) {
                        failed.push((i, msg));
                    }
                }
                AdvanceSlot::Batch(batch) => {
                    let batch = batch?;
                    if failed.iter().any(|(p, _)| *p == i) {
                        orphaned.push((i, batch));
                        continue;
                    }
                    for event in batch.events {
                        self.apply(i, event)?;
                    }
                    self.project_mut(i).collector.events += batch.processed;
                }
            }
        }
        for (i, msg) in failed {
            let siblings: Vec<ShardBatch> = orphaned
                .iter_mut()
                .filter(|(p, _)| *p == i)
                .map(|(_, b)| std::mem::take(b))
                .collect();
            self.fail_project(i, format!("shard panicked: {msg}"), siblings)?;
        }
        Ok(())
    }

    /// Contain a mid-run failure to project `i`: void its unmerged
    /// settlements (releasing the broker slots and budget reservations
    /// they held — never charging), cancel its in-flight assignments,
    /// withdraw its quarantine evidence from the shared broker, freeze
    /// its metrics, and record the typed error. Every other tenant keeps
    /// running; the freed capacity slot is refilled from the admission
    /// queue at the end of the round.
    fn fail_project(&mut self, i: usize, reason: String, orphaned: Vec<ShardBatch>) -> Result<()> {
        // Settlements that never merged: sibling shards' returned
        // batches plus whatever the interrupted advance had staged.
        let mut batches = orphaned;
        {
            let p = self.projects[i].as_mut().expect("failing project");
            for shard in &mut p.shards {
                batches.push(shard.drain_staged());
            }
        }
        for batch in batches {
            for event in batch.events {
                match event {
                    ShardEvent::Delivered {
                        annotator, cost, ..
                    }
                    | ShardEvent::Expired {
                        annotator, cost, ..
                    } => {
                        self.broker.release(annotator.index());
                        self.accounts.release(i, cost)?;
                    }
                    ShardEvent::RejectedLate { .. } => {}
                }
            }
        }
        // In-flight assignments: settle them expired, return the slots
        // and reservations.
        let released = {
            let p = self.projects[i].as_mut().expect("failing project");
            let mut released = Vec::new();
            for shard in &mut p.shards {
                released.extend(shard.cancel_in_flight()?);
            }
            released
        };
        for (annotator, cost) in released {
            self.broker.release(annotator.index());
            self.accounts.release(i, cost)?;
        }
        self.broker.clear_project(i);
        let metrics = self.close_metrics(i);
        let p = self.projects[i].as_mut().expect("failing project");
        p.metrics = Some(metrics);
        p.status = ProjectStatus::Failed;
        self.errors[i] = Some(ServiceError::ProjectFailed { project: i, reason });
        obs::counter_add("service.project_failed", 1);
        self.active.retain(|&x| x != i);
        Ok(())
    }

    /// Fail any active project whose scheduled abort time the service
    /// clock has passed.
    fn apply_aborts(&mut self) -> Result<()> {
        let due: Vec<(usize, f64)> = self
            .active
            .iter()
            .filter_map(|&i| {
                self.cfg
                    .serve
                    .faults
                    .abort_at(i)
                    .filter(|&at| at <= self.now.as_f64())
                    .map(|at| (i, at))
            })
            .collect();
        for (i, at) in due {
            self.fail_project(
                i,
                format!("fault plan aborted the project at t={at}"),
                Vec::new(),
            )?;
        }
        Ok(())
    }

    /// Apply one settlement to the shared books, the project state, and
    /// the trace. Called only from the sequential merge.
    fn apply(&mut self, i: usize, event: ShardEvent) -> Result<()> {
        match event {
            ShardEvent::Delivered {
                uid,
                object,
                annotator,
                label,
                latency,
                cost,
                at,
            } => {
                self.accounts.charge(i, cost)?;
                self.broker.release(annotator.index());
                let p = self.projects[i].as_mut().expect("active project");
                Arc::make_mut(&mut p.answers).record(Answer {
                    object,
                    annotator,
                    label,
                })?;
                p.answers_since += 1;
                p.collector.delivered += 1;
                p.collector.latencies.push(latency.as_f64());
                self.trace.push((
                    i,
                    TraceEvent::Delivered {
                        at,
                        id: AssignmentId(uid),
                        label,
                    },
                ));
            }
            ShardEvent::RejectedLate { uid, at } => {
                let p = self.projects[i].as_mut().expect("active project");
                p.collector.rejected += 1;
                self.trace.push((
                    i,
                    TraceEvent::Rejected {
                        at,
                        id: AssignmentId(uid),
                    },
                ));
            }
            ShardEvent::Expired {
                uid,
                object,
                annotator,
                cost,
                at,
            } => {
                self.accounts.release(i, cost)?;
                self.broker.release(annotator.index());
                let serve = &self.cfg.serve;
                let p = self.projects[i].as_mut().expect("active project");
                p.collector.timeouts += 1;
                p.requeues[object.index()] += 1;
                let retries = p.requeues[object.index()];
                let requeued = retries <= serve.max_requeues;
                if requeued {
                    p.collector.requeues += 1;
                    obs::counter_add("retry.count", 1);
                    let delay = serve.supervisor.backoff_delay(retries);
                    if delay > 0.0 {
                        p.backoff_until[object.index()] = at.as_f64() + delay;
                    }
                } else {
                    p.abandoned.insert(object);
                }
                self.trace.push((
                    i,
                    TraceEvent::Expired {
                        at,
                        id: AssignmentId(uid),
                        requeued,
                    },
                ));
            }
        }
        Ok(())
    }

    /// Run truth inference + training for every due project in parallel,
    /// then handle the replies — quarantine evidence, trace, and grant
    /// arbitration — sequentially in `due` order (priority descending,
    /// submission ascending). Returns total assignments dispatched.
    fn refresh_round(&mut self, due: &[usize]) -> Result<usize> {
        if due.is_empty() {
            return Ok(0);
        }
        // One shared snapshot of the pool's free concurrency slots for
        // the whole round: the cores skip exhausted annotators during
        // selection and spread a batch across annotators that can
        // actually take it. The snapshot is read before any of this
        // round's grants, which keeps it identical for every due project
        // regardless of handling order; the broker still arbitrates at
        // grant time, so the snapshot being optimistic across projects
        // costs at most a skipped grant, never an overcommit.
        let slots: Arc<[usize]> = (0..self.broker.annotators())
            .map(|a| self.broker.free_slots(a))
            .collect();
        let mut requests = Vec::with_capacity(due.len());
        for &i in due {
            let p = self.project(i);
            let now = p.watermark();
            requests.push(RefreshRequest {
                answers: Arc::clone(&p.answers),
                view: BudgetView {
                    total: self.accounts.total(i),
                    spent: self.accounts.spent(i),
                    reserved: self.accounts.reserved(i),
                },
                blocked: p.blocked(now),
                slots: Arc::clone(&slots),
                now,
                answers_since: p.answers_since,
            });
        }
        // `due` holds distinct submission indices; each chunk refreshes
        // and trains only its own project's core.
        let mut projects: Vec<Option<&mut Project<'a>>> =
            self.projects.iter_mut().map(Option::as_mut).collect();
        let mut work: Vec<(&mut Project<'a>, Option<Result<RefreshReply>>)> = due
            .iter()
            .map(|&i| (projects[i].take().expect("active project"), None))
            .collect();
        fan_out(&mut work, |k, (p, reply)| {
            *reply = Some(p.core.refresh(&requests[k]).inspect(|_| p.core.train()));
        });
        let replies: Vec<Result<RefreshReply>> = work
            .into_iter()
            .map(|(_, reply)| reply.expect("chunk ran"))
            .collect();
        let mut total_dispatched = 0;
        for ((&i, reply), request) in due.iter().zip(replies).zip(&requests) {
            let reply = reply?;
            let at = request.now;
            {
                let p = self.projects[i].as_mut().expect("active project");
                p.collector.refreshes += 1;
                p.answers_since = 0;
                p.last_refresh = at;
                p.done = reply.done;
                let answers = p.answers.total_answers();
                self.trace.push((
                    i,
                    TraceEvent::Refreshed {
                        at,
                        answers,
                        labelled: reply.labelled,
                    },
                ));
            }
            for q in &reply.quarantine {
                self.broker
                    .note_quarantine(i, q.annotator.index(), q.entered);
                self.trace.push((
                    i,
                    if q.entered {
                        TraceEvent::Quarantined {
                            at,
                            annotator: q.annotator,
                        }
                    } else {
                        TraceEvent::QuarantineReleased {
                            at,
                            annotator: q.annotator,
                        }
                    },
                ));
            }
            let (grants, contended) = self.grant(i, &reply.panels)?;
            let dispatched = self.dispatch(grants)?;
            self.project_mut(i).starved = contended && dispatched == 0;
            total_dispatched += dispatched;
        }
        Ok(total_dispatched)
    }

    /// Retire project `i`: cancel in-flight work (returning its budget
    /// reservations and broker slots), withdraw its quarantine evidence,
    /// run the core's final inference, and freeze its metrics.
    fn finalize(&mut self, i: usize) -> Result<()> {
        let released = {
            let p = self.projects[i].as_mut().expect("active project");
            let mut released = Vec::new();
            for shard in &mut p.shards {
                released.extend(shard.cancel_in_flight()?);
            }
            released
        };
        for (annotator, cost) in released {
            self.broker.release(annotator.index());
            self.accounts.release(i, cost)?;
        }
        self.broker.clear_project(i);
        let spent = self.accounts.spent(i);
        let p = self.projects[i].as_mut().expect("active project");
        let request = FinalizeRequest {
            answers: Arc::clone(&p.answers),
            budget_spent: spent,
        };
        let outcome = p.core.finalize(&request)?;
        let metrics = self.close_metrics(i);
        let p = self.projects[i].as_mut().expect("active project");
        p.outcome = Some(outcome);
        p.metrics = Some(metrics);
        p.status = ProjectStatus::Completed;
        self.active.retain(|&x| x != i);
        Ok(())
    }

    /// Freeze project `i`'s metrics and emit them to the trace under its
    /// scope. Only a one-project run reports wall time per project; a
    /// service's projects share one process, so theirs lives in the
    /// aggregate.
    fn close_metrics(&mut self, i: usize) -> ServiceMetrics {
        let spent = self.accounts.spent(i);
        let wall = match self.entry {
            Entry::Run => self.started.elapsed().as_secs_f64(),
            Entry::Service => 0.0,
        };
        let p = self.projects[i].as_mut().expect("admitted project");
        let duration = p.watermark() - p.started_at;
        let metrics = std::mem::take(&mut p.collector).finish(duration, wall, spent);
        metrics.emit_trace_scoped(&self.entry.scope(i));
        metrics
    }

    /// The round loop (see module docs). Returns `true` if a checkpoint
    /// sink halted the run mid-way.
    fn run(&mut self, sink: &mut Option<CheckpointSink<'_>>) -> Result<bool> {
        self.fill_active()?;
        while !self.active.is_empty() {
            self.rounds += 1;
            let next_event = self
                .active
                .iter()
                .filter_map(|&i| self.project(i).next_event_at())
                .min();
            let had_events = next_event.is_some();
            if let Some(t) = next_event {
                let horizon = SimTime::new(t.as_f64() + self.cfg.epoch)?.max(self.now);
                self.now = horizon;
                self.advance_and_merge(horizon)?;
            }
            if !self.cfg.serve.faults.aborts.is_empty() {
                self.apply_aborts()?;
            }
            let serve = &self.cfg.serve;
            let mut due: Vec<usize> = self
                .active
                .iter()
                .copied()
                .filter(|&i| {
                    let p = self.project(i);
                    // Backpressure: a project over its settlement-backlog
                    // bound must drain before it may dispatch more work.
                    (self.cfg.max_settlement_backlog == 0
                        || p.backlog() <= self.cfg.max_settlement_backlog)
                        && p.refresh_due(serve.answer_watermark, serve.time_watermark)
                })
                .collect();
            due.sort_by(|&a, &b| {
                self.project(b)
                    .priority
                    .cmp(&self.project(a).priority)
                    .then(a.cmp(&b))
            });
            let dispatched = self.refresh_round(&due)?;
            // A project retires when its core says every object is
            // labelled, or when it is fully drained: no pending events,
            // nothing dispatched this round, and not merely starved by
            // pool contention (contended slots belong to in-flight work
            // elsewhere, so time will advance and free them).
            let mut finished: Vec<usize> = self
                .active
                .iter()
                .copied()
                .filter(|&i| {
                    let p = self.project(i);
                    p.done || (p.is_idle() && !p.starved)
                })
                .collect();
            // Stall-breaker: no events anywhere and a full refresh round
            // dispatched nothing — nobody can ever make progress again.
            if !had_events && dispatched == 0 {
                finished = self.active.clone();
            }
            for i in finished {
                if self.active.contains(&i) {
                    self.finalize(i)?;
                }
            }
            self.fill_active()?;
            // Checkpoint cut: end of a round in which some project
            // refreshed, after settlements merged, finished projects
            // finalized, and the queue refilled — nothing is mid-flight,
            // so the snapshot is consistent.
            if due.is_empty() || self.active.is_empty() || self.cfg.serve.checkpoint_every == 0 {
                continue;
            }
            self.refreshes_since_cut += 1;
            if self.refreshes_since_cut < self.cfg.serve.checkpoint_every {
                continue;
            }
            self.refreshes_since_cut = 0;
            if let Some(sink) = sink.as_deref_mut() {
                let t0 = Instant::now();
                let cp = self.checkpoint();
                let prefix = self.entry.prefix();
                obs::counter_add(&format!("{prefix}checkpoint.write"), 1);
                obs::gauge(
                    &format!("{prefix}checkpoint.write_ns"),
                    t0.elapsed().as_nanos() as f64,
                );
                if sink(cp) == RunControl::Halt {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Snapshot the whole engine at the current round boundary.
    fn checkpoint(&self) -> RunCheckpoint {
        let (broker_load, broker_evidence) = self.broker.export();
        let projects = (0..self.specs.len())
            .map(|i| match &self.projects[i] {
                None => ProjectCheckpoint::Rejected,
                Some(p) => match p.status {
                    ProjectStatus::Queued => ProjectCheckpoint::Queued,
                    ProjectStatus::Active => {
                        let mut abandoned: Vec<ObjectId> = p.abandoned.iter().copied().collect();
                        abandoned.sort_by_key(|o| o.index());
                        ProjectCheckpoint::Active(Box::new(ActiveProjectState {
                            core: p.core.export_state(),
                            shards: p.shards.iter().map(Shard::export).collect(),
                            answers: (*p.answers).clone(),
                            answers_since: p.answers_since,
                            last_refresh: p.last_refresh,
                            requeues: p.requeues.clone(),
                            abandoned,
                            backoff_until: p.backoff_until.clone(),
                            collector: p.collector.clone(),
                            started_at: p.started_at,
                            done: p.done,
                            starved: p.starved,
                        }))
                    }
                    ProjectStatus::Completed => ProjectCheckpoint::Completed {
                        outcome: p.outcome.clone().expect("completed project has an outcome"),
                        metrics: p.metrics.clone().expect("completed project has metrics"),
                    },
                    ProjectStatus::Failed => ProjectCheckpoint::Failed {
                        reason: match &self.errors[p.index] {
                            Some(ServiceError::ProjectFailed { reason, .. }) => reason.clone(),
                            _ => "unknown failure".into(),
                        },
                        metrics: p.metrics.clone().expect("failed project has metrics"),
                    },
                    ProjectStatus::Rejected => unreachable!("admitted projects are never Rejected"),
                },
            })
            .collect();
        RunCheckpoint {
            fingerprint: service_fingerprint(self.cfg, self.specs, self.pool),
            annotators: self.pool.len(),
            now: self.now,
            rounds: self.rounds,
            next_uid: self.next_uid,
            queued: self.queued.iter().copied().collect(),
            active: self.active.clone(),
            accounts: self.accounts.export(),
            broker_load,
            broker_evidence,
            trace: self.trace.clone(),
            projects,
        }
    }

    /// Overwrite this freshly-constructed engine with a checkpoint's
    /// state. The fingerprint is verified first (a mismatch is a typed
    /// [`ServiceError::ConfigMismatch`]); queued projects keep the fresh
    /// cores [`new`](Self::new) built from the same submission-order
    /// seeds, active projects get their cores, shards, and scheduling
    /// state rebuilt bit-exactly.
    fn restore(&mut self, cp: RunCheckpoint, capacities: Vec<usize>) -> Result<()> {
        let expected = service_fingerprint(self.cfg, self.specs, self.pool);
        if cp.fingerprint != expected {
            return Err(ServiceError::ConfigMismatch {
                expected,
                actual: cp.fingerprint,
            }
            .into());
        }
        if cp.projects.len() != self.specs.len() || cp.accounts.len() != self.specs.len() {
            return Err(ServiceError::CorruptCheckpoint(format!(
                "checkpoint covers {} projects / {} accounts, expected {}",
                cp.projects.len(),
                cp.accounts.len(),
                self.specs.len()
            ))
            .into());
        }
        if cp.annotators != self.pool.len() {
            return Err(ServiceError::CorruptCheckpoint(format!(
                "checkpoint expects {} annotators, pool has {}",
                cp.annotators,
                self.pool.len()
            ))
            .into());
        }
        self.now = cp.now;
        self.rounds = cp.rounds;
        self.next_uid = cp.next_uid;
        self.queued = cp.queued.into_iter().collect();
        self.active = cp.active;
        self.trace = cp.trace;
        self.accounts = AccountBook::restore(&cp.accounts)?;
        self.broker = PoolBroker::restore(
            capacities,
            self.cfg.shared_evidence_threshold,
            cp.broker_load,
            cp.broker_evidence,
        )?;
        self.check_books(&cp.projects)?;
        let cfg = self.cfg;
        let specs = self.specs;
        let pool = self.pool;
        let next_uid = self.next_uid;
        let mut uids = HashSet::new();
        for (i, pc) in cp.projects.into_iter().enumerate() {
            let admitted = self.projects[i].is_some();
            match pc {
                ProjectCheckpoint::Rejected => {
                    if admitted {
                        return Err(ServiceError::CorruptCheckpoint(format!(
                            "project {i} is rejected in the checkpoint but admitted here"
                        ))
                        .into());
                    }
                }
                ProjectCheckpoint::Queued => {
                    if !admitted {
                        return Err(ServiceError::CorruptCheckpoint(format!(
                            "project {i} is queued in the checkpoint but rejected here"
                        ))
                        .into());
                    }
                }
                ProjectCheckpoint::Active(state) => {
                    let state = *state;
                    let spec = &specs[i];
                    let n = spec.dataset.len();
                    if state.requeues.len() != n
                        || state.backoff_until.len() != n
                        || state.answers.num_objects() != n
                    {
                        return Err(ServiceError::CorruptCheckpoint(format!(
                            "project {i} state is sized for {} objects, its dataset has {n}",
                            state.requeues.len()
                        ))
                        .into());
                    }
                    // Settling such a record would index the broker's
                    // load or the answer set out of bounds mid-run.
                    if let Some(r) = state
                        .shards
                        .iter()
                        .flat_map(|s| &s.records)
                        .find(|r| r.object.0 >= n || r.annotator.0 >= pool.len())
                    {
                        return Err(ServiceError::CorruptCheckpoint(format!(
                            "project {i} ledger record {} asks annotator {} about object {}, \
                             outside its {} annotators and {n} objects",
                            r.id,
                            r.annotator,
                            r.object,
                            pool.len()
                        ))
                        .into());
                    }
                    // A uid names one assignment service-wide (the trace
                    // id and the sampling stream): a repeated one, or one
                    // not issued yet, would report two assignments under
                    // one id.
                    for &uid in state.shards.iter().flat_map(|s| &s.uids) {
                        let fault = if uid >= next_uid {
                            "not issued yet"
                        } else if !uids.insert(uid) {
                            "held twice"
                        } else {
                            continue;
                        };
                        return Err(ServiceError::CorruptCheckpoint(format!(
                            "project {i} assignment uid {uid} is {fault} (next uid {next_uid})"
                        ))
                        .into());
                    }
                    let mut core = AgentCore::restore(
                        spec.config.clone(),
                        &spec.dataset,
                        pool,
                        cfg.serve.quarantine.clone(),
                        state.core,
                    )?;
                    core.set_obs_scope(self.entry.scope(i));
                    let shards = state
                        .shards
                        .into_iter()
                        .map(Shard::restore)
                        .collect::<Result<Vec<_>>>()?;
                    let p = self.projects[i].as_mut().ok_or_else(|| -> Error {
                        ServiceError::CorruptCheckpoint(format!(
                            "project {i} is active in the checkpoint but rejected here"
                        ))
                        .into()
                    })?;
                    p.core = core;
                    p.shards = shards;
                    p.answers = Arc::new(state.answers);
                    p.answers_since = state.answers_since;
                    p.last_refresh = state.last_refresh;
                    p.requeues = state.requeues;
                    p.abandoned = state.abandoned.into_iter().collect();
                    p.backoff_until = state.backoff_until;
                    p.collector = state.collector;
                    p.started_at = state.started_at;
                    p.status = ProjectStatus::Active;
                    p.done = state.done;
                    p.starved = state.starved;
                }
                ProjectCheckpoint::Completed { outcome, metrics } => {
                    let p = self.projects[i].as_mut().ok_or_else(|| -> Error {
                        ServiceError::CorruptCheckpoint(format!(
                            "project {i} is completed in the checkpoint but rejected here"
                        ))
                        .into()
                    })?;
                    p.status = ProjectStatus::Completed;
                    p.done = true;
                    p.outcome = Some(outcome);
                    p.metrics = Some(metrics);
                }
                ProjectCheckpoint::Failed { reason, metrics } => {
                    let p = self.projects[i].as_mut().ok_or_else(|| -> Error {
                        ServiceError::CorruptCheckpoint(format!(
                            "project {i} is failed in the checkpoint but rejected here"
                        ))
                        .into()
                    })?;
                    p.status = ProjectStatus::Failed;
                    p.metrics = Some(metrics);
                    self.errors[i] = Some(ServiceError::ProjectFailed { project: i, reason });
                }
            }
        }
        Ok(())
    }

    /// Check that a restored checkpoint's money and slots add up, as they
    /// do at every cut: each annotator's broker load is its in-flight
    /// assignments across the active projects' ledgers, and each account
    /// reserves its project's in-flight cost (to within the drift of
    /// summing floats in another order) and no more than its total leaves
    /// after spending. A load that does not add up underflows a slot on
    /// release; a reservation that does not is never released.
    fn check_books(&self, projects: &[ProjectCheckpoint]) -> Result<()> {
        const TOLERANCE: f64 = 1e-6;
        let mut load = vec![0usize; self.pool.len()];
        let mut in_flight = vec![0.0f64; projects.len()];
        for (i, pc) in projects.iter().enumerate() {
            let ProjectCheckpoint::Active(state) = pc else {
                continue;
            };
            let records = state.shards.iter().flat_map(|s| &s.records);
            for r in records.filter(|r| r.status == AssignmentStatus::InFlight) {
                // An annotator outside the pool fails the ledger check.
                if let Some(l) = load.get_mut(r.annotator.index()) {
                    *l += 1;
                }
                in_flight[i] += r.cost;
            }
        }
        let corrupt = |what: String| -> Error { ServiceError::CorruptCheckpoint(what).into() };
        if let Some(a) = (0..load.len()).find(|&a| self.broker.load(a) != load[a]) {
            return Err(corrupt(format!(
                "annotator {a} holds {} broker slots for {} in-flight assignments",
                self.broker.load(a),
                load[a]
            )));
        }
        for (i, &cost) in in_flight.iter().enumerate() {
            let reserved = self.accounts.reserved(i);
            let (spent, total) = (self.accounts.spent(i), self.accounts.total(i));
            if (reserved - cost).abs() > TOLERANCE {
                return Err(corrupt(format!(
                    "account {i} reserves {reserved} for {cost} of in-flight cost"
                )));
            }
            if spent + reserved > total + TOLERANCE {
                return Err(corrupt(format!(
                    "account {i} spends {spent} and reserves {reserved} of its {total}"
                )));
            }
        }
        Ok(())
    }

    /// Assemble the reports (submission order), aggregate, and trace.
    fn into_outcome(self) -> ServiceOutcome {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let mut reports = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            match &self.projects[i] {
                None => reports.push(ProjectReport {
                    name: spec.name.clone(),
                    status: ProjectStatus::Rejected,
                    outcome: None,
                    metrics: None,
                    error: self.errors[i].clone(),
                }),
                Some(p) => reports.push(ProjectReport {
                    name: p.name.clone(),
                    status: p.status,
                    outcome: p.outcome.clone(),
                    metrics: p.metrics.clone(),
                    error: self.errors[i].clone(),
                }),
            }
        }
        let completed: Vec<&ProjectReport> = reports
            .iter()
            .filter(|r| r.status == ProjectStatus::Completed)
            .collect();
        let delivered: Vec<usize> = completed
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .map(|m| m.answers_delivered)
            .collect();
        let sum = |f: &dyn Fn(&ServiceMetrics) -> usize| -> usize {
            completed
                .iter()
                .filter_map(|r| r.metrics.as_ref())
                .map(f)
                .sum()
        };
        let answers_delivered = sum(&|m| m.answers_delivered);
        let aggregate = AggregateMetrics {
            admitted: reports
                .iter()
                .filter(|r| r.status != ProjectStatus::Rejected)
                .count(),
            rejected: reports
                .iter()
                .filter(|r| r.status == ProjectStatus::Rejected)
                .count(),
            failed: reports
                .iter()
                .filter(|r| r.status == ProjectStatus::Failed)
                .count(),
            shed: self.shed,
            dispatched: sum(&|m| m.dispatched),
            answers_delivered,
            timeouts: sum(&|m| m.timeouts),
            events_processed: sum(&|m| m.events_processed),
            rounds: self.rounds,
            sim_duration: self.now,
            wall_seconds,
            total_spent: (0..self.specs.len()).map(|i| self.accounts.spent(i)).sum(),
            answers_per_time_unit: if self.now.as_f64() > 0.0 {
                answers_delivered as f64 / self.now.as_f64()
            } else {
                0.0
            },
            fairness_spread: AggregateMetrics::spread(&delivered),
        };
        ServiceOutcome {
            reports,
            trace: self.trace,
            aggregate,
        }
    }
}
