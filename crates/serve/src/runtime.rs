//! The event pump.
//!
//! The pump owns the *service* state — event queue, ledger, budget,
//! answer set, metrics — together with the run's [`AgentCore`]. It moves
//! events, enforces timeouts and exactly-once charging, asks the core for
//! every decision, and samples annotator behaviour through
//! [`sample_outcomes`].
//!
//! [`ExecMode`](crate::ExecMode) is the `crowdrl_linalg::pool` thread cap
//! for the run and nothing else: the pump calls the core on the calling
//! thread in one fixed sequence, and only the pooled sections inside it
//! (matmul row blocks, EM chunks, response sampling) widen. Sampled
//! outcomes are a pure function of the assignment id and every pooled
//! section writes disjoint, pre-indexed slots, so every mode replays the
//! same trace.
//!
//! Three chaos-layer concerns thread through the pump, all default-off:
//! fault injection ([`FaultInjector`]) rewrites sampled outcomes between
//! the sampler and the event queue; the supervisor's retry backoff
//! ([`SupervisorConfig`](crate::supervisor::SupervisorConfig)) keeps
//! timed-out objects out of the candidate set for a while; and the
//! checkpoint hook snapshots the whole run at refresh boundaries so a
//! killed run can [`resume`](AsyncRuntime::resume) bit-identically.

use crate::checkpoint::{PumpCheckpoint, RunCheckpoint};
use crate::clock::EventQueue;
use crate::config::ServeConfig;
use crate::core_loop::{AgentCore, BudgetView, FinalizeRequest, RefreshRequest};
use crate::error::ServeError;
use crate::event::{EventKind, TraceEvent};
use crate::ledger::{AssignmentLedger, Delivery, Expiry};
use crate::metrics::{MetricsCollector, ServiceMetrics};
use crate::sampler::{sample_outcomes, SampleJob};
use crowdrl_core::{CrowdRlConfig, LabellingOutcome};
use crowdrl_obs as obs;
use crowdrl_sim::{AnnotatorDynamics, AnnotatorPool, FaultInjector, FaultRecord};
use crowdrl_types::{
    AnnotatorId, Answer, AnswerSet, Budget, ClassId, Dataset, Error, ObjectId, Result, SimTime,
};
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct AsyncOutcome {
    /// The labelling result, shaped exactly like the batch workflow's.
    pub outcome: LabellingOutcome,
    /// Service-level metrics.
    pub metrics: ServiceMetrics,
    /// The deterministic event trace.
    pub trace: Vec<TraceEvent>,
}

/// What a checkpoint sink tells the runtime to do after each snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep running.
    Continue,
    /// Stop here; the run ends as [`RunOutcome::Halted`]. The checkpoint
    /// just handed to the sink resumes the run exactly where it stopped.
    Halt,
}

/// How a checkpoint-aware run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished normally.
    Completed(Box<AsyncOutcome>),
    /// A checkpoint sink requested a halt mid-run.
    Halted,
}

/// Receives each checkpoint and decides whether the run continues.
pub type CheckpointSink<'s> = &'s mut dyn FnMut(RunCheckpoint) -> RunControl;

/// Build the fault injector a config calls for (None when the plan is a
/// no-op, so the fault-free fast path stays branch-cheap).
fn build_injector(serve: &ServeConfig, dataset: &Dataset) -> Result<Option<FaultInjector>> {
    if serve.faults.is_noop() {
        Ok(None)
    } else {
        Ok(Some(FaultInjector::new(
            serve.faults.clone(),
            dataset.num_classes(),
        )?))
    }
}

/// Bump the `fault.injected.*` trace counters for one injected outcome.
fn count_faults(faults: &FaultRecord) {
    if faults.is_clean() {
        return;
    }
    if faults.no_show {
        obs::counter_add("fault.injected.no_show", 1);
    }
    if faults.abandoned {
        obs::counter_add("fault.injected.abandon", 1);
    }
    if faults.straggler {
        obs::counter_add("fault.injected.straggler", 1);
    }
    if faults.outage {
        obs::counter_add("fault.injected.outage", 1);
    }
    if faults.duplicate {
        obs::counter_add("fault.injected.duplicate", 1);
    }
    if faults.drifted {
        obs::counter_add("fault.injected.drift", 1);
    }
}

/// The service state the pump owns while a run is in progress.
struct Pump<'a> {
    dataset: &'a Dataset,
    pool: &'a AnnotatorPool,
    serve: &'a ServeConfig,
    /// The learning agent: inference, DQN selection and training.
    core: AgentCore<'a>,
    /// Per-annotator latency/availability the sampler draws from.
    dynamics: Vec<AnnotatorDynamics>,
    /// Config fingerprint stamped into every checkpoint.
    fingerprint: u64,
    injector: Option<FaultInjector>,
    queue: EventQueue,
    ledger: AssignmentLedger,
    budget: Budget,
    /// Shared with the core during each refresh (cheap `Arc` clone); the
    /// pump mutates through `Arc::make_mut`, which stays in-place once
    /// the core has dropped its copy.
    answers: Arc<AnswerSet>,
    collector: MetricsCollector,
    trace: Vec<TraceEvent>,
    /// Sampled label per assignment id (None = the annotator dropped it).
    labels_by_id: Vec<Option<ClassId>>,
    requeue_count: Vec<usize>,
    abandoned: HashSet<ObjectId>,
    /// Per-object supervisor backoff deadline (absolute sim time); an
    /// object is withheld from refreshes until its deadline passes.
    backoff_until: Vec<f64>,
    answers_since: usize,
    last_refresh: SimTime,
    /// Refreshes since the last checkpoint was cut.
    refreshes_since_ckpt: usize,
    done: bool,
}

impl<'a> Pump<'a> {
    fn new(
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        serve: &'a ServeConfig,
        core: AgentCore<'a>,
        dynamics: Vec<AnnotatorDynamics>,
        budget: f64,
        fingerprint: u64,
    ) -> Result<Self> {
        Ok(Self {
            dataset,
            pool,
            serve,
            core,
            dynamics,
            fingerprint,
            injector: build_injector(serve, dataset)?,
            queue: EventQueue::new(),
            ledger: AssignmentLedger::new(),
            budget: Budget::new(budget)?,
            answers: Arc::new(AnswerSet::new(dataset.len())),
            collector: MetricsCollector::new(),
            trace: Vec::new(),
            labels_by_id: Vec::new(),
            requeue_count: vec![0; dataset.len()],
            abandoned: HashSet::new(),
            backoff_until: vec![0.0; dataset.len()],
            answers_since: 0,
            last_refresh: SimTime::ZERO,
            refreshes_since_ckpt: 0,
            done: false,
        })
    }

    /// Rebuild a pump mid-run from a checkpoint. Everything derivable
    /// (ledger reservations, pair claims) is re-derived and validated;
    /// everything order-dependent (budget float sum, event sequence
    /// numbers) is restored bit-exactly.
    fn restore(
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        serve: &'a ServeConfig,
        core: AgentCore<'a>,
        dynamics: Vec<AnnotatorDynamics>,
        fingerprint: u64,
        state: PumpCheckpoint,
    ) -> Result<Self> {
        if state.requeue_count.len() != dataset.len()
            || state.backoff_until.len() != dataset.len()
            || state.answers.num_objects() != dataset.len()
        {
            return Err(ServeError::CorruptCheckpoint(format!(
                "pump state sized for {} objects, dataset has {}",
                state.requeue_count.len(),
                dataset.len()
            ))
            .into());
        }
        if state.labels_by_id.len() != state.records.len() {
            return Err(ServeError::CorruptCheckpoint(format!(
                "{} sampled labels for {} ledger records",
                state.labels_by_id.len(),
                state.records.len()
            ))
            .into());
        }
        let collector = MetricsCollector {
            latencies: state.latencies,
            dispatched: state.dispatched,
            delivered: state.delivered,
            rejected: state.rejected,
            timeouts: state.timeouts,
            requeues: state.requeues,
            refreshes: state.refreshes,
            events: state.events_processed,
        };
        Ok(Self {
            dataset,
            pool,
            serve,
            core,
            dynamics,
            fingerprint,
            injector: build_injector(serve, dataset)?,
            queue: EventQueue::restore(state.now, state.next_seq, state.events)?,
            ledger: AssignmentLedger::restore(state.records)?,
            budget: Budget::restore(state.budget_total, state.budget_spent, state.budget_charges)?,
            answers: Arc::new(state.answers),
            collector,
            trace: state.trace,
            labels_by_id: state.labels_by_id,
            requeue_count: state.requeue_count,
            abandoned: state.abandoned.into_iter().collect(),
            backoff_until: state.backoff_until,
            answers_since: state.answers_since,
            last_refresh: state.last_refresh,
            refreshes_since_ckpt: 0,
            done: false,
        })
    }

    /// Snapshot the pump's complete service state.
    fn export_state(&self) -> PumpCheckpoint {
        let (now, next_seq, events) = self.queue.snapshot();
        let mut abandoned: Vec<ObjectId> = self.abandoned.iter().copied().collect();
        abandoned.sort();
        PumpCheckpoint {
            now,
            next_seq,
            events,
            records: self.ledger.records().to_vec(),
            budget_total: self.budget.total(),
            budget_spent: self.budget.spent(),
            budget_charges: self.budget.charge_count(),
            answers: (*self.answers).clone(),
            latencies: self.collector.latencies.clone(),
            dispatched: self.collector.dispatched,
            delivered: self.collector.delivered,
            rejected: self.collector.rejected,
            timeouts: self.collector.timeouts,
            requeues: self.collector.requeues,
            refreshes: self.collector.refreshes,
            events_processed: self.collector.events,
            trace: self.trace.clone(),
            labels_by_id: self.labels_by_id.clone(),
            requeue_count: self.requeue_count.clone(),
            abandoned,
            backoff_until: self.backoff_until.clone(),
            answers_since: self.answers_since,
            last_refresh: self.last_refresh,
        }
    }

    /// Dispatch panels: reserve, sample, and schedule Deliver/Expire
    /// events. Returns how many assignments actually went out.
    fn dispatch(&mut self, panels: &[(ObjectId, Vec<AnnotatorId>)]) -> Result<usize> {
        let now = self.queue.now();
        let timeout = SimTime::new(self.serve.timeout)?;
        let mut jobs = Vec::new();
        for (object, annotators) in panels {
            for &annotator in annotators {
                let cost = self.pool.profile(annotator).cost;
                if self.ledger.pair_claimed(*object, annotator)
                    || !self.ledger.can_reserve(cost, &self.budget)
                {
                    continue;
                }
                let id = self.ledger.dispatch(
                    *object,
                    annotator,
                    cost,
                    now,
                    now + timeout,
                    &self.budget,
                )?;
                jobs.push(SampleJob {
                    id,
                    object: *object,
                    annotator,
                    truth: self.dataset.truth(object.index()),
                });
                self.trace.push(TraceEvent::Dispatched {
                    at: now,
                    id,
                    object: *object,
                    annotator,
                });
            }
        }
        let dispatched = jobs.len();
        self.collector.dispatched += dispatched;
        let sample_span = obs::span("serve.sample");
        let outcomes = sample_outcomes(self.serve.sampling_seed, &jobs, self.pool, &self.dynamics);
        drop(sample_span);
        for outcome in outcomes {
            debug_assert_eq!(outcome.id.0 as usize, self.labels_by_id.len());
            let (response, duplicate_at) = match &self.injector {
                Some(injector) => {
                    let annotator = self
                        .ledger
                        .record(outcome.id)
                        .ok_or(ServeError::UnknownAssignment(outcome.id))?
                        .annotator;
                    let injected = injector.apply(
                        outcome.id,
                        annotator,
                        now,
                        self.serve.timeout,
                        outcome.response,
                    );
                    count_faults(&injected.faults);
                    (injected.response, injected.duplicate_at)
                }
                None => (outcome.response, None),
            };
            match response {
                Some((label, latency)) => {
                    self.labels_by_id.push(Some(label));
                    self.queue
                        .push(now + latency, EventKind::Deliver(outcome.id))?;
                }
                None => self.labels_by_id.push(None),
            }
            if let Some(at) = duplicate_at {
                // The duplicate copy replays the same assignment id; the
                // ledger's exactly-once rule rejects it on arrival.
                self.queue.push(at, EventKind::Deliver(outcome.id))?;
            }
            self.queue
                .push(now + timeout, EventKind::Expire(outcome.id))?;
        }
        Ok(dispatched)
    }

    /// Run a refresh and dispatch its panels.
    fn refresh(&mut self) -> Result<usize> {
        let now = self.queue.now();
        let mut blocked = self.ledger.objects_in_flight();
        blocked.extend(self.abandoned.iter().copied());
        if self.serve.supervisor.backoff_base > 0.0 {
            let now_f = now.as_f64();
            blocked.extend(
                self.backoff_until
                    .iter()
                    .enumerate()
                    .filter(|&(_, &until)| until > now_f)
                    .map(|(i, _)| ObjectId(i)),
            );
        }
        let reply = self.core.refresh(&RefreshRequest {
            answers: Arc::clone(&self.answers),
            view: BudgetView {
                total: self.budget.total(),
                spent: self.budget.spent(),
                reserved: self.ledger.reserved(),
            },
            blocked,
            // The single-run pump places no per-annotator concurrency
            // caps — slot accounting is a shared-pool concern.
            slots: None,
            now,
            answers_since: self.answers_since,
        })?;
        self.collector.refreshes += 1;
        self.answers_since = 0;
        self.last_refresh = now;
        self.trace.push(TraceEvent::Refreshed {
            at: now,
            answers: self.answers.total_answers(),
            labelled: reply.labelled,
        });
        for ev in &reply.quarantine {
            self.trace.push(if ev.entered {
                TraceEvent::Quarantined {
                    at: now,
                    annotator: ev.annotator,
                }
            } else {
                TraceEvent::QuarantineReleased {
                    at: now,
                    annotator: ev.annotator,
                }
            });
        }
        let dispatched = self.dispatch(&reply.panels)?;
        self.core.train();
        if reply.done {
            self.done = true;
        }
        Ok(dispatched)
    }

    /// Handle one event.
    fn handle(&mut self, kind: EventKind) -> Result<()> {
        let now = self.queue.now();
        self.collector.events += 1;
        match kind {
            EventKind::Deliver(id) => match self.ledger.deliver(id, now, &mut self.budget)? {
                Delivery::Accepted { latency, .. } => {
                    let record = self
                        .ledger
                        .record(id)
                        .ok_or(ServeError::UnknownAssignment(id))?;
                    let label = self
                        .labels_by_id
                        .get(id.0 as usize)
                        .copied()
                        .flatten()
                        .ok_or(ServeError::MissingLabel(id))?;
                    Arc::make_mut(&mut self.answers).record(Answer {
                        object: record.object,
                        annotator: record.annotator,
                        label,
                    })?;
                    self.collector.delivered += 1;
                    self.collector.latencies.push(latency.as_f64());
                    self.answers_since += 1;
                    self.trace
                        .push(TraceEvent::Delivered { at: now, id, label });
                }
                Delivery::Rejected => {
                    self.collector.rejected += 1;
                    self.trace.push(TraceEvent::Rejected { at: now, id });
                }
            },
            EventKind::Expire(id) => match self.ledger.expire(id)? {
                Expiry::TimedOut { .. } => {
                    let record = self
                        .ledger
                        .record(id)
                        .ok_or(ServeError::UnknownAssignment(id))?;
                    let object = record.object;
                    self.collector.timeouts += 1;
                    let len = self.requeue_count.len();
                    let count = self
                        .requeue_count
                        .get_mut(object.index())
                        .ok_or(ServeError::ObjectOutOfRange { object, len })?;
                    *count += 1;
                    let retries = *count;
                    let requeued = retries <= self.serve.max_requeues;
                    if requeued {
                        self.collector.requeues += 1;
                        obs::counter_add("retry.count", 1);
                        let delay = self.serve.supervisor.backoff_delay(retries);
                        if delay > 0.0 {
                            self.backoff_until[object.index()] = now.as_f64() + delay;
                        }
                    } else {
                        self.abandoned.insert(object);
                    }
                    self.trace.push(TraceEvent::Expired {
                        at: now,
                        id,
                        requeued,
                    });
                }
                Expiry::AlreadySettled => {}
            },
        }
        Ok(())
    }

    /// Whether a watermark has tripped since the last refresh.
    fn watermark_due(&self) -> bool {
        self.answers_since >= self.serve.answer_watermark
            || (self.answers_since > 0
                && (self.queue.now() - self.last_refresh).as_f64() >= self.serve.time_watermark)
    }

    /// Cut a checkpoint if one is due. Returns true when the sink asked
    /// the run to halt.
    fn maybe_checkpoint(&mut self, sink: CheckpointSink<'_>) -> Result<bool> {
        if self.serve.checkpoint_every == 0 {
            return Ok(false);
        }
        self.refreshes_since_ckpt += 1;
        if self.refreshes_since_ckpt < self.serve.checkpoint_every {
            return Ok(false);
        }
        self.refreshes_since_ckpt = 0;
        let write_start = Instant::now();
        let checkpoint = RunCheckpoint {
            fingerprint: self.fingerprint,
            objects: self.dataset.len(),
            annotators: self.pool.len(),
            pump: self.export_state(),
            core: self.core.export_state(),
        };
        obs::counter_add("checkpoint.write", 1);
        obs::gauge(
            "checkpoint.write_ns",
            write_start.elapsed().as_nanos() as f64,
        );
        Ok(sink(checkpoint) == RunControl::Halt)
    }

    /// The main loop: dispatch the initial panels at t = 0 (fresh runs
    /// only — resumes enter mid-stream), pump events, refresh on
    /// watermarks, and when the queue drains force a refresh to flush
    /// leftovers — stopping once a forced refresh dispatches nothing (or
    /// the agent reports done). Checkpoints are cut only *after* a
    /// refresh that keeps the run going, so every checkpoint resumes into
    /// the same loop position.
    fn run(
        mut self,
        initial: Option<&[(ObjectId, Vec<AnnotatorId>)]>,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        if let Some(initial) = initial {
            self.dispatch(initial)?;
        }
        let wall_start = Instant::now();
        'outer: loop {
            while let Some(event) = self.queue.pop() {
                self.handle(event.kind)?;
                if self.watermark_due() {
                    self.refresh()?;
                    if self.done {
                        break 'outer;
                    }
                    if self.maybe_checkpoint(sink)? {
                        return Ok(RunOutcome::Halted);
                    }
                }
            }
            let dispatched = self.refresh()?;
            if self.done || dispatched == 0 {
                break;
            }
            if self.maybe_checkpoint(sink)? {
                return Ok(RunOutcome::Halted);
            }
        }
        let outcome = self.core.finalize(&FinalizeRequest {
            answers: Arc::clone(&self.answers),
            budget_spent: self.budget.spent(),
        })?;
        let metrics = self.collector.finish(
            self.queue.now(),
            wall_start.elapsed().as_secs_f64(),
            self.budget.spent(),
        );
        Ok(RunOutcome::Completed(Box::new(AsyncOutcome {
            outcome,
            metrics,
            trace: self.trace,
        })))
    }
}

/// The asynchronous labelling runtime.
#[derive(Debug, Clone)]
pub struct AsyncRuntime {
    config: CrowdRlConfig,
    serve: ServeConfig,
}

impl AsyncRuntime {
    /// Pair a CrowdRL configuration with the service knobs.
    pub fn new(config: CrowdRlConfig, serve: ServeConfig) -> Self {
        Self { config, serve }
    }

    /// Label `dataset` with `pool` through the asynchronous service.
    ///
    /// `rng` seeds the per-annotator dynamics, the initial panels and the
    /// agent's private stream; annotator responses come from the
    /// per-assignment streams of
    /// [`sampling_seed`](ServeConfig::sampling_seed). Two calls with the
    /// same seeds produce identical traces and outcomes in *either*
    /// execution mode.
    pub fn run<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<AsyncOutcome> {
        match self.launch(dataset, pool, rng, None, &mut |_| RunControl::Continue)? {
            RunOutcome::Completed(outcome) => Ok(*outcome),
            RunOutcome::Halted => Err(Error::ServiceFailure(
                "run halted although no sink requested it".into(),
            )),
        }
    }

    /// Like [`run`](Self::run), but hands every due checkpoint (see
    /// [`ServeConfig::checkpoint_every`]) to `sink`, which may halt the
    /// run. Feeding a halted run's last checkpoint to
    /// [`resume`](Self::resume) continues it bit-identically.
    pub fn run_with_checkpoints<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.launch(dataset, pool, rng, None, sink)
    }

    /// Continue a run from `checkpoint`. The caller must pass the same
    /// dataset, pool and an identically-seeded `rng` as the original run
    /// — the config fingerprint and state shapes are verified, and the
    /// resumed run replays the uninterrupted run's remaining trace bit
    /// for bit. `sink` works exactly as in
    /// [`run_with_checkpoints`](Self::run_with_checkpoints).
    pub fn resume<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: RunCheckpoint,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.launch(dataset, pool, rng, Some(checkpoint), sink)
    }

    /// Shared entry point: validate, then build or restore the pump and
    /// run it with the pool capped at the execution mode's width.
    fn launch<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: Option<RunCheckpoint>,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.config.validate()?;
        self.serve.validate()?;
        if pool.is_empty() {
            return Err(Error::InvalidParameter("annotator pool is empty".into()));
        }
        crowdrl_linalg::pool::with_threads(self.serve.mode.threads(), || {
            self.drive(dataset, pool, rng, checkpoint, sink)
        })
    }

    fn drive<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: Option<RunCheckpoint>,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        obs::init_from_env();
        let run_span = obs::span("serve.run");
        if obs::enabled() {
            // Which numeric floor this run can dispatch to (the kernels
            // actually used depend on the config's numeric mode).
            obs::annotate("simd.kernel", crowdrl_linalg::simd::kernel_name());
            obs::gauge("simd.lanes", crowdrl_linalg::simd::lanes() as f64);
        }
        // Consumed in both paths so a resume's rng stream lines up with
        // the original run's (dynamics draw + core-seed draw).
        let dynamics = self.serve.dynamics.generate(pool, rng)?;
        let core_seed: u64 = rng.random();
        let fingerprint = self.config.fingerprint();

        let (pump, initial) = match checkpoint {
            None => {
                let mut core = AgentCore::new(
                    self.config.clone(),
                    dataset,
                    pool,
                    core_seed,
                    self.serve.quarantine.clone(),
                )?;
                let initial = core.initial_panels();
                let pump = Pump::new(
                    dataset,
                    pool,
                    &self.serve,
                    core,
                    dynamics,
                    self.config.budget,
                    fingerprint,
                )?;
                (pump, Some(initial))
            }
            Some(ckpt) => {
                if ckpt.fingerprint != fingerprint {
                    return Err(ServeError::ConfigMismatch {
                        expected: fingerprint,
                        actual: ckpt.fingerprint,
                    }
                    .into());
                }
                if ckpt.objects != dataset.len() || ckpt.annotators != pool.len() {
                    return Err(ServeError::CorruptCheckpoint(format!(
                        "checkpoint is for {} objects / {} annotators, run has {} / {}",
                        ckpt.objects,
                        ckpt.annotators,
                        dataset.len(),
                        pool.len()
                    ))
                    .into());
                }
                let restore_start = Instant::now();
                let core = AgentCore::restore(
                    self.config.clone(),
                    dataset,
                    pool,
                    self.serve.quarantine.clone(),
                    ckpt.core,
                )?;
                let pump = Pump::restore(
                    dataset,
                    pool,
                    &self.serve,
                    core,
                    dynamics,
                    fingerprint,
                    ckpt.pump,
                )?;
                obs::counter_add("checkpoint.restore", 1);
                obs::gauge(
                    "checkpoint.restore_ns",
                    restore_start.elapsed().as_nanos() as f64,
                );
                // A restored run re-enters the pump loop directly: the
                // initial panels were dispatched before the checkpoint.
                (pump, None)
            }
        };

        let result = pump.run(initial.as_deref(), sink);
        drop(run_span);
        if let Ok(RunOutcome::Completed(outcome)) = &result {
            outcome.metrics.emit_trace();
            obs::checkpoint();
        }
        result
    }
}
