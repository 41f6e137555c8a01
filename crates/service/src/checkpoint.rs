//! Crash-consistent service checkpoints.
//!
//! A [`ServiceCheckpoint`] is the whole multi-tenant engine frozen at a
//! round boundary: every project's shard states and agent core, the
//! shared [`AccountBook`](crowdrl_serve::AccountBook), the
//! [`PoolBroker`](crate::PoolBroker)'s load and quarantine evidence, the
//! admission queue, and the merged trace. The cut happens *after* the
//! round's settlements merged and finished projects finalized — nothing
//! is mid-flight, so a killed service resumed from the snapshot replays
//! the remaining rounds bit-identically to an uninterrupted run, in
//! either [`ExecMode`].
//!
//! The wire format reuses `crowdrl-serve`'s checkpoint codec: one
//! deterministic JSON document, `f64`s as 16-hex-digit IEEE-754 bit
//! patterns (resume must not round-trip money or clocks through decimal
//! text), objects in `BTreeMap` key order so the same checkpoint always
//! renders the same bytes.
//!
//! Restore is guarded by [`service_fingerprint`]: an FNV-1a hash of the
//! service configuration and every submitted spec, with the
//! observationally-neutral knobs canonicalized out first — [`ExecMode`]
//! (checkpoints cross SingleThread↔WorkerPool), the service-wide
//! [`DecideMode`](crowdrl_core::DecideMode) override (scoring strategy
//! never changes selections), and the checkpoint cadence
//! itself. A mismatch is a typed
//! [`ServiceError::ConfigMismatch`](crate::ServiceError), not a silent
//! divergence.
//!
//! [`ExecMode`]: crowdrl_serve::ExecMode

use crate::config::{ProjectSpec, ServiceConfig};
use crate::error::ServiceError;
use crowdrl_core::outcome::LabellingOutcome;
use crowdrl_obs::json::{parse, Value};
use crowdrl_serve::checkpoint as codec;
use crowdrl_serve::core_loop::CoreState;
use crowdrl_serve::{AccountState, AssignmentRecord, Event, ExecMode, ServiceMetrics, TraceEvent};
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{AnswerSet, ClassId, ObjectId, Result, SimTime};

/// Format version stamped into every service checkpoint.
const VERSION: u64 = 1;

/// One shard frozen at a round boundary: its event queue, ledger slice,
/// uid/label mappings, and merge frontier.
#[derive(Debug, Clone)]
pub struct ShardState {
    /// The shard clock (event-queue `now`).
    pub now: SimTime,
    /// Event-queue sequence counter.
    pub next_seq: u64,
    /// Pending events in deterministic (pop) order.
    pub events: Vec<Event>,
    /// Every ledger record this shard ever issued, in local-id order.
    pub records: Vec<AssignmentRecord>,
    /// Shard-local assignment id → service-wide uid.
    pub uids: Vec<u64>,
    /// Shard-local assignment id → sampled label (`None` = dropped).
    pub labels: Vec<Option<ClassId>>,
    /// The horizon the shard was last advanced to.
    pub frontier: SimTime,
}

/// The raw metrics counters of one running project (the
/// [`MetricsCollector`](crowdrl_serve::MetricsCollector) fields,
/// bit-exact).
#[derive(Debug, Clone, Default)]
pub struct CollectorState {
    /// Delivered-answer latencies in arrival order.
    pub latencies: Vec<f64>,
    /// Questions dispatched.
    pub dispatched: usize,
    /// Answers delivered.
    pub delivered: usize,
    /// Answers rejected late.
    pub rejected: usize,
    /// Timeouts fired.
    pub timeouts: usize,
    /// Objects requeued.
    pub requeues: usize,
    /// Refreshes run.
    pub refreshes: usize,
    /// Events processed.
    pub events: usize,
}

/// Everything a running project carries: the agent core's learning
/// state plus the service-side scheduling state around it.
#[derive(Debug, Clone)]
pub struct ActiveProjectState {
    /// The agent core (classifier, DQN, label states, qualities).
    pub core: CoreState,
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ShardState>,
    /// Merged answers across shards, in merge order.
    pub answers: AnswerSet,
    /// Answers merged since the last refresh.
    pub answers_since: usize,
    /// When the last refresh ran.
    pub last_refresh: SimTime,
    /// Per-object requeue counts.
    pub requeues: Vec<usize>,
    /// Objects that exhausted their requeue allowance, ascending.
    pub abandoned: Vec<ObjectId>,
    /// Raw metrics counters.
    pub collector: CollectorState,
    /// When the project activated.
    pub started_at: SimTime,
    /// The core reported all objects labelled.
    pub done: bool,
    /// The last dispatch round was starved by pool contention.
    pub starved: bool,
}

/// One submitted project's state inside a [`ServiceCheckpoint`], tagged
/// by lifecycle stage. `Rejected` and `Queued` carry nothing — both are
/// reconstructed deterministically from the restoring config and spec.
#[derive(Debug, Clone)]
pub enum ProjectCheckpoint {
    /// Refused at admission (policy `Reject`, or shed).
    Rejected,
    /// Waiting for a capacity slot; its fresh core is rebuilt at restore
    /// from the same submission-order seed the original run drew.
    Queued,
    /// Running — the full live state.
    Active(Box<ActiveProjectState>),
    /// Finished; frozen outcome and metrics.
    Completed {
        /// The final labelling outcome.
        outcome: LabellingOutcome,
        /// The final per-project metrics.
        metrics: ServiceMetrics,
    },
    /// Failed mid-run and isolated; frozen metrics plus the reason.
    Failed {
        /// The panic payload or abort reason.
        reason: String,
        /// The metrics accumulated before the failure.
        metrics: ServiceMetrics,
    },
}

/// The whole multi-tenant engine at one consistent round boundary.
#[derive(Debug, Clone)]
pub struct ServiceCheckpoint {
    /// [`service_fingerprint`] of the config + specs that produced this
    /// run; restore refuses a mismatch with a typed error.
    pub fingerprint: u64,
    /// Annotator-pool size the run was started with.
    pub annotators: usize,
    /// The service clock.
    pub now: SimTime,
    /// Scheduling rounds completed.
    pub rounds: usize,
    /// Service-wide assignment counter.
    pub next_uid: u64,
    /// Submission indices still waiting for a slot, FIFO order.
    pub queued: Vec<usize>,
    /// Submission indices of running projects, ascending.
    pub active: Vec<usize>,
    /// Every account's budget state, dense by submission index.
    pub accounts: Vec<AccountState>,
    /// Broker per-annotator in-flight load.
    pub broker_load: Vec<usize>,
    /// Broker per-annotator quarantine evidence (project indices,
    /// ascending).
    pub broker_evidence: Vec<Vec<usize>>,
    /// The merged service trace so far, `(project, event)` pairs.
    pub trace: Vec<(usize, TraceEvent)>,
    /// One entry per submitted project, in submission order.
    pub projects: Vec<ProjectCheckpoint>,
}

impl ServiceCheckpoint {
    /// Serialize to a single deterministic JSON document: the same
    /// checkpoint always renders the same bytes.
    pub fn encode(&self) -> String {
        codec::obj([
            ("version", Value::Num(VERSION as f64)),
            ("fingerprint", codec::hex_u64(self.fingerprint)),
            ("annotators", codec::num(self.annotators)),
            ("now", codec::bits_f64(self.now.as_f64())),
            ("rounds", codec::num(self.rounds)),
            ("next_uid", codec::hex_u64(self.next_uid)),
            ("queued", usizes(&self.queued)),
            ("active", usizes(&self.active)),
            (
                "accounts",
                Value::Arr(self.accounts.iter().map(enc_account).collect()),
            ),
            ("broker_load", usizes(&self.broker_load)),
            (
                "broker_evidence",
                Value::Arr(self.broker_evidence.iter().map(|e| usizes(e)).collect()),
            ),
            (
                "trace",
                Value::Arr(self.trace.iter().map(enc_traced).collect()),
            ),
            (
                "projects",
                Value::Arr(self.projects.iter().map(enc_project).collect()),
            ),
        ])
        .render()
    }

    /// Parse a document produced by [`encode`](Self::encode). Anything
    /// malformed — bad JSON, wrong version, missing fields, inconsistent
    /// shapes — is a typed
    /// [`ServiceError::CorruptCheckpoint`](crate::ServiceError).
    pub fn decode(text: &str) -> Result<Self> {
        let v = parse(text).map_err(|e| corrupt(format!("bad JSON: {e}")))?;
        let version = codec::get_u64_plain(&v, "version")?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported service checkpoint version {version} (expected {VERSION})"
            )));
        }
        let accounts = codec::get_arr(&v, "accounts")?
            .iter()
            .map(dec_account)
            .collect::<Result<Vec<_>>>()?;
        let broker_evidence = codec::get_arr(&v, "broker_evidence")?
            .iter()
            .map(|e| dec_usizes(e, "broker_evidence"))
            .collect::<Result<Vec<_>>>()?;
        let trace = codec::get_arr(&v, "trace")?
            .iter()
            .map(dec_traced)
            .collect::<Result<Vec<_>>>()?;
        let projects = codec::get_arr(&v, "projects")?
            .iter()
            .map(dec_project)
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            fingerprint: codec::get_hex_u64(&v, "fingerprint")?,
            annotators: codec::get_usize(&v, "annotators")?,
            now: codec::get_sim_time(&v, "now")?,
            rounds: codec::get_usize(&v, "rounds")?,
            next_uid: codec::get_hex_u64(&v, "next_uid")?,
            queued: codec::arr_usize(&v, "queued")?,
            active: codec::arr_usize(&v, "active")?,
            accounts,
            broker_load: codec::arr_usize(&v, "broker_load")?,
            broker_evidence,
            trace,
            projects,
        })
    }
}

/// FNV-1a fingerprint of everything that must match for a checkpoint to
/// resume: the service config with its observationally-neutral knobs
/// canonicalized out (exec mode, the checkpoint cadence), the pool size,
/// and each spec's name, priority, config fingerprint (which canonicalizes
/// the project's decide mode) and dataset shape.
pub fn service_fingerprint(
    cfg: &ServiceConfig,
    specs: &[ProjectSpec],
    pool: &AnnotatorPool,
) -> u64 {
    let mut canonical = cfg.clone();
    canonical.mode = ExecMode::SingleThread;
    canonical.checkpoint_every_rounds = 0;
    let mut h = Fnv::new();
    h.write(format!("{canonical:?}").as_bytes());
    h.write(&(pool.len() as u64).to_le_bytes());
    for spec in specs {
        h.write(spec.name.as_bytes());
        h.write(&spec.priority.to_le_bytes());
        h.write(&spec.config.fingerprint().to_le_bytes());
        h.write(&(spec.dataset.len() as u64).to_le_bytes());
        h.write(&(spec.dataset.num_classes() as u64).to_le_bytes());
    }
    h.0
}

/// Incremental FNV-1a over raw bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn corrupt(msg: impl Into<String>) -> crowdrl_types::Error {
    ServiceError::CorruptCheckpoint(msg.into()).into()
}

fn usizes(xs: &[usize]) -> Value {
    Value::Arr(xs.iter().map(|&x| codec::num(x)).collect())
}

fn dec_usizes(v: &Value, what: &str) -> Result<Vec<usize>> {
    let Value::Arr(items) = v else {
        return Err(corrupt(format!("{what} is not an array")));
    };
    items
        .iter()
        .enumerate()
        .map(|(i, x)| match x {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            _ => Err(corrupt(format!("{what}[{i}] is not a count"))),
        })
        .collect()
}

fn enc_account(a: &AccountState) -> Value {
    codec::obj([
        ("total", codec::bits_f64(a.total)),
        ("spent", codec::bits_f64(a.spent)),
        ("charges", codec::num(a.charges)),
        ("reserved", codec::bits_f64(a.reserved)),
    ])
}

fn dec_account(v: &Value) -> Result<AccountState> {
    Ok(AccountState {
        total: codec::get_f64_bits(v, "total")?,
        spent: codec::get_f64_bits(v, "spent")?,
        charges: codec::get_usize(v, "charges")?,
        reserved: codec::get_f64_bits(v, "reserved")?,
    })
}

fn enc_traced(entry: &(usize, TraceEvent)) -> Value {
    codec::obj([
        ("p", codec::num(entry.0)),
        ("e", codec::enc_trace_event(&entry.1)),
    ])
}

fn dec_traced(v: &Value) -> Result<(usize, TraceEvent)> {
    Ok((
        codec::get_usize(v, "p")?,
        codec::dec_trace_event(codec::field(v, "e")?)?,
    ))
}

fn enc_labels(labels: &[Option<ClassId>]) -> Value {
    Value::Arr(
        labels
            .iter()
            .map(|l| codec::opt(*l, |c| codec::num(c.0)))
            .collect(),
    )
}

fn dec_labels(v: &Value, key: &str) -> Result<Vec<Option<ClassId>>> {
    codec::get_arr(v, key)?
        .iter()
        .enumerate()
        .map(|(i, x)| match x {
            Value::Null => Ok(None),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(ClassId(*n as usize))),
            _ => Err(corrupt(format!("{key}[{i}] is not null or a class"))),
        })
        .collect()
}

fn enc_shard(s: &ShardState) -> Value {
    codec::obj([
        ("now", codec::bits_f64(s.now.as_f64())),
        ("next_seq", codec::hex_u64(s.next_seq)),
        (
            "events",
            Value::Arr(s.events.iter().map(codec::enc_event).collect()),
        ),
        (
            "records",
            Value::Arr(s.records.iter().map(codec::enc_record).collect()),
        ),
        (
            "uids",
            Value::Arr(s.uids.iter().map(|&u| codec::hex_u64(u)).collect()),
        ),
        ("labels", enc_labels(&s.labels)),
        ("frontier", codec::bits_f64(s.frontier.as_f64())),
    ])
}

fn dec_shard(v: &Value) -> Result<ShardState> {
    let events = codec::get_arr(v, "events")?
        .iter()
        .map(codec::dec_event)
        .collect::<Result<Vec<_>>>()?;
    let records = codec::get_arr(v, "records")?
        .iter()
        .map(codec::dec_record)
        .collect::<Result<Vec<_>>>()?;
    let uids = codec::get_arr(v, "uids")?
        .iter()
        .enumerate()
        .map(|(i, x)| match x {
            Value::Str(s) => codec::parse_hex_u64(s, "shard uid"),
            _ => Err(corrupt(format!("uids[{i}] is not a hex string"))),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ShardState {
        now: codec::get_sim_time(v, "now")?,
        next_seq: codec::get_hex_u64(v, "next_seq")?,
        events,
        records,
        uids,
        labels: dec_labels(v, "labels")?,
        frontier: codec::get_sim_time(v, "frontier")?,
    })
}

fn enc_collector(c: &CollectorState) -> Value {
    codec::obj([
        ("latencies", codec::f64s(&c.latencies)),
        ("dispatched", codec::num(c.dispatched)),
        ("delivered", codec::num(c.delivered)),
        ("rejected", codec::num(c.rejected)),
        ("timeouts", codec::num(c.timeouts)),
        ("requeues", codec::num(c.requeues)),
        ("refreshes", codec::num(c.refreshes)),
        ("events", codec::num(c.events)),
    ])
}

fn dec_collector(v: &Value) -> Result<CollectorState> {
    Ok(CollectorState {
        latencies: codec::get_f64s(v, "latencies")?,
        dispatched: codec::get_usize(v, "dispatched")?,
        delivered: codec::get_usize(v, "delivered")?,
        rejected: codec::get_usize(v, "rejected")?,
        timeouts: codec::get_usize(v, "timeouts")?,
        requeues: codec::get_usize(v, "requeues")?,
        refreshes: codec::get_usize(v, "refreshes")?,
        events: codec::get_usize(v, "events")?,
    })
}

fn enc_outcome(o: &LabellingOutcome) -> Value {
    codec::obj([
        ("labels", enc_labels(&o.labels)),
        (
            "label_states",
            Value::Arr(
                o.label_states
                    .iter()
                    .map(|&l| codec::enc_label_state(l))
                    .collect(),
            ),
        ),
        ("budget_spent", codec::bits_f64(o.budget_spent)),
        ("iterations", codec::num(o.iterations)),
        ("total_answers", codec::num(o.total_answers)),
        ("enriched", codec::num(o.enriched_count)),
        ("fallback", codec::num(o.fallback_count)),
        (
            "trace",
            Value::Arr(o.trace.iter().map(codec::enc_stats).collect()),
        ),
    ])
}

fn dec_outcome(v: &Value) -> Result<LabellingOutcome> {
    let label_states = codec::get_arr(v, "label_states")?
        .iter()
        .map(codec::dec_label_state)
        .collect::<Result<Vec<_>>>()?;
    let trace = codec::get_arr(v, "trace")?
        .iter()
        .map(codec::dec_stats)
        .collect::<Result<Vec<_>>>()?;
    Ok(LabellingOutcome {
        labels: dec_labels(v, "labels")?,
        label_states,
        budget_spent: codec::get_f64_bits(v, "budget_spent")?,
        iterations: codec::get_usize(v, "iterations")?,
        total_answers: codec::get_usize(v, "total_answers")?,
        enriched_count: codec::get_usize(v, "enriched")?,
        fallback_count: codec::get_usize(v, "fallback")?,
        trace,
    })
}

fn enc_metrics(m: &ServiceMetrics) -> Value {
    codec::obj([
        ("dispatched", codec::num(m.dispatched)),
        ("answers_delivered", codec::num(m.answers_delivered)),
        ("answers_rejected", codec::num(m.answers_rejected)),
        ("timeouts", codec::num(m.timeouts)),
        ("requeues", codec::num(m.requeues)),
        ("refreshes", codec::num(m.refreshes)),
        ("events_processed", codec::num(m.events_processed)),
        ("sim_duration", codec::bits_f64(m.sim_duration.as_f64())),
        ("wall_seconds", codec::bits_f64(m.wall_seconds)),
        ("latency_p50", codec::bits_f64(m.latency_p50)),
        ("latency_p95", codec::bits_f64(m.latency_p95)),
        ("latency_p99", codec::bits_f64(m.latency_p99)),
        (
            "answers_per_time_unit",
            codec::bits_f64(m.answers_per_time_unit),
        ),
        ("events_per_second", codec::bits_f64(m.events_per_second)),
        ("budget_spent", codec::bits_f64(m.budget_spent)),
        ("budget_burn_rate", codec::bits_f64(m.budget_burn_rate)),
    ])
}

fn dec_metrics(v: &Value) -> Result<ServiceMetrics> {
    Ok(ServiceMetrics {
        dispatched: codec::get_usize(v, "dispatched")?,
        answers_delivered: codec::get_usize(v, "answers_delivered")?,
        answers_rejected: codec::get_usize(v, "answers_rejected")?,
        timeouts: codec::get_usize(v, "timeouts")?,
        requeues: codec::get_usize(v, "requeues")?,
        refreshes: codec::get_usize(v, "refreshes")?,
        events_processed: codec::get_usize(v, "events_processed")?,
        sim_duration: codec::get_sim_time(v, "sim_duration")?,
        wall_seconds: codec::get_f64_bits(v, "wall_seconds")?,
        latency_p50: codec::get_f64_bits(v, "latency_p50")?,
        latency_p95: codec::get_f64_bits(v, "latency_p95")?,
        latency_p99: codec::get_f64_bits(v, "latency_p99")?,
        answers_per_time_unit: codec::get_f64_bits(v, "answers_per_time_unit")?,
        events_per_second: codec::get_f64_bits(v, "events_per_second")?,
        budget_spent: codec::get_f64_bits(v, "budget_spent")?,
        budget_burn_rate: codec::get_f64_bits(v, "budget_burn_rate")?,
    })
}

fn enc_active(a: &ActiveProjectState) -> Value {
    codec::obj([
        ("core", codec::enc_core(&a.core)),
        (
            "shards",
            Value::Arr(a.shards.iter().map(enc_shard).collect()),
        ),
        ("answers", codec::enc_answers(&a.answers)),
        ("answers_since", codec::num(a.answers_since)),
        ("last_refresh", codec::bits_f64(a.last_refresh.as_f64())),
        ("requeues", usizes(&a.requeues)),
        (
            "abandoned",
            Value::Arr(a.abandoned.iter().map(|o| codec::num(o.index())).collect()),
        ),
        ("collector", enc_collector(&a.collector)),
        ("started_at", codec::bits_f64(a.started_at.as_f64())),
        ("done", Value::Bool(a.done)),
        ("starved", Value::Bool(a.starved)),
    ])
}

fn dec_active(v: &Value) -> Result<ActiveProjectState> {
    let shards = codec::get_arr(v, "shards")?
        .iter()
        .map(dec_shard)
        .collect::<Result<Vec<_>>>()?;
    Ok(ActiveProjectState {
        core: codec::dec_core(codec::field(v, "core")?)?,
        shards,
        answers: codec::dec_answers(v, "answers")?,
        answers_since: codec::get_usize(v, "answers_since")?,
        last_refresh: codec::get_sim_time(v, "last_refresh")?,
        requeues: codec::arr_usize(v, "requeues")?,
        abandoned: codec::arr_usize(v, "abandoned")?
            .into_iter()
            .map(ObjectId)
            .collect(),
        collector: dec_collector(codec::field(v, "collector")?)?,
        started_at: codec::get_sim_time(v, "started_at")?,
        done: codec::get_bool(v, "done")?,
        starved: codec::get_bool(v, "starved")?,
    })
}

fn enc_project(p: &ProjectCheckpoint) -> Value {
    match p {
        ProjectCheckpoint::Rejected => codec::obj([("status", Value::Str("rejected".into()))]),
        ProjectCheckpoint::Queued => codec::obj([("status", Value::Str("queued".into()))]),
        ProjectCheckpoint::Active(state) => codec::obj([
            ("status", Value::Str("active".into())),
            ("state", enc_active(state)),
        ]),
        ProjectCheckpoint::Completed { outcome, metrics } => codec::obj([
            ("status", Value::Str("completed".into())),
            ("outcome", enc_outcome(outcome)),
            ("metrics", enc_metrics(metrics)),
        ]),
        ProjectCheckpoint::Failed { reason, metrics } => codec::obj([
            ("status", Value::Str("failed".into())),
            ("reason", Value::Str(reason.clone())),
            ("metrics", enc_metrics(metrics)),
        ]),
    }
}

fn dec_project(v: &Value) -> Result<ProjectCheckpoint> {
    match codec::get_str(v, "status")? {
        "rejected" => Ok(ProjectCheckpoint::Rejected),
        "queued" => Ok(ProjectCheckpoint::Queued),
        "active" => Ok(ProjectCheckpoint::Active(Box::new(dec_active(
            codec::field(v, "state")?,
        )?))),
        "completed" => Ok(ProjectCheckpoint::Completed {
            outcome: dec_outcome(codec::field(v, "outcome")?)?,
            metrics: dec_metrics(codec::field(v, "metrics")?)?,
        }),
        "failed" => Ok(ProjectCheckpoint::Failed {
            reason: codec::get_str(v, "reason")?.to_string(),
            metrics: dec_metrics(codec::field(v, "metrics")?)?,
        }),
        other => Err(corrupt(format!("unknown project status '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::LabelState;

    fn sample_metrics() -> ServiceMetrics {
        ServiceMetrics {
            dispatched: 10,
            answers_delivered: 7,
            answers_rejected: 1,
            timeouts: 2,
            requeues: 2,
            refreshes: 3,
            events_processed: 19,
            sim_duration: SimTime::new(42.5).unwrap(),
            wall_seconds: 0.0,
            latency_p50: 3.25,
            latency_p95: 9.5,
            latency_p99: 11.0,
            answers_per_time_unit: 7.0 / 42.5,
            events_per_second: 0.0,
            budget_spent: 13.5,
            budget_burn_rate: 13.5 / 42.5,
        }
    }

    fn sample_checkpoint() -> ServiceCheckpoint {
        ServiceCheckpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            annotators: 4,
            now: SimTime::new(17.25).unwrap(),
            rounds: 9,
            next_uid: 123,
            queued: vec![3],
            active: vec![],
            accounts: vec![
                AccountState {
                    total: 60.0,
                    spent: 13.5,
                    charges: 7,
                    reserved: 0.1 + 0.2, // deliberately non-decimal bits
                },
                AccountState {
                    total: 40.0,
                    spent: 0.0,
                    charges: 0,
                    reserved: 0.0,
                },
            ],
            broker_load: vec![1, 0, 2, 0],
            broker_evidence: vec![vec![], vec![0, 2], vec![], vec![1]],
            trace: vec![(
                0,
                TraceEvent::Dispatched {
                    at: SimTime::new(1.5).unwrap(),
                    id: crowdrl_types::AssignmentId(5),
                    object: ObjectId(2),
                    annotator: crowdrl_types::AnnotatorId(1),
                },
            )],
            projects: vec![
                ProjectCheckpoint::Completed {
                    outcome: LabellingOutcome {
                        labels: vec![Some(ClassId(1)), None, Some(ClassId(0))],
                        label_states: vec![
                            LabelState::Inferred(ClassId(1)),
                            LabelState::Unlabelled,
                            LabelState::Enriched(ClassId(0)),
                        ],
                        budget_spent: 13.5,
                        iterations: 3,
                        total_answers: 7,
                        enriched_count: 1,
                        fallback_count: 0,
                        trace: Vec::new(),
                    },
                    metrics: sample_metrics(),
                },
                ProjectCheckpoint::Failed {
                    reason: "injected shard panic at t=10".into(),
                    metrics: sample_metrics(),
                },
                ProjectCheckpoint::Rejected,
                ProjectCheckpoint::Queued,
            ],
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let cp = sample_checkpoint();
        let text = cp.encode();
        let decoded = ServiceCheckpoint::decode(&text).unwrap();
        assert_eq!(decoded.encode(), text);
        assert_eq!(decoded.fingerprint, cp.fingerprint);
        assert_eq!(decoded.queued, cp.queued);
        // The deliberately non-decimal reserved amount survives bit-exact.
        assert_eq!(
            decoded.accounts[0].reserved.to_bits(),
            cp.accounts[0].reserved.to_bits()
        );
    }

    #[test]
    fn corruption_is_rejected_with_a_typed_error() {
        let text = sample_checkpoint().encode();
        let wrong_version = text.replacen("\"version\":1", "\"version\":99", 1);
        let err = ServiceCheckpoint::decode(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"));
        assert!(ServiceCheckpoint::decode("not json").is_err());
        let truncated = &text[..text.len() / 2];
        assert!(ServiceCheckpoint::decode(truncated).is_err());
    }

    #[test]
    fn fingerprint_canonicalizes_neutral_knobs_and_tracks_real_ones() {
        use crowdrl_sim::PoolSpec;
        use crowdrl_types::rng::seeded;
        let mut rng = seeded(3);
        let pool = PoolSpec::new(4, 1).generate(2, &mut rng).unwrap();
        let config = crowdrl_core::CrowdRlConfig::builder()
            .budget(30.0)
            .build()
            .unwrap();
        let dataset = crowdrl_sim::DatasetSpec::gaussian("d", 10, 3, 2)
            .generate(&mut rng)
            .unwrap();
        let specs = vec![ProjectSpec::new("p", config, dataset)];
        let base = ServiceConfig::default();
        let f = service_fingerprint(&base, &specs, &pool);
        // Exec mode and cadence are neutral.
        let pooled = base
            .clone()
            .with_mode(ExecMode::WorkerPool { workers: 4 })
            .with_checkpoint_every(2);
        assert_eq!(service_fingerprint(&pooled, &specs, &pool), f);
        // Capacity is not.
        let narrower = base.clone().with_capacity(1);
        assert_ne!(service_fingerprint(&narrower, &specs, &pool), f);
        // Neither is the spec set.
        let reprioritized = vec![specs[0].clone().with_priority(5)];
        assert_ne!(service_fingerprint(&base, &reprioritized, &pool), f);
    }
}
