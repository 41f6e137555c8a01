//! Crash-consistent checkpoints of a whole run.
//!
//! A [`RunCheckpoint`] is the engine frozen at a round boundary: every
//! project's shard states and agent core, the shared
//! [`AccountBook`](crate::AccountBook), the
//! [`PoolBroker`](crate::PoolBroker)'s load and quarantine evidence, the
//! admission queue, and the merged trace. The cut happens *after* the
//! round's settlements merged and finished projects finalized — nothing
//! is mid-flight, so a killed run resumed from the snapshot
//! ([`AsyncRuntime::resume`](crate::AsyncRuntime::resume),
//! [`Service::resume`](crate::Service::resume)) replays the remaining
//! rounds bit-identically to an uninterrupted run, in either
//! [`ExecMode`]. A one-project run and a multi-tenant service write the
//! same format.
//!
//! The encoding is hand-rolled JSON over [`crowdrl_obs::json`] (the
//! workspace has a zero-external-dependency policy). Bit-exactness rules
//! the format:
//!
//! * every `f64` is written as its 16-hex-digit IEEE bit pattern (JSON
//!   numbers would lose NaN log-likelihoods and the writer clamps
//!   non-finite values) — resume must not round-trip money or clocks
//!   through decimal text;
//! * `f32` and `f64` slices concatenate fixed-width hex chunks into one
//!   string, which also keeps million-weight tensors from exploding into
//!   million-element JSON arrays;
//! * `u64` values (seeds, RNG words, sequence numbers, assignment ids)
//!   are 16-hex strings because JSON numbers are only exact below 2^53;
//! * small counts and indices stay plain JSON numbers for readability;
//! * objects render in `BTreeMap` key order, so the same checkpoint
//!   always renders the same bytes.
//!
//! [`decode`](RunCheckpoint::decode) validates shape and re-derives
//! nothing silently: any malformed input — bad JSON, a missing field, a
//! hex field that is not exactly 8 or 16 ASCII hex digits — is a typed
//! [`ServiceError::CorruptCheckpoint`], never a panic.
//!
//! Restore is guarded by [`service_fingerprint`]: an FNV-1a hash of the
//! service configuration and every submitted spec, with the
//! observationally-neutral knobs canonicalized out first — [`ExecMode`]
//! (checkpoints cross SingleThread↔WorkerPool), the service-wide
//! [`DecideMode`](crowdrl_core::DecideMode) override (scoring strategy
//! never changes selections), and the checkpoint cadence itself. A
//! mismatch is a typed [`ServiceError::ConfigMismatch`], not a silent
//! divergence.

use crate::config::{ExecMode, ProjectSpec, ServiceConfig};
use crate::core_loop::CoreState;
use crate::error::ServiceError;
use crate::event::{Event, EventKind, TraceEvent};
use crate::ledger::{AccountState, AssignmentRecord, AssignmentStatus};
use crate::metrics::{MetricsCollector, ServiceMetrics};
use crate::supervisor::QuarantineStatus;
use crowdrl_core::agent::{AgentState, Assignment};
use crowdrl_core::outcome::LabellingOutcome;
use crowdrl_core::run_state::{PendingBatch, RunSnapshot};
use crowdrl_core::IterationStats;
use crowdrl_inference::{EngineSnapshot, InferenceResult};
use crowdrl_nn::ClassifierSnapshot;
use crowdrl_obs::json::{parse, Value};
use crowdrl_rl::{DqnSnapshot, Transition};
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{
    AnnotatorId, Answer, AnswerSet, AssignmentId, ClassId, ConfusionMatrix, LabelState, ObjectId,
    SimTime,
};
use std::collections::BTreeMap;

/// Format version stamped into every checkpoint.
const VERSION: usize = 2;

/// What decoding yields: the value, or the typed corrupt-checkpoint error.
type Decoded<T> = std::result::Result<T, ServiceError>;

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
    /// Per-object supervisor backoff deadlines (absolute sim time).
    pub backoff_until: Vec<f64>,
    /// Raw metrics counters, bit-exact.
    pub collector: MetricsCollector,
    /// When the project activated.
    pub started_at: SimTime,
    /// The core reported all objects labelled.
    pub done: bool,
    /// The last dispatch round was starved by pool contention.
    pub starved: bool,
}

/// One submitted project's state inside a [`RunCheckpoint`], tagged
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

/// A complete, resumable snapshot of one run: the whole engine at one
/// consistent round boundary.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
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

impl RunCheckpoint {
    /// Serialize to a single deterministic JSON document: the same
    /// checkpoint always renders the same bytes.
    pub fn encode(&self) -> String {
        obj([
            ("version", num(VERSION)),
            ("fingerprint", hex_u64(self.fingerprint)),
            ("annotators", num(self.annotators)),
            ("now", bits_f64(self.now.as_f64())),
            ("rounds", num(self.rounds)),
            ("next_uid", hex_u64(self.next_uid)),
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
    /// malformed — bad JSON, wrong version, missing fields, bad hex — is
    /// a typed [`ServiceError::CorruptCheckpoint`].
    pub fn decode(text: &str) -> Decoded<Self> {
        let v = parse(text).map_err(|e| corrupt(format!("bad JSON: {e}")))?;
        let version = get_usize(&v, "version")?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let accounts = get_arr(&v, "accounts")?
            .iter()
            .map(dec_account)
            .collect::<Decoded<Vec<_>>>()?;
        let broker_evidence = get_arr(&v, "broker_evidence")?
            .iter()
            .map(|e| dec_usizes(e, "broker_evidence"))
            .collect::<Decoded<Vec<_>>>()?;
        let trace = get_arr(&v, "trace")?
            .iter()
            .map(dec_traced)
            .collect::<Decoded<Vec<_>>>()?;
        let projects = get_arr(&v, "projects")?
            .iter()
            .map(dec_project)
            .collect::<Decoded<Vec<_>>>()?;
        Ok(Self {
            fingerprint: get_hex_u64(&v, "fingerprint")?,
            annotators: get_usize(&v, "annotators")?,
            now: get_sim_time(&v, "now")?,
            rounds: get_usize(&v, "rounds")?,
            next_uid: get_hex_u64(&v, "next_uid")?,
            queued: arr_usize(&v, "queued")?,
            active: arr_usize(&v, "active")?,
            accounts,
            broker_load: arr_usize(&v, "broker_load")?,
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
    canonical.serve.mode = ExecMode::SingleThread;
    canonical.serve.checkpoint_every = 0;
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

fn corrupt(msg: impl Into<String>) -> ServiceError {
    ServiceError::CorruptCheckpoint(msg.into())
}

// ---------------------------------------------------------------------------
// Primitive encoders / decoders
// ---------------------------------------------------------------------------

/// Build a JSON object in deterministic (BTreeMap) key order.
fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A small exact count as a plain JSON number.
fn num(n: usize) -> Value {
    // Plain JSON numbers are exact below 2^53 — far beyond any count here.
    Value::Num(n as f64)
}

/// A `u64` as a 16-hex-digit string (JSON numbers are only exact below 2^53).
fn hex_u64(v: u64) -> Value {
    Value::Str(format!("{v:016x}"))
}

/// An `f64` as its 16-hex-digit IEEE bit pattern.
fn bits_f64(v: f64) -> Value {
    Value::Str(format!("{:016x}", v.to_bits()))
}

/// An `f32` as its 8-hex-digit IEEE bit pattern.
fn bits_f32(v: f32) -> Value {
    Value::Str(format!("{:08x}", v.to_bits()))
}

/// Concatenated 16-hex-digit bit patterns, one per f64.
fn f64s(xs: &[f64]) -> Value {
    let mut s = String::with_capacity(xs.len() * 16);
    for x in xs {
        s.push_str(&format!("{:016x}", x.to_bits()));
    }
    Value::Str(s)
}

/// Concatenated 8-hex-digit bit patterns, one per f32.
fn f32s(xs: &[f32]) -> Value {
    let mut s = String::with_capacity(xs.len() * 8);
    for x in xs {
        s.push_str(&format!("{:08x}", x.to_bits()));
    }
    Value::Str(s)
}

/// Look up a required object field.
fn field<'v>(v: &'v Value, key: &str) -> Decoded<&'v Value> {
    v.get(key)
        .ok_or_else(|| corrupt(format!("missing field {key:?}")))
}

/// Decode a non-negative integral count field.
fn get_usize(v: &Value, key: &str) -> Decoded<usize> {
    let n = field(v, key)?
        .as_f64()
        .ok_or_else(|| corrupt(format!("field {key:?} is not a number")))?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(corrupt(format!("field {key:?} is not a valid count: {n}")));
    }
    Ok(n as usize)
}

/// Parse exactly `width` ASCII hex digits — no sign, no whitespace, no
/// other characters — into their value.
fn parse_hex(s: &str, width: usize, what: &str) -> Decoded<u64> {
    if s.len() != width || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(corrupt(format!(
            "{what}: expected {width} hex digits, got {s:?}"
        )));
    }
    u64::from_str_radix(s, 16).map_err(|_| corrupt(format!("{what}: bad hex {s:?}")))
}

/// Parse exactly 16 hex digits into a `u64`.
fn parse_hex_u64(s: &str, what: &str) -> Decoded<u64> {
    parse_hex(s, 16, what)
}

/// Parse exactly 8 hex digits into an `f32` bit pattern.
fn parse_bits_f32(s: &str, what: &str) -> Decoded<f32> {
    Ok(f32::from_bits(parse_hex(s, 8, what)? as u32))
}

/// Split a concatenation of `width`-digit hex chunks into their values.
fn parse_hex_chunks(s: &str, width: usize, what: &str) -> Decoded<Vec<u64>> {
    // All-ASCII text makes every byte offset a char boundary.
    if !s.is_ascii() || !s.len().is_multiple_of(width) {
        return Err(corrupt(format!(
            "{what}: not a concatenation of {width}-digit hex chunks"
        )));
    }
    (0..s.len() / width)
        .map(|i| parse_hex(&s[i * width..(i + 1) * width], width, what))
        .collect()
}

/// Decode a `u64` field stored as 16 hex digits.
fn get_hex_u64(v: &Value, key: &str) -> Decoded<u64> {
    let s = get_str(v, key)?;
    parse_hex_u64(s, key)
}

/// Decode a string field.
fn get_str<'v>(v: &'v Value, key: &str) -> Decoded<&'v str> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| corrupt(format!("field {key:?} is not a string")))
}

/// Decode a bool field.
fn get_bool(v: &Value, key: &str) -> Decoded<bool> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(corrupt(format!("field {key:?} is not a bool"))),
    }
}

/// Decode an array field.
fn get_arr<'v>(v: &'v Value, key: &str) -> Decoded<&'v [Value]> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| corrupt(format!("field {key:?} is not an array")))
}

/// Decode an `f64` field stored as its bit pattern.
fn get_f64_bits(v: &Value, key: &str) -> Decoded<f64> {
    Ok(f64::from_bits(get_hex_u64(v, key)?))
}

/// Parse a concatenated 16-hex-chunk string into `f64`s.
fn parse_f64s(s: &str, what: &str) -> Decoded<Vec<f64>> {
    Ok(parse_hex_chunks(s, 16, what)?
        .into_iter()
        .map(f64::from_bits)
        .collect())
}

/// Parse a concatenated 8-hex-chunk string into `f32`s.
fn parse_f32s(s: &str, what: &str) -> Decoded<Vec<f32>> {
    Ok(parse_hex_chunks(s, 8, what)?
        .into_iter()
        .map(|bits| f32::from_bits(bits as u32))
        .collect())
}

/// Decode an `f64`-slice field (concatenated bit patterns).
fn get_f64s(v: &Value, key: &str) -> Decoded<Vec<f64>> {
    parse_f64s(get_str(v, key)?, key)
}

/// Decode an `f32`-slice field (concatenated bit patterns).
fn get_f32s(v: &Value, key: &str) -> Decoded<Vec<f32>> {
    parse_f32s(get_str(v, key)?, key)
}

/// Decode a `SimTime` field stored as an `f64` bit pattern.
fn get_sim_time(v: &Value, key: &str) -> Decoded<SimTime> {
    SimTime::new(get_f64_bits(v, key)?)
        .map_err(|e| corrupt(format!("field {key:?} is not a valid time: {e}")))
}

/// Encode an optional value, `Null` when absent.
fn opt<T>(value: Option<T>, enc: impl Fn(T) -> Value) -> Value {
    match value {
        Some(x) => enc(x),
        None => Value::Null,
    }
}

/// Encode counts as an array of plain JSON numbers.
fn usizes(xs: &[usize]) -> Value {
    Value::Arr(xs.iter().map(|&x| num(x)).collect())
}

/// Decode an array-of-counts value.
fn dec_usizes(v: &Value, what: &str) -> Decoded<Vec<usize>> {
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

/// Decode an array-of-counts field.
fn arr_usize(v: &Value, key: &str) -> Decoded<Vec<usize>> {
    dec_usizes(field(v, key)?, key)
}

// ---------------------------------------------------------------------------
// Scheduler, ledger, trace and answers
// ---------------------------------------------------------------------------

/// Encode a pending scheduler event.
fn enc_event(e: &Event) -> Value {
    let (kind, id) = match e.kind {
        EventKind::Deliver(id) => ("deliver", id),
        EventKind::Expire(id) => ("expire", id),
    };
    obj([
        ("at", bits_f64(e.at.as_f64())),
        ("seq", hex_u64(e.seq)),
        ("kind", Value::Str(kind.to_string())),
        ("id", hex_u64(id.0)),
    ])
}

/// Decode a pending scheduler event.
fn dec_event(v: &Value) -> Decoded<Event> {
    let id = AssignmentId(get_hex_u64(v, "id")?);
    let kind = match get_str(v, "kind")? {
        "deliver" => EventKind::Deliver(id),
        "expire" => EventKind::Expire(id),
        other => return Err(corrupt(format!("unknown event kind {other:?}"))),
    };
    Ok(Event {
        at: get_sim_time(v, "at")?,
        seq: get_hex_u64(v, "seq")?,
        kind,
    })
}

/// Encode a ledger assignment record.
fn enc_record(r: &AssignmentRecord) -> Value {
    let status = match r.status {
        AssignmentStatus::InFlight => "in_flight",
        AssignmentStatus::Delivered => "delivered",
        AssignmentStatus::Expired => "expired",
    };
    obj([
        ("object", num(r.object.0)),
        ("annotator", num(r.annotator.0)),
        ("cost", bits_f64(r.cost)),
        ("dispatched_at", bits_f64(r.dispatched_at.as_f64())),
        ("deadline", bits_f64(r.deadline.as_f64())),
        ("status", Value::Str(status.to_string())),
    ])
}

/// Decode the ledger record at position `index`: a ledger issues ids in
/// order, so a record's id is its position and is not stored.
fn dec_record(index: usize, v: &Value) -> Decoded<AssignmentRecord> {
    let status = match get_str(v, "status")? {
        "in_flight" => AssignmentStatus::InFlight,
        "delivered" => AssignmentStatus::Delivered,
        "expired" => AssignmentStatus::Expired,
        other => return Err(corrupt(format!("unknown assignment status {other:?}"))),
    };
    Ok(AssignmentRecord {
        id: AssignmentId(index as u64),
        object: ObjectId(get_usize(v, "object")?),
        annotator: AnnotatorId(get_usize(v, "annotator")?),
        cost: get_f64_bits(v, "cost")?,
        dispatched_at: get_sim_time(v, "dispatched_at")?,
        deadline: get_sim_time(v, "deadline")?,
        status,
    })
}

/// Encode an observable trace event.
fn enc_trace_event(e: &TraceEvent) -> Value {
    match e {
        TraceEvent::Dispatched {
            at,
            id,
            object,
            annotator,
        } => obj([
            ("t", Value::Str("dispatched".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
            ("object", num(object.0)),
            ("annotator", num(annotator.0)),
        ]),
        TraceEvent::Delivered { at, id, label } => obj([
            ("t", Value::Str("delivered".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
            ("label", num(label.0)),
        ]),
        TraceEvent::Rejected { at, id } => obj([
            ("t", Value::Str("rejected".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
        ]),
        TraceEvent::Expired { at, id, requeued } => obj([
            ("t", Value::Str("expired".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
            ("requeued", Value::Bool(*requeued)),
        ]),
        TraceEvent::Refreshed {
            at,
            answers,
            labelled,
        } => obj([
            ("t", Value::Str("refreshed".into())),
            ("at", bits_f64(at.as_f64())),
            ("answers", num(*answers)),
            ("labelled", num(*labelled)),
        ]),
        TraceEvent::Quarantined { at, annotator } => obj([
            ("t", Value::Str("quarantined".into())),
            ("at", bits_f64(at.as_f64())),
            ("annotator", num(annotator.0)),
        ]),
        TraceEvent::QuarantineReleased { at, annotator } => obj([
            ("t", Value::Str("quarantine_released".into())),
            ("at", bits_f64(at.as_f64())),
            ("annotator", num(annotator.0)),
        ]),
    }
}

/// Decode an observable trace event.
fn dec_trace_event(v: &Value) -> Decoded<TraceEvent> {
    let at = get_sim_time(v, "at")?;
    Ok(match get_str(v, "t")? {
        "dispatched" => TraceEvent::Dispatched {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
            object: ObjectId(get_usize(v, "object")?),
            annotator: AnnotatorId(get_usize(v, "annotator")?),
        },
        "delivered" => TraceEvent::Delivered {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
            label: ClassId(get_usize(v, "label")?),
        },
        "rejected" => TraceEvent::Rejected {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
        },
        "expired" => TraceEvent::Expired {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
            requeued: get_bool(v, "requeued")?,
        },
        "refreshed" => TraceEvent::Refreshed {
            at,
            answers: get_usize(v, "answers")?,
            labelled: get_usize(v, "labelled")?,
        },
        "quarantined" => TraceEvent::Quarantined {
            at,
            annotator: AnnotatorId(get_usize(v, "annotator")?),
        },
        "quarantine_released" => TraceEvent::QuarantineReleased {
            at,
            annotator: AnnotatorId(get_usize(v, "annotator")?),
        },
        other => return Err(corrupt(format!("unknown trace event {other:?}"))),
    })
}

/// Encode an answer set as per-object (annotator, class) pairs.
fn enc_answers(answers: &AnswerSet) -> Value {
    Value::Arr(
        (0..answers.num_objects())
            .map(|i| {
                Value::Arr(
                    answers
                        .answers_for(ObjectId(i))
                        .iter()
                        .map(|&(a, c)| Value::Arr(vec![num(a.0), num(c.0)]))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Decode an answer set field.
fn dec_answers(v: &Value, key: &str) -> Decoded<AnswerSet> {
    let rows = get_arr(v, key)?;
    let mut answers = AnswerSet::new(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| corrupt(format!("{key}[{i}] is not an array")))?;
        for pair in row {
            let pair = pair
                .as_arr()
                .ok_or_else(|| corrupt(format!("{key}[{i}]: bad answer pair")))?;
            let [a, c] = pair else {
                return Err(corrupt(format!("{key}[{i}]: answer pair is not 2-long")));
            };
            let (Some(a), Some(c)) = (a.as_u64(), c.as_u64()) else {
                return Err(corrupt(format!("{key}[{i}]: non-numeric answer pair")));
            };
            answers
                .record(Answer {
                    object: ObjectId(i),
                    annotator: AnnotatorId(a as usize),
                    label: ClassId(c as usize),
                })
                .map_err(|e| corrupt(format!("{key}[{i}]: {e}")))?;
        }
    }
    Ok(answers)
}

// ---------------------------------------------------------------------------
// Core state
// ---------------------------------------------------------------------------

/// Per-parameter-tensor Adam state: first moment, second moment, step.
type OptSlot = (Vec<f32>, Vec<f32>, u64);

fn enc_opt_state(state: &[OptSlot]) -> Value {
    Value::Arr(
        state
            .iter()
            .map(|(m, v, t)| obj([("m", f32s(m)), ("v", f32s(v)), ("t", hex_u64(*t))]))
            .collect(),
    )
}

fn dec_opt_state(v: &Value, key: &str) -> Decoded<Vec<OptSlot>> {
    get_arr(v, key)?
        .iter()
        .map(|slot| {
            Ok((
                get_f32s(slot, "m")?,
                get_f32s(slot, "v")?,
                get_hex_u64(slot, "t")?,
            ))
        })
        .collect()
}

fn enc_classifier(c: &ClassifierSnapshot) -> Value {
    obj([
        ("params", f32s(&c.params)),
        ("opt_state", enc_opt_state(&c.opt_state)),
        ("trained", Value::Bool(c.trained)),
        ("generation", hex_u64(c.generation)),
    ])
}

fn dec_classifier(v: &Value) -> Decoded<ClassifierSnapshot> {
    Ok(ClassifierSnapshot {
        params: get_f32s(v, "params")?,
        opt_state: dec_opt_state(v, "opt_state")?,
        trained: get_bool(v, "trained")?,
        generation: get_hex_u64(v, "generation")?,
    })
}

fn enc_transition(t: &Transition) -> Value {
    obj([
        ("sa", f32s(&t.state_action)),
        ("reward", bits_f32(t.reward)),
        (
            "next",
            Value::Arr(t.next_candidates.iter().map(|c| f32s(c)).collect()),
        ),
        ("terminal", Value::Bool(t.terminal)),
    ])
}

fn dec_transition(v: &Value) -> Decoded<Transition> {
    Ok(Transition {
        state_action: get_f32s(v, "sa")?,
        reward: parse_bits_f32(get_str(v, "reward")?, "reward")?,
        next_candidates: get_arr(v, "next")?
            .iter()
            .enumerate()
            .map(|(i, c)| {
                parse_f32s(
                    c.as_str()
                        .ok_or_else(|| corrupt(format!("next[{i}] is not a string")))?,
                    "next",
                )
            })
            .collect::<Decoded<_>>()?,
        terminal: get_bool(v, "terminal")?,
    })
}

fn enc_dqn(d: &DqnSnapshot) -> Value {
    obj([
        ("online", f32s(&d.online)),
        ("target", f32s(&d.target)),
        ("opt_state", enc_opt_state(&d.opt_state)),
        (
            "replay",
            Value::Arr(d.replay.iter().map(enc_transition).collect()),
        ),
        ("replay_head", num(d.replay_head)),
        ("replay_pushed", num(d.replay_pushed)),
        ("train_steps", num(d.train_steps)),
    ])
}

fn dec_dqn(v: &Value) -> Decoded<DqnSnapshot> {
    Ok(DqnSnapshot {
        online: get_f32s(v, "online")?,
        target: get_f32s(v, "target")?,
        opt_state: dec_opt_state(v, "opt_state")?,
        replay: get_arr(v, "replay")?
            .iter()
            .map(dec_transition)
            .collect::<Decoded<_>>()?,
        replay_head: get_usize(v, "replay_head")?,
        replay_pushed: get_usize(v, "replay_pushed")?,
        train_steps: get_usize(v, "train_steps")?,
    })
}

fn enc_agent(a: &AgentState) -> Value {
    obj([
        ("dqn", enc_dqn(&a.dqn)),
        (
            "ucb_counts",
            opt(a.ucb_counts.as_ref(), |counts| {
                Value::Arr(
                    counts
                        .iter()
                        .map(|&(n, c)| Value::Arr(vec![hex_u64(n), hex_u64(c)]))
                        .collect(),
                )
            }),
        ),
        ("eps_steps", opt(a.eps_steps, hex_u64)),
    ])
}

fn dec_agent(v: &Value) -> Decoded<AgentState> {
    let ucb_counts = match field(v, "ucb_counts")? {
        Value::Null => None,
        Value::Arr(items) => Some(
            items
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .ok_or_else(|| corrupt("ucb_counts: bad pair"))?;
                    let [n, c] = pair else {
                        return Err(corrupt("ucb_counts: pair is not 2-long"));
                    };
                    let (Some(n), Some(c)) = (n.as_str(), c.as_str()) else {
                        return Err(corrupt("ucb_counts: non-string pair"));
                    };
                    Ok((
                        parse_hex_u64(n, "ucb_counts")?,
                        parse_hex_u64(c, "ucb_counts")?,
                    ))
                })
                .collect::<Decoded<Vec<_>>>()?,
        ),
        _ => return Err(corrupt("ucb_counts is neither null nor an array")),
    };
    let eps_steps = match field(v, "eps_steps")? {
        Value::Null => None,
        Value::Str(s) => Some(parse_hex_u64(s, "eps_steps")?),
        _ => return Err(corrupt("eps_steps is neither null nor a string")),
    };
    Ok(AgentState {
        dqn: dec_dqn(field(v, "dqn")?)?,
        ucb_counts,
        eps_steps,
    })
}

/// Encode a per-object label state.
fn enc_label_state(l: LabelState) -> Value {
    match l {
        LabelState::Unlabelled => Value::Null,
        LabelState::Inferred(c) => obj([("i", num(c.0))]),
        LabelState::Enriched(c) => obj([("e", num(c.0))]),
    }
}

/// Decode a per-object label state.
fn dec_label_state(v: &Value) -> Decoded<LabelState> {
    match v {
        Value::Null => Ok(LabelState::Unlabelled),
        Value::Obj(_) => {
            if let Some(c) = v.get("i").and_then(Value::as_u64) {
                Ok(LabelState::Inferred(ClassId(c as usize)))
            } else if let Some(c) = v.get("e").and_then(Value::as_u64) {
                Ok(LabelState::Enriched(ClassId(c as usize)))
            } else {
                Err(corrupt("label state object without i/e"))
            }
        }
        _ => Err(corrupt("label state is neither null nor an object")),
    }
}

fn enc_assignment(a: &Assignment) -> Value {
    obj([
        ("object", num(a.object.0)),
        (
            "annotators",
            Value::Arr(a.annotators.iter().map(|w| num(w.0)).collect()),
        ),
        (
            "embeddings",
            Value::Arr(a.embeddings.iter().map(|e| f32s(e)).collect()),
        ),
    ])
}

fn dec_assignment(v: &Value) -> Decoded<Assignment> {
    Ok(Assignment {
        object: ObjectId(get_usize(v, "object")?),
        annotators: arr_usize(v, "annotators")?
            .into_iter()
            .map(AnnotatorId)
            .collect(),
        embeddings: get_arr(v, "embeddings")?
            .iter()
            .enumerate()
            .map(|(i, e)| {
                parse_f32s(
                    e.as_str()
                        .ok_or_else(|| corrupt(format!("embeddings[{i}] is not a string")))?,
                    "embeddings",
                )
            })
            .collect::<Decoded<_>>()?,
    })
}

fn enc_pending(p: &PendingBatch) -> Value {
    obj([
        (
            "assignments",
            Value::Arr(p.assignments.iter().map(enc_assignment).collect()),
        ),
        (
            "conf_before",
            Value::Arr(
                p.conf_before
                    .iter()
                    .map(|&(o, c)| Value::Arr(vec![num(o.0), bits_f64(c)]))
                    .collect(),
            ),
        ),
        (
            "phi_guesses",
            Value::Arr(
                p.phi_guesses
                    .iter()
                    .map(|&(o, g)| Value::Arr(vec![num(o.0), num(g)]))
                    .collect(),
            ),
        ),
    ])
}

fn dec_pending(v: &Value) -> Decoded<PendingBatch> {
    let conf_before = get_arr(v, "conf_before")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .ok_or_else(|| corrupt("conf_before: bad pair"))?;
            let [o, c] = pair else {
                return Err(corrupt("conf_before: pair is not 2-long"));
            };
            let o = o
                .as_u64()
                .ok_or_else(|| corrupt("conf_before: bad object"))?;
            let c = c
                .as_str()
                .ok_or_else(|| corrupt("conf_before: bad confidence"))?;
            Ok((
                ObjectId(o as usize),
                f64::from_bits(parse_hex_u64(c, "conf_before")?),
            ))
        })
        .collect::<Decoded<Vec<_>>>()?;
    let phi_guesses = get_arr(v, "phi_guesses")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .ok_or_else(|| corrupt("phi_guesses: bad pair"))?;
            let [o, g] = pair else {
                return Err(corrupt("phi_guesses: pair is not 2-long"));
            };
            let (Some(o), Some(g)) = (o.as_u64(), g.as_u64()) else {
                return Err(corrupt("phi_guesses: non-numeric pair"));
            };
            Ok((ObjectId(o as usize), g as usize))
        })
        .collect::<Decoded<Vec<_>>>()?;
    Ok(PendingBatch {
        assignments: get_arr(v, "assignments")?
            .iter()
            .map(dec_assignment)
            .collect::<Decoded<_>>()?,
        conf_before,
        phi_guesses,
    })
}

/// Encode one iteration's workflow stats.
fn enc_stats(s: &IterationStats) -> Value {
    obj([
        ("iteration", num(s.iteration)),
        ("enriched", num(s.enriched)),
        ("selected", num(s.selected)),
        ("answers", num(s.answers)),
        ("spend", bits_f64(s.spend)),
        ("reward", bits_f64(s.reward)),
        ("labelled_total", num(s.labelled_total)),
        ("td_loss", opt(s.td_loss, bits_f32)),
    ])
}

/// Decode one iteration's workflow stats.
fn dec_stats(v: &Value) -> Decoded<IterationStats> {
    let td_loss = match field(v, "td_loss")? {
        Value::Null => None,
        Value::Str(s) => Some(parse_bits_f32(s, "td_loss")?),
        _ => return Err(corrupt("td_loss is neither null nor a string")),
    };
    Ok(IterationStats {
        iteration: get_usize(v, "iteration")?,
        enriched: get_usize(v, "enriched")?,
        selected: get_usize(v, "selected")?,
        answers: get_usize(v, "answers")?,
        spend: get_f64_bits(v, "spend")?,
        reward: get_f64_bits(v, "reward")?,
        labelled_total: get_usize(v, "labelled_total")?,
        td_loss,
    })
}

fn enc_confusion(m: &ConfusionMatrix) -> Value {
    let k = m.num_classes();
    Value::Arr(
        (0..k)
            .map(|t| {
                let row: Vec<f64> = (0..k).map(|r| m.get(ClassId(t), ClassId(r))).collect();
                f64s(&row)
            })
            .collect(),
    )
}

fn dec_confusion(v: &Value, what: &str) -> Decoded<ConfusionMatrix> {
    let rows = v
        .as_arr()
        .ok_or_else(|| corrupt(format!("{what}: not an array")))?
        .iter()
        .enumerate()
        .map(|(i, row)| {
            parse_f64s(
                row.as_str()
                    .ok_or_else(|| corrupt(format!("{what}[{i}]: not a string")))?,
                what,
            )
        })
        .collect::<Decoded<Vec<_>>>()?;
    ConfusionMatrix::from_rows(&rows).map_err(|e| corrupt(format!("{what}: {e}")))
}

fn enc_result(r: &InferenceResult) -> Value {
    obj([
        (
            "posteriors",
            Value::Arr(
                r.posteriors
                    .iter()
                    .map(|p| opt(p.as_ref(), |p| f64s(p)))
                    .collect(),
            ),
        ),
        (
            "confusions",
            Value::Arr(r.confusions.iter().map(enc_confusion).collect()),
        ),
        ("class_prior", f64s(&r.class_prior)),
        ("iterations", num(r.iterations)),
        ("log_likelihood", bits_f64(r.log_likelihood)),
    ])
}

fn dec_result(v: &Value) -> Decoded<InferenceResult> {
    let posteriors = get_arr(v, "posteriors")?
        .iter()
        .enumerate()
        .map(|(i, p)| match p {
            Value::Null => Ok(None),
            Value::Str(s) => parse_f64s(s, "posteriors").map(Some),
            _ => Err(corrupt(format!("posteriors[{i}] is not null or a string"))),
        })
        .collect::<Decoded<Vec<_>>>()?;
    Ok(InferenceResult {
        posteriors,
        confusions: get_arr(v, "confusions")?
            .iter()
            .map(|m| dec_confusion(m, "confusions"))
            .collect::<Decoded<_>>()?,
        class_prior: get_f64s(v, "class_prior")?,
        iterations: get_usize(v, "iterations")?,
        log_likelihood: get_f64_bits(v, "log_likelihood")?,
    })
}

fn enc_engine(e: &EngineSnapshot) -> Value {
    obj([
        ("last", enc_result(&e.last)),
        ("answer_counts", usizes(&e.answer_counts)),
        ("total_answers", num(e.total_answers)),
        (
            "moved",
            Value::Arr(e.moved.iter().map(|&b| Value::Bool(b)).collect()),
        ),
        ("answered", usizes(&e.answered)),
        ("warm_calls_since_full", num(e.warm_calls_since_full)),
        ("calls", hex_u64(e.calls)),
    ])
}

fn dec_engine(v: &Value) -> Decoded<EngineSnapshot> {
    Ok(EngineSnapshot {
        last: dec_result(field(v, "last")?)?,
        answer_counts: arr_usize(v, "answer_counts")?,
        total_answers: get_usize(v, "total_answers")?,
        moved: get_arr(v, "moved")?
            .iter()
            .map(|b| match b {
                Value::Bool(b) => Ok(*b),
                _ => Err(corrupt("moved: non-bool element")),
            })
            .collect::<Decoded<_>>()?,
        answered: arr_usize(v, "answered")?,
        warm_calls_since_full: get_usize(v, "warm_calls_since_full")?,
        calls: get_hex_u64(v, "calls")?,
    })
}

fn enc_quarantine_status(s: QuarantineStatus) -> Value {
    match s {
        QuarantineStatus::Active => Value::Str("active".into()),
        QuarantineStatus::Quarantined {
            until_refresh,
            answers_at_entry,
        } => obj([
            ("s", Value::Str("quarantined".into())),
            ("until", num(until_refresh)),
            ("answers", num(answers_at_entry)),
        ]),
        QuarantineStatus::Probation { answers_at_entry } => obj([
            ("s", Value::Str("probation".into())),
            ("answers", num(answers_at_entry)),
        ]),
    }
}

fn dec_quarantine_status(v: &Value) -> Decoded<QuarantineStatus> {
    match v {
        Value::Str(s) if s == "active" => Ok(QuarantineStatus::Active),
        Value::Obj(_) => match get_str(v, "s")? {
            "quarantined" => Ok(QuarantineStatus::Quarantined {
                until_refresh: get_usize(v, "until")?,
                answers_at_entry: get_usize(v, "answers")?,
            }),
            "probation" => Ok(QuarantineStatus::Probation {
                answers_at_entry: get_usize(v, "answers")?,
            }),
            other => Err(corrupt(format!("unknown quarantine status {other:?}"))),
        },
        _ => Err(corrupt("quarantine status is neither a string nor object")),
    }
}

/// Encode an agent core's complete learning state.
fn enc_core(c: &CoreState) -> Value {
    obj([
        ("classifier", enc_classifier(&c.run.classifier)),
        ("agent", enc_agent(&c.run.agent)),
        (
            "labelled",
            Value::Arr(c.run.labelled.iter().map(|&l| enc_label_state(l)).collect()),
        ),
        ("qualities", f64s(&c.run.qualities)),
        (
            "prev_confidence",
            Value::Arr(
                c.run
                    .prev_confidence
                    .iter()
                    .map(|p| opt(*p, bits_f64))
                    .collect(),
            ),
        ),
        (
            "outstanding",
            Value::Arr(c.outstanding.iter().map(enc_pending).collect()),
        ),
        (
            "trace",
            Value::Arr(c.run.trace.iter().map(enc_stats).collect()),
        ),
        ("trust_agree", bits_f64(c.run.trust_agree)),
        ("trust_scored", bits_f64(c.run.trust_scored)),
        ("phi_trust", bits_f64(c.run.phi_trust)),
        ("fixed_allowance", opt(c.fixed_allowance, bits_f64)),
        ("last_spent", bits_f64(c.last_spent)),
        ("refresh_index", num(c.refresh_index)),
        ("engine", opt(c.run.engine.as_ref(), enc_engine)),
        (
            "rng",
            Value::Arr(c.rng.iter().map(|&w| hex_u64(w)).collect()),
        ),
        (
            "quarantine",
            Value::Arr(
                c.quarantine
                    .iter()
                    .map(|&s| enc_quarantine_status(s))
                    .collect(),
            ),
        ),
    ])
}

/// Decode an agent core's complete learning state.
fn dec_core(v: &Value) -> Decoded<CoreState> {
    let prev_confidence = get_arr(v, "prev_confidence")?
        .iter()
        .map(|p| match p {
            Value::Null => Ok(None),
            Value::Str(s) => Ok(Some(f64::from_bits(parse_hex_u64(s, "prev_confidence")?))),
            _ => Err(corrupt("prev_confidence: bad element")),
        })
        .collect::<Decoded<Vec<_>>>()?;
    let fixed_allowance = match field(v, "fixed_allowance")? {
        Value::Null => None,
        Value::Str(s) => Some(f64::from_bits(parse_hex_u64(s, "fixed_allowance")?)),
        _ => return Err(corrupt("fixed_allowance: bad value")),
    };
    let engine = match field(v, "engine")? {
        Value::Null => None,
        e => Some(dec_engine(e)?),
    };
    let rng_words = get_arr(v, "rng")?
        .iter()
        .map(|w| {
            parse_hex_u64(
                w.as_str().ok_or_else(|| corrupt("rng: non-string word"))?,
                "rng",
            )
        })
        .collect::<Decoded<Vec<_>>>()?;
    let rng: [u64; 4] = rng_words
        .try_into()
        .map_err(|_| corrupt("rng: expected exactly 4 words"))?;
    Ok(CoreState {
        run: RunSnapshot {
            classifier: dec_classifier(field(v, "classifier")?)?,
            agent: dec_agent(field(v, "agent")?)?,
            labelled: get_arr(v, "labelled")?
                .iter()
                .map(dec_label_state)
                .collect::<Decoded<_>>()?,
            qualities: get_f64s(v, "qualities")?,
            prev_confidence,
            trace: get_arr(v, "trace")?
                .iter()
                .map(dec_stats)
                .collect::<Decoded<_>>()?,
            trust_agree: get_f64_bits(v, "trust_agree")?,
            trust_scored: get_f64_bits(v, "trust_scored")?,
            phi_trust: get_f64_bits(v, "phi_trust")?,
            engine,
        },
        outstanding: get_arr(v, "outstanding")?
            .iter()
            .map(dec_pending)
            .collect::<Decoded<_>>()?,
        fixed_allowance,
        last_spent: get_f64_bits(v, "last_spent")?,
        refresh_index: get_usize(v, "refresh_index")?,
        rng,
        quarantine: get_arr(v, "quarantine")?
            .iter()
            .map(dec_quarantine_status)
            .collect::<Decoded<_>>()?,
    })
}

// ---------------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------------

fn enc_account(a: &AccountState) -> Value {
    obj([
        ("total", bits_f64(a.total)),
        ("spent", bits_f64(a.spent)),
        ("charges", num(a.charges)),
        ("reserved", bits_f64(a.reserved)),
    ])
}

fn dec_account(v: &Value) -> Decoded<AccountState> {
    Ok(AccountState {
        total: get_f64_bits(v, "total")?,
        spent: get_f64_bits(v, "spent")?,
        charges: get_usize(v, "charges")?,
        reserved: get_f64_bits(v, "reserved")?,
    })
}

fn enc_traced(entry: &(usize, TraceEvent)) -> Value {
    let mut v = enc_trace_event(&entry.1);
    if let Value::Obj(fields) = &mut v {
        fields.insert("p".into(), num(entry.0));
    }
    v
}

fn dec_traced(v: &Value) -> Decoded<(usize, TraceEvent)> {
    Ok((get_usize(v, "p")?, dec_trace_event(v)?))
}

fn enc_labels(labels: &[Option<ClassId>]) -> Value {
    Value::Arr(labels.iter().map(|l| opt(*l, |c| num(c.0))).collect())
}

fn dec_labels(v: &Value, key: &str) -> Decoded<Vec<Option<ClassId>>> {
    get_arr(v, key)?
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
    obj([
        ("now", bits_f64(s.now.as_f64())),
        ("next_seq", hex_u64(s.next_seq)),
        (
            "events",
            Value::Arr(s.events.iter().map(enc_event).collect()),
        ),
        (
            "records",
            Value::Arr(s.records.iter().map(enc_record).collect()),
        ),
        (
            "uids",
            Value::Arr(s.uids.iter().map(|&u| hex_u64(u)).collect()),
        ),
        ("labels", enc_labels(&s.labels)),
        ("frontier", bits_f64(s.frontier.as_f64())),
    ])
}

fn dec_shard(v: &Value) -> Decoded<ShardState> {
    let events = get_arr(v, "events")?
        .iter()
        .map(dec_event)
        .collect::<Decoded<Vec<_>>>()?;
    let records = get_arr(v, "records")?
        .iter()
        .enumerate()
        .map(|(i, r)| dec_record(i, r))
        .collect::<Decoded<Vec<_>>>()?;
    let uids = get_arr(v, "uids")?
        .iter()
        .enumerate()
        .map(|(i, x)| match x {
            Value::Str(s) => parse_hex_u64(s, "shard uid"),
            _ => Err(corrupt(format!("uids[{i}] is not a hex string"))),
        })
        .collect::<Decoded<Vec<_>>>()?;
    Ok(ShardState {
        now: get_sim_time(v, "now")?,
        next_seq: get_hex_u64(v, "next_seq")?,
        events,
        records,
        uids,
        labels: dec_labels(v, "labels")?,
        frontier: get_sim_time(v, "frontier")?,
    })
}

fn enc_collector(c: &MetricsCollector) -> Value {
    obj([
        ("latencies", f64s(&c.latencies)),
        ("dispatched", num(c.dispatched)),
        ("delivered", num(c.delivered)),
        ("rejected", num(c.rejected)),
        ("timeouts", num(c.timeouts)),
        ("requeues", num(c.requeues)),
        ("refreshes", num(c.refreshes)),
        ("events", num(c.events)),
    ])
}

fn dec_collector(v: &Value) -> Decoded<MetricsCollector> {
    Ok(MetricsCollector {
        latencies: get_f64s(v, "latencies")?,
        dispatched: get_usize(v, "dispatched")?,
        delivered: get_usize(v, "delivered")?,
        rejected: get_usize(v, "rejected")?,
        timeouts: get_usize(v, "timeouts")?,
        requeues: get_usize(v, "requeues")?,
        refreshes: get_usize(v, "refreshes")?,
        events: get_usize(v, "events")?,
    })
}

fn enc_outcome(o: &LabellingOutcome) -> Value {
    obj([
        ("labels", enc_labels(&o.labels)),
        (
            "label_states",
            Value::Arr(o.label_states.iter().map(|&l| enc_label_state(l)).collect()),
        ),
        ("budget_spent", bits_f64(o.budget_spent)),
        ("iterations", num(o.iterations)),
        ("total_answers", num(o.total_answers)),
        ("enriched", num(o.enriched_count)),
        ("fallback", num(o.fallback_count)),
        ("trace", Value::Arr(o.trace.iter().map(enc_stats).collect())),
    ])
}

fn dec_outcome(v: &Value) -> Decoded<LabellingOutcome> {
    let label_states = get_arr(v, "label_states")?
        .iter()
        .map(dec_label_state)
        .collect::<Decoded<Vec<_>>>()?;
    let trace = get_arr(v, "trace")?
        .iter()
        .map(dec_stats)
        .collect::<Decoded<Vec<_>>>()?;
    Ok(LabellingOutcome {
        labels: dec_labels(v, "labels")?,
        label_states,
        budget_spent: get_f64_bits(v, "budget_spent")?,
        iterations: get_usize(v, "iterations")?,
        total_answers: get_usize(v, "total_answers")?,
        enriched_count: get_usize(v, "enriched")?,
        fallback_count: get_usize(v, "fallback")?,
        trace,
    })
}

fn enc_metrics(m: &ServiceMetrics) -> Value {
    obj([
        ("dispatched", num(m.dispatched)),
        ("answers_delivered", num(m.answers_delivered)),
        ("answers_rejected", num(m.answers_rejected)),
        ("timeouts", num(m.timeouts)),
        ("requeues", num(m.requeues)),
        ("refreshes", num(m.refreshes)),
        ("events_processed", num(m.events_processed)),
        ("sim_duration", bits_f64(m.sim_duration.as_f64())),
        ("wall_seconds", bits_f64(m.wall_seconds)),
        ("latency_p50", bits_f64(m.latency_p50)),
        ("latency_p95", bits_f64(m.latency_p95)),
        ("latency_p99", bits_f64(m.latency_p99)),
        ("answers_per_time_unit", bits_f64(m.answers_per_time_unit)),
        ("events_per_second", bits_f64(m.events_per_second)),
        ("budget_spent", bits_f64(m.budget_spent)),
        ("budget_burn_rate", bits_f64(m.budget_burn_rate)),
    ])
}

fn dec_metrics(v: &Value) -> Decoded<ServiceMetrics> {
    Ok(ServiceMetrics {
        dispatched: get_usize(v, "dispatched")?,
        answers_delivered: get_usize(v, "answers_delivered")?,
        answers_rejected: get_usize(v, "answers_rejected")?,
        timeouts: get_usize(v, "timeouts")?,
        requeues: get_usize(v, "requeues")?,
        refreshes: get_usize(v, "refreshes")?,
        events_processed: get_usize(v, "events_processed")?,
        sim_duration: get_sim_time(v, "sim_duration")?,
        wall_seconds: get_f64_bits(v, "wall_seconds")?,
        latency_p50: get_f64_bits(v, "latency_p50")?,
        latency_p95: get_f64_bits(v, "latency_p95")?,
        latency_p99: get_f64_bits(v, "latency_p99")?,
        answers_per_time_unit: get_f64_bits(v, "answers_per_time_unit")?,
        events_per_second: get_f64_bits(v, "events_per_second")?,
        budget_spent: get_f64_bits(v, "budget_spent")?,
        budget_burn_rate: get_f64_bits(v, "budget_burn_rate")?,
    })
}

fn enc_active(a: &ActiveProjectState) -> Value {
    obj([
        ("core", enc_core(&a.core)),
        (
            "shards",
            Value::Arr(a.shards.iter().map(enc_shard).collect()),
        ),
        ("answers", enc_answers(&a.answers)),
        ("answers_since", num(a.answers_since)),
        ("last_refresh", bits_f64(a.last_refresh.as_f64())),
        ("requeues", usizes(&a.requeues)),
        (
            "abandoned",
            Value::Arr(a.abandoned.iter().map(|o| num(o.index())).collect()),
        ),
        ("backoff_until", f64s(&a.backoff_until)),
        ("collector", enc_collector(&a.collector)),
        ("started_at", bits_f64(a.started_at.as_f64())),
        ("done", Value::Bool(a.done)),
        ("starved", Value::Bool(a.starved)),
    ])
}

fn dec_active(v: &Value) -> Decoded<ActiveProjectState> {
    let shards = get_arr(v, "shards")?
        .iter()
        .map(dec_shard)
        .collect::<Decoded<Vec<_>>>()?;
    Ok(ActiveProjectState {
        core: dec_core(field(v, "core")?)?,
        shards,
        answers: dec_answers(v, "answers")?,
        answers_since: get_usize(v, "answers_since")?,
        last_refresh: get_sim_time(v, "last_refresh")?,
        requeues: arr_usize(v, "requeues")?,
        abandoned: arr_usize(v, "abandoned")?
            .into_iter()
            .map(ObjectId)
            .collect(),
        backoff_until: get_f64s(v, "backoff_until")?,
        collector: dec_collector(field(v, "collector")?)?,
        started_at: get_sim_time(v, "started_at")?,
        done: get_bool(v, "done")?,
        starved: get_bool(v, "starved")?,
    })
}

fn enc_project(p: &ProjectCheckpoint) -> Value {
    match p {
        ProjectCheckpoint::Rejected => obj([("status", Value::Str("rejected".into()))]),
        ProjectCheckpoint::Queued => obj([("status", Value::Str("queued".into()))]),
        ProjectCheckpoint::Active(state) => obj([
            ("status", Value::Str("active".into())),
            ("state", enc_active(state)),
        ]),
        ProjectCheckpoint::Completed { outcome, metrics } => obj([
            ("status", Value::Str("completed".into())),
            ("outcome", enc_outcome(outcome)),
            ("metrics", enc_metrics(metrics)),
        ]),
        ProjectCheckpoint::Failed { reason, metrics } => obj([
            ("status", Value::Str("failed".into())),
            ("reason", Value::Str(reason.clone())),
            ("metrics", enc_metrics(metrics)),
        ]),
    }
}

fn dec_project(v: &Value) -> Decoded<ProjectCheckpoint> {
    match get_str(v, "status")? {
        "rejected" => Ok(ProjectCheckpoint::Rejected),
        "queued" => Ok(ProjectCheckpoint::Queued),
        "active" => Ok(ProjectCheckpoint::Active(Box::new(dec_active(field(
            v, "state",
        )?)?))),
        "completed" => Ok(ProjectCheckpoint::Completed {
            outcome: dec_outcome(field(v, "outcome")?)?,
            metrics: dec_metrics(field(v, "metrics")?)?,
        }),
        "failed" => Ok(ProjectCheckpoint::Failed {
            reason: get_str(v, "reason")?.to_string(),
            metrics: dec_metrics(field(v, "metrics")?)?,
        }),
        other => Err(corrupt(format!("unknown project status '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x).unwrap()
    }

    fn sample_metrics() -> ServiceMetrics {
        ServiceMetrics {
            dispatched: 10,
            answers_delivered: 7,
            answers_rejected: 1,
            timeouts: 2,
            requeues: 2,
            refreshes: 3,
            events_processed: 19,
            sim_duration: t(42.5),
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

    /// An active project carrying every kind of core and engine state.
    fn sample_active() -> ActiveProjectState {
        let mut answers = AnswerSet::new(3);
        answers
            .record(Answer {
                object: ObjectId(0),
                annotator: AnnotatorId(1),
                label: ClassId(1),
            })
            .unwrap();
        answers
            .record(Answer {
                object: ObjectId(2),
                annotator: AnnotatorId(0),
                label: ClassId(0),
            })
            .unwrap();
        let core = CoreState {
            run: RunSnapshot {
                classifier: ClassifierSnapshot {
                    params: vec![0.5, -1.25, f32::EPSILON],
                    opt_state: vec![(vec![0.1, 0.2], vec![0.3, 0.4], 11)],
                    trained: true,
                    generation: 3,
                },
                agent: AgentState {
                    dqn: DqnSnapshot {
                        online: vec![1.0, 2.0],
                        target: vec![1.0, 2.5],
                        opt_state: vec![],
                        replay: vec![Transition {
                            state_action: vec![0.25],
                            reward: -0.5,
                            next_candidates: vec![vec![1.0], vec![2.0]].into(),
                            terminal: false,
                        }],
                        replay_head: 1,
                        replay_pushed: 1,
                        train_steps: 5,
                    },
                    ucb_counts: Some(vec![(3, 1), (0, 0)]),
                    eps_steps: None,
                },
                labelled: vec![
                    LabelState::Inferred(ClassId(1)),
                    LabelState::Unlabelled,
                    LabelState::Enriched(ClassId(0)),
                ],
                qualities: vec![0.9, 0.4],
                prev_confidence: vec![Some(0.75), None, Some(0.5)],
                trace: vec![IterationStats {
                    iteration: 0,
                    enriched: 1,
                    selected: 2,
                    answers: 2,
                    spend: 2.5,
                    reward: -0.125,
                    labelled_total: 1,
                    td_loss: Some(0.01),
                }],
                trust_agree: 1.0,
                trust_scored: 2.0,
                phi_trust: 0.5,
                engine: Some(EngineSnapshot {
                    last: InferenceResult {
                        posteriors: vec![Some(vec![0.9, 0.1]), None, Some(vec![0.2, 0.8])],
                        confusions: vec![ConfusionMatrix::from_rows(&[
                            vec![0.8, 0.2],
                            vec![0.3, 0.7],
                        ])
                        .unwrap()],
                        class_prior: vec![0.6, 0.4],
                        iterations: 7,
                        log_likelihood: f64::NAN, // must survive the round trip
                    },
                    answer_counts: vec![1, 0, 1],
                    total_answers: 2,
                    moved: vec![true, false, true],
                    answered: vec![0, 2],
                    warm_calls_since_full: 1,
                    calls: 4,
                }),
            },
            outstanding: vec![PendingBatch {
                assignments: vec![Assignment {
                    object: ObjectId(2),
                    annotators: vec![AnnotatorId(0), AnnotatorId(1)],
                    embeddings: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
                }],
                conf_before: vec![(ObjectId(2), 0.33)],
                phi_guesses: vec![(ObjectId(2), 1)],
            }],
            fixed_allowance: None,
            last_spent: 0.3,
            refresh_index: 2,
            rng: [u64::MAX, 0, 0xDEAD_BEEF, 42],
            quarantine: vec![
                QuarantineStatus::Active,
                QuarantineStatus::Quarantined {
                    until_refresh: 6,
                    answers_at_entry: 12,
                },
                QuarantineStatus::Probation {
                    answers_at_entry: 9,
                },
            ],
        };
        ActiveProjectState {
            core,
            shards: vec![ShardState {
                now: t(4.5),
                next_seq: 7,
                events: vec![
                    Event {
                        at: t(5.0),
                        seq: 3,
                        kind: EventKind::Deliver(AssignmentId(1)),
                    },
                    Event {
                        at: t(6.0),
                        seq: 5,
                        kind: EventKind::Expire(AssignmentId(1)),
                    },
                ],
                records: vec![AssignmentRecord {
                    id: AssignmentId(0),
                    object: ObjectId(0),
                    annotator: AnnotatorId(1),
                    cost: 1.25,
                    dispatched_at: t(0.0),
                    deadline: t(8.0),
                    status: AssignmentStatus::Delivered,
                }],
                uids: vec![5],
                labels: vec![Some(ClassId(1))],
                frontier: t(4.5),
            }],
            answers,
            answers_since: 1,
            last_refresh: t(4.0),
            requeues: vec![0, 2, 0],
            abandoned: vec![ObjectId(1)],
            backoff_until: vec![0.0, 9.5, 0.0],
            collector: MetricsCollector {
                latencies: vec![1.5, f64::MIN_POSITIVE],
                dispatched: 4,
                delivered: 2,
                rejected: 1,
                timeouts: 1,
                requeues: 1,
                refreshes: 2,
                events: 9,
            },
            started_at: t(0.0),
            done: false,
            starved: false,
        }
    }

    fn sample_checkpoint() -> RunCheckpoint {
        RunCheckpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            annotators: 4,
            now: t(17.25),
            rounds: 9,
            next_uid: 123,
            queued: vec![3],
            active: vec![4],
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
            trace: vec![
                (
                    0,
                    TraceEvent::Dispatched {
                        at: t(1.5),
                        id: AssignmentId(5),
                        object: ObjectId(2),
                        annotator: AnnotatorId(1),
                    },
                ),
                (
                    4,
                    TraceEvent::Refreshed {
                        at: t(4.0),
                        answers: 2,
                        labelled: 1,
                    },
                ),
                (
                    4,
                    TraceEvent::Quarantined {
                        at: t(4.0),
                        annotator: AnnotatorId(2),
                    },
                ),
            ],
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
                ProjectCheckpoint::Active(Box::new(sample_active())),
            ],
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let cp = sample_checkpoint();
        let text = cp.encode();
        let decoded = RunCheckpoint::decode(&text).unwrap();
        // Deterministic rendering makes byte equality the strongest
        // round-trip check available without Eq on every nested type.
        assert_eq!(decoded.encode(), text);
        assert_eq!(decoded.fingerprint, cp.fingerprint);
        assert_eq!(decoded.queued, cp.queued);
        assert_eq!(decoded.trace, cp.trace);
        // The deliberately non-decimal reserved amount survives bit-exact.
        assert_eq!(
            decoded.accounts[0].reserved.to_bits(),
            cp.accounts[0].reserved.to_bits()
        );
        let ProjectCheckpoint::Active(state) = &decoded.projects[4] else {
            panic!("project 4 must decode as active");
        };
        assert_eq!(state.core.rng, [u64::MAX, 0, 0xDEAD_BEEF, 42]);
        let engine = state.core.run.engine.as_ref().unwrap();
        // A NaN log-likelihood must survive the round trip.
        assert!(engine.last.log_likelihood.is_nan());
        assert_eq!(
            engine.last.posteriors,
            vec![Some(vec![0.9, 0.1]), None, Some(vec![0.2, 0.8])]
        );
        assert_eq!(state.backoff_until, vec![0.0, 9.5, 0.0]);
    }

    fn assert_corrupt(text: &str) {
        match RunCheckpoint::decode(text) {
            Err(ServiceError::CorruptCheckpoint(_)) => {}
            other => panic!("want a corrupt-checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_rejected_with_a_typed_error() {
        let text = sample_checkpoint().encode();
        assert!(text.contains("\"version\":2"));
        let wrong_version = text.replacen("\"version\":2", "\"version\":99", 1);
        let err = RunCheckpoint::decode(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"));
        assert_corrupt("not json");
        assert_corrupt("{}");
        assert_corrupt(&text[..text.len() / 2]);
        // Truncating a hex blob breaks the fixed-width invariant.
        assert!(text.contains("3ff8000000000000"));
        assert_corrupt(&text.replacen("3ff8000000000000", "3ff800000000000", 1));
    }

    #[test]
    fn a_multi_byte_char_in_a_hex_blob_is_a_typed_error() {
        // Same byte length as the original chunk pair, but the `é`
        // straddles the 8-byte chunk boundary.
        let text = sample_checkpoint().encode();
        assert!(text.contains("3f000000bfa00000"));
        assert_corrupt(&text.replacen("3f000000bfa00000", "3f00000ébfa0000", 1));
    }

    #[test]
    fn a_signed_hex_field_is_a_typed_error() {
        let text = sample_checkpoint().encode();
        // `from_str_radix` alone would read this as 15.
        let fingerprint = "\"fingerprint\":\"deadbeefcafef00d\"";
        assert!(text.contains(fingerprint));
        assert_corrupt(&text.replacen(fingerprint, "\"fingerprint\":\"+00000000000000f\"", 1));
        // The same inside a concatenated f32 blob.
        assert_corrupt(&text.replacen("3f000000bfa00000", "+f000000bfa00000", 1));
        // And in a standalone 8-digit f32 field.
        assert!(text.contains("\"reward\":\"bf000000\""));
        assert_corrupt(&text.replacen("\"reward\":\"bf000000\"", "\"reward\":\"+f000000\"", 1));
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
