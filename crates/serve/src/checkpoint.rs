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
//! The encoding is hand-rolled JSON (the workspace has a
//! zero-external-dependency policy). [`encode`](RunCheckpoint::encode)
//! streams it into one `String` as it walks the state, with no
//! intermediate tree; [`decode`](RunCheckpoint::decode) reads it with
//! [`crowdrl_obs::json::parse`]. Bit-exactness rules the format:
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
//! * every object writes its keys in sorted order, the order a parsed
//!   [`Value`] renders in, so the same checkpoint always encodes to the
//!   same bytes and decoding then re-encoding reproduces them.
//!
//! Format version 3 writes each DQN replay's successor-candidate sets
//! once. The transitions of one purchased batch share one
//! `Arc<[Vec<f32>]>` of successor candidates in memory (the bootstrap
//! forwards each distinct set once, grouping on that identity). The
//! replay's `successors` table holds every distinct set, keyed by `Arc`
//! identity in first-appearance order, and each transition's `next` is
//! its index there. Decoding builds one shared `Arc` per table entry,
//! so a resumed run keeps the sharing. Version 2 repeated the set inside
//! every transition and is refused by its version number.
//!
//! [`decode`](RunCheckpoint::decode) validates shape and re-derives
//! nothing silently: any malformed input — bad JSON, a missing field, a
//! hex field that is not exactly 8 or 16 ASCII hex digits, a count that
//! is not a non-negative integer up to 2^53, a successor index outside
//! the table — is a typed [`ServiceError::CorruptCheckpoint`], never a
//! panic.
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
use crowdrl_obs::json::{parse, write_escaped, Value};
use crowdrl_rl::{DqnSnapshot, Transition};
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{
    AnnotatorId, Answer, AnswerSet, AssignmentId, ClassId, ConfusionMatrix, LabelState, ObjectId,
    SimTime,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Format version stamped into every checkpoint.
const VERSION: usize = 3;

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
        let mut w = Writer(String::new());
        w.obj(|w| {
            w.key("accounts").arr(&self.accounts, Writer::account);
            w.key("active").counts(&self.active);
            w.key("annotators").num(self.annotators);
            w.key("broker_evidence")
                .arr(&self.broker_evidence, |w, e| w.counts(e));
            w.key("broker_load").counts(&self.broker_load);
            w.key("fingerprint").hex_u64(self.fingerprint);
            w.key("next_uid").hex_u64(self.next_uid);
            w.key("now").bits_f64(self.now.as_f64());
            w.key("projects").arr(&self.projects, Writer::project);
            w.key("queued").counts(&self.queued);
            w.key("rounds").num(self.rounds);
            w.key("trace").arr(&self.trace, |w, (p, e)| w.traced(*p, e));
            w.key("version").num(VERSION);
        });
        w.0
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

/// Hex digits by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The streaming encoder: appends the document to one `String` as it
/// walks the state. Every object writes its keys in sorted order, the
/// order a parsed [`Value`] renders in, so a checkpoint's bytes are
/// canonical JSON.
struct Writer(String);

impl Writer {
    /// Separate the next key or value from the previous one: a comma,
    /// unless it opens a container or is the value of a key.
    fn sep(&mut self) {
        if !matches!(self.0.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.0.push(',');
        }
    }

    /// Start an object field; the next value written is its value.
    /// Keys are static ASCII and need no escaping.
    fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
        self
    }

    /// An object whose fields `fields` writes.
    fn obj(&mut self, fields: impl FnOnce(&mut Self)) {
        self.sep();
        self.0.push('{');
        fields(self);
        self.0.push('}');
    }

    /// An array whose elements `elements` writes.
    fn seq(&mut self, elements: impl FnOnce(&mut Self)) {
        self.sep();
        self.0.push('[');
        elements(self);
        self.0.push(']');
    }

    /// An array with one element per item, written by `item`.
    fn arr<I: IntoIterator>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item)) {
        self.seq(|w| {
            for x in items {
                item(w, x);
            }
        });
    }

    /// `value` written by `some`, or `null` when absent.
    fn opt<T>(&mut self, value: Option<T>, some: impl FnOnce(&mut Self, T)) {
        match value {
            Some(x) => some(self, x),
            None => self.null(),
        }
    }

    fn null(&mut self) {
        self.sep();
        self.0.push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.sep();
        self.0.push_str(if b { "true" } else { "false" });
    }

    /// A static ASCII tag (an enum variant's name) as a JSON string.
    fn tag(&mut self, tag: &str) {
        self.sep();
        self.0.push('"');
        self.0.push_str(tag);
        self.0.push('"');
    }

    /// Free text as an escaped JSON string.
    fn text(&mut self, s: &str) {
        self.sep();
        write_escaped(&mut self.0, s);
    }

    /// A small exact count as a plain JSON number (exact below 2^53,
    /// far beyond any count here).
    fn num(&mut self, n: usize) {
        self.sep();
        let _ = write!(self.0, "{n}");
    }

    /// Counts as an array of plain JSON numbers.
    fn counts(&mut self, xs: &[usize]) {
        self.arr(xs, |w, &x| w.num(x));
    }

    /// The low `width` hex digits of `bits`, most significant first.
    fn hex_digits(&mut self, bits: u64, width: u32) {
        for shift in (0..width).rev() {
            let digit = (bits >> (4 * shift)) as usize & 0xf;
            self.0.push(char::from(HEX_DIGITS[digit]));
        }
    }

    /// A `u64` as a 16-hex-digit string (JSON numbers are only exact
    /// below 2^53).
    fn hex_u64(&mut self, v: u64) {
        self.sep();
        self.0.push('"');
        self.hex_digits(v, 16);
        self.0.push('"');
    }

    /// An `f64` as its 16-hex-digit IEEE bit pattern.
    fn bits_f64(&mut self, v: f64) {
        self.hex_u64(v.to_bits());
    }

    /// An `f32` as its 8-hex-digit IEEE bit pattern.
    fn bits_f32(&mut self, v: f32) {
        self.f32s(&[v]);
    }

    /// Concatenated 16-hex-digit bit patterns, one per f64, as one string.
    fn f64s(&mut self, xs: &[f64]) {
        self.sep();
        self.0.reserve(xs.len() * 16 + 2);
        self.0.push('"');
        for x in xs {
            self.hex_digits(x.to_bits(), 16);
        }
        self.0.push('"');
    }

    /// Concatenated 8-hex-digit bit patterns, one per f32, as one string.
    fn f32s(&mut self, xs: &[f32]) {
        self.sep();
        self.0.reserve(xs.len() * 8 + 2);
        self.0.push('"');
        for x in xs {
            self.hex_digits(u64::from(x.to_bits()), 8);
        }
        self.0.push('"');
    }
}

/// Look up a required object field.
fn field<'v>(v: &'v Value, key: &str) -> Decoded<&'v Value> {
    v.get(key)
        .ok_or_else(|| corrupt(format!("missing field {key:?}")))
}

/// Read a count: a plain JSON number that is non-negative, integral and
/// at most 2^53, above which JSON numbers are no longer exact. Every
/// count the decoder reads goes through here, so `1.5` or `1e300` is
/// rejected instead of truncated or saturated.
fn count(v: &Value) -> Option<usize> {
    let n = v.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as usize)
}

/// Decode a count field.
fn get_usize(v: &Value, key: &str) -> Decoded<usize> {
    count(field(v, key)?).ok_or_else(|| corrupt(format!("field {key:?} is not a count")))
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

/// Decode an array-of-counts value.
fn dec_usizes(v: &Value, what: &str) -> Decoded<Vec<usize>> {
    let Value::Arr(items) = v else {
        return Err(corrupt(format!("{what} is not an array")));
    };
    items
        .iter()
        .enumerate()
        .map(|(i, x)| count(x).ok_or_else(|| corrupt(format!("{what}[{i}] is not a count"))))
        .collect()
}

/// Decode an array-of-counts field.
fn arr_usize(v: &Value, key: &str) -> Decoded<Vec<usize>> {
    dec_usizes(field(v, key)?, key)
}

// ---------------------------------------------------------------------------
// Scheduler, ledger, trace and answers
// ---------------------------------------------------------------------------

impl Writer {
    /// A pending scheduler event.
    fn event(&mut self, e: &Event) {
        let (kind, id) = match e.kind {
            EventKind::Deliver(id) => ("deliver", id),
            EventKind::Expire(id) => ("expire", id),
        };
        self.obj(|w| {
            w.key("at").bits_f64(e.at.as_f64());
            w.key("id").hex_u64(id.0);
            w.key("kind").tag(kind);
            w.key("seq").hex_u64(e.seq);
        });
    }

    /// A ledger assignment record. Its id is its position in the ledger.
    fn record(&mut self, r: &AssignmentRecord) {
        let status = match r.status {
            AssignmentStatus::InFlight => "in_flight",
            AssignmentStatus::Delivered => "delivered",
            AssignmentStatus::Expired => "expired",
        };
        self.obj(|w| {
            w.key("annotator").num(r.annotator.0);
            w.key("cost").bits_f64(r.cost);
            w.key("deadline").bits_f64(r.deadline.as_f64());
            w.key("dispatched_at").bits_f64(r.dispatched_at.as_f64());
            w.key("object").num(r.object.0);
            w.key("status").tag(status);
        });
    }

    /// An observable trace event of project `p`, its fields and `p`
    /// merged into one object.
    fn traced(&mut self, p: usize, e: &TraceEvent) {
        self.obj(|w| match e {
            TraceEvent::Dispatched {
                at,
                id,
                object,
                annotator,
            } => {
                w.key("annotator").num(annotator.0);
                w.key("at").bits_f64(at.as_f64());
                w.key("id").hex_u64(id.0);
                w.key("object").num(object.0);
                w.key("p").num(p);
                w.key("t").tag("dispatched");
            }
            TraceEvent::Delivered { at, id, label } => {
                w.key("at").bits_f64(at.as_f64());
                w.key("id").hex_u64(id.0);
                w.key("label").num(label.0);
                w.key("p").num(p);
                w.key("t").tag("delivered");
            }
            TraceEvent::Rejected { at, id } => {
                w.key("at").bits_f64(at.as_f64());
                w.key("id").hex_u64(id.0);
                w.key("p").num(p);
                w.key("t").tag("rejected");
            }
            TraceEvent::Expired { at, id, requeued } => {
                w.key("at").bits_f64(at.as_f64());
                w.key("id").hex_u64(id.0);
                w.key("p").num(p);
                w.key("requeued").bool(*requeued);
                w.key("t").tag("expired");
            }
            TraceEvent::Refreshed {
                at,
                answers,
                labelled,
            } => {
                w.key("answers").num(*answers);
                w.key("at").bits_f64(at.as_f64());
                w.key("labelled").num(*labelled);
                w.key("p").num(p);
                w.key("t").tag("refreshed");
            }
            TraceEvent::Quarantined { at, annotator } => {
                w.key("annotator").num(annotator.0);
                w.key("at").bits_f64(at.as_f64());
                w.key("p").num(p);
                w.key("t").tag("quarantined");
            }
            TraceEvent::QuarantineReleased { at, annotator } => {
                w.key("annotator").num(annotator.0);
                w.key("at").bits_f64(at.as_f64());
                w.key("p").num(p);
                w.key("t").tag("quarantine_released");
            }
        });
    }

    /// An answer set as per-object `[annotator, class]` pairs.
    fn answers(&mut self, answers: &AnswerSet) {
        self.arr(0..answers.num_objects(), |w, i| {
            w.arr(answers.answers_for(ObjectId(i)), |w, &(a, c)| {
                w.seq(|w| {
                    w.num(a.0);
                    w.num(c.0);
                })
            })
        });
    }
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
            let (Some(a), Some(c)) = (count(a), count(c)) else {
                return Err(corrupt(format!(
                    "{key}[{i}]: answer pair is not two counts"
                )));
            };
            answers
                .record(Answer {
                    object: ObjectId(i),
                    annotator: AnnotatorId(a),
                    label: ClassId(c),
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

impl Writer {
    fn opt_state(&mut self, state: &[OptSlot]) {
        self.arr(state, |w, (m, v, t)| {
            w.obj(|w| {
                w.key("m").f32s(m);
                w.key("t").hex_u64(*t);
                w.key("v").f32s(v);
            })
        });
    }

    fn classifier(&mut self, c: &ClassifierSnapshot) {
        self.obj(|w| {
            w.key("generation").hex_u64(c.generation);
            w.key("opt_state").opt_state(&c.opt_state);
            w.key("params").f32s(&c.params);
            w.key("trained").bool(c.trained);
        });
    }

    /// A replay transition; `next` indexes its successor-candidate set
    /// in the DQN's `successors` table.
    fn transition(&mut self, t: &Transition, next: usize) {
        self.obj(|w| {
            w.key("next").num(next);
            w.key("reward").bits_f32(t.reward);
            w.key("sa").f32s(&t.state_action);
            w.key("terminal").bool(t.terminal);
        });
    }

    /// The DQN state. Transitions of one purchased batch share one
    /// successor-candidate `Arc`, so each distinct set is written once
    /// in the `successors` table, keyed by `Arc` identity in
    /// first-appearance order, and each transition writes its index.
    fn dqn(&mut self, d: &DqnSnapshot) {
        let mut successors: Vec<&[Vec<f32>]> = Vec::new();
        let mut index_of: HashMap<*const Vec<f32>, usize> = HashMap::new();
        self.obj(|w| {
            w.key("online").f32s(&d.online);
            w.key("opt_state").opt_state(&d.opt_state);
            w.key("replay").arr(&d.replay, |w, t| {
                let next = *index_of
                    .entry(t.next_candidates.as_ptr())
                    .or_insert_with(|| {
                        successors.push(&t.next_candidates);
                        successors.len() - 1
                    });
                w.transition(t, next);
            });
            w.key("replay_head").num(d.replay_head);
            w.key("replay_pushed").num(d.replay_pushed);
            w.key("successors")
                .arr(&successors, |w, set| w.arr(set.iter(), |w, c| w.f32s(c)));
            w.key("target").f32s(&d.target);
            w.key("train_steps").num(d.train_steps);
        });
    }

    fn agent(&mut self, a: &AgentState) {
        self.obj(|w| {
            w.key("dqn").dqn(&a.dqn);
            w.key("eps_steps").opt(a.eps_steps, Writer::hex_u64);
            w.key("ucb_counts").opt(a.ucb_counts.as_ref(), |w, counts| {
                w.arr(counts, |w, &(n, c)| w.arr([n, c], Writer::hex_u64))
            });
        });
    }

    /// A per-object label state: `null`, `{"i":class}` or `{"e":class}`.
    fn label_state(&mut self, l: LabelState) {
        match l {
            LabelState::Unlabelled => self.null(),
            LabelState::Inferred(c) => self.obj(|w| w.key("i").num(c.0)),
            LabelState::Enriched(c) => self.obj(|w| w.key("e").num(c.0)),
        }
    }

    fn assignment(&mut self, a: &Assignment) {
        self.obj(|w| {
            w.key("annotators").arr(&a.annotators, |w, x| w.num(x.0));
            w.key("embeddings").arr(&a.embeddings, |w, e| w.f32s(e));
            w.key("object").num(a.object.0);
        });
    }

    fn pending(&mut self, p: &PendingBatch) {
        self.obj(|w| {
            w.key("assignments").arr(&p.assignments, Writer::assignment);
            w.key("conf_before").arr(&p.conf_before, |w, &(o, c)| {
                w.seq(|w| {
                    w.num(o.0);
                    w.bits_f64(c);
                })
            });
            w.key("phi_guesses")
                .arr(&p.phi_guesses, |w, &(o, g)| w.arr([o.0, g], Writer::num));
        });
    }

    /// One iteration's workflow stats.
    fn stats(&mut self, s: &IterationStats) {
        self.obj(|w| {
            w.key("answers").num(s.answers);
            w.key("enriched").num(s.enriched);
            w.key("iteration").num(s.iteration);
            w.key("labelled_total").num(s.labelled_total);
            w.key("reward").bits_f64(s.reward);
            w.key("selected").num(s.selected);
            w.key("spend").bits_f64(s.spend);
            w.key("td_loss").opt(s.td_loss, Writer::bits_f32);
        });
    }

    /// A confusion matrix as one f64 string per true-class row.
    fn confusion(&mut self, m: &ConfusionMatrix) {
        let k = m.num_classes();
        let mut row = Vec::with_capacity(k);
        self.arr(0..k, |w, t| {
            row.clear();
            row.extend((0..k).map(|r| m.get(ClassId(t), ClassId(r))));
            w.f64s(&row);
        });
    }

    fn result(&mut self, r: &InferenceResult) {
        self.obj(|w| {
            w.key("class_prior").f64s(&r.class_prior);
            w.key("confusions").arr(&r.confusions, Writer::confusion);
            w.key("iterations").num(r.iterations);
            w.key("log_likelihood").bits_f64(r.log_likelihood);
            w.key("posteriors")
                .arr(&r.posteriors, |w, p| w.opt(p.as_deref(), Writer::f64s));
        });
    }

    fn engine(&mut self, e: &EngineSnapshot) {
        self.obj(|w| {
            w.key("answer_counts").counts(&e.answer_counts);
            w.key("answered").counts(&e.answered);
            w.key("calls").hex_u64(e.calls);
            w.key("last").result(&e.last);
            w.key("moved").arr(&e.moved, |w, &b| w.bool(b));
            w.key("total_answers").num(e.total_answers);
            w.key("warm_calls_since_full").num(e.warm_calls_since_full);
        });
    }

    fn quarantine_status(&mut self, s: QuarantineStatus) {
        match s {
            QuarantineStatus::Active => self.tag("active"),
            QuarantineStatus::Quarantined {
                until_refresh,
                answers_at_entry,
            } => self.obj(|w| {
                w.key("answers").num(answers_at_entry);
                w.key("s").tag("quarantined");
                w.key("until").num(until_refresh);
            }),
            QuarantineStatus::Probation { answers_at_entry } => self.obj(|w| {
                w.key("answers").num(answers_at_entry);
                w.key("s").tag("probation");
            }),
        }
    }

    /// An agent core's complete learning state.
    fn core(&mut self, c: &CoreState) {
        let run = &c.run;
        self.obj(|w| {
            w.key("agent").agent(&run.agent);
            w.key("classifier").classifier(&run.classifier);
            w.key("engine").opt(run.engine.as_ref(), Writer::engine);
            w.key("fixed_allowance")
                .opt(c.fixed_allowance, Writer::bits_f64);
            w.key("labelled")
                .arr(&run.labelled, |w, &l| w.label_state(l));
            w.key("last_spent").bits_f64(c.last_spent);
            w.key("outstanding").arr(&c.outstanding, Writer::pending);
            w.key("phi_trust").bits_f64(run.phi_trust);
            w.key("prev_confidence")
                .arr(&run.prev_confidence, |w, &p| w.opt(p, Writer::bits_f64));
            w.key("qualities").f64s(&run.qualities);
            w.key("quarantine")
                .arr(&c.quarantine, |w, &s| w.quarantine_status(s));
            w.key("refresh_index").num(c.refresh_index);
            w.key("rng").arr(c.rng, Writer::hex_u64);
            w.key("trace").arr(&run.trace, Writer::stats);
            w.key("trust_agree").bits_f64(run.trust_agree);
            w.key("trust_scored").bits_f64(run.trust_scored);
        });
    }
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

fn dec_classifier(v: &Value) -> Decoded<ClassifierSnapshot> {
    Ok(ClassifierSnapshot {
        params: get_f32s(v, "params")?,
        opt_state: dec_opt_state(v, "opt_state")?,
        trained: get_bool(v, "trained")?,
        generation: get_hex_u64(v, "generation")?,
    })
}

/// Decode one successor-candidate set of the DQN's `successors` table.
fn dec_successors(i: usize, v: &Value) -> Decoded<Arc<[Vec<f32>]>> {
    v.as_arr()
        .ok_or_else(|| corrupt(format!("successors[{i}] is not an array")))?
        .iter()
        .map(|c| {
            let c = c
                .as_str()
                .ok_or_else(|| corrupt(format!("successors[{i}]: candidate is not a string")))?;
            parse_f32s(c, "successors")
        })
        .collect()
}

/// Decode a transition; its successor set is the shared `Arc` its
/// `next` index names in `successors`.
fn dec_transition(v: &Value, successors: &[Arc<[Vec<f32>]>]) -> Decoded<Transition> {
    let next = get_usize(v, "next")?;
    let next_candidates = successors.get(next).ok_or_else(|| {
        corrupt(format!(
            "next: successor set {next} of a {}-set table",
            successors.len()
        ))
    })?;
    Ok(Transition {
        state_action: get_f32s(v, "sa")?,
        reward: parse_bits_f32(get_str(v, "reward")?, "reward")?,
        next_candidates: Arc::clone(next_candidates),
        terminal: get_bool(v, "terminal")?,
    })
}

fn dec_dqn(v: &Value) -> Decoded<DqnSnapshot> {
    let successors = get_arr(v, "successors")?
        .iter()
        .enumerate()
        .map(|(i, set)| dec_successors(i, set))
        .collect::<Decoded<Vec<_>>>()?;
    Ok(DqnSnapshot {
        online: get_f32s(v, "online")?,
        target: get_f32s(v, "target")?,
        opt_state: dec_opt_state(v, "opt_state")?,
        replay: get_arr(v, "replay")?
            .iter()
            .map(|t| dec_transition(t, &successors))
            .collect::<Decoded<_>>()?,
        replay_head: get_usize(v, "replay_head")?,
        replay_pushed: get_usize(v, "replay_pushed")?,
        train_steps: get_usize(v, "train_steps")?,
    })
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

/// Decode a per-object label state.
fn dec_label_state(v: &Value) -> Decoded<LabelState> {
    match v {
        Value::Null => Ok(LabelState::Unlabelled),
        Value::Obj(_) => {
            let class = |c: &Value| {
                count(c)
                    .map(ClassId)
                    .ok_or_else(|| corrupt("label state class is not a count"))
            };
            if let Some(c) = v.get("i") {
                Ok(LabelState::Inferred(class(c)?))
            } else if let Some(c) = v.get("e") {
                Ok(LabelState::Enriched(class(c)?))
            } else {
                Err(corrupt("label state object without i/e"))
            }
        }
        _ => Err(corrupt("label state is neither null nor an object")),
    }
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
            let o = count(o).ok_or_else(|| corrupt("conf_before: bad object"))?;
            let c = c
                .as_str()
                .ok_or_else(|| corrupt("conf_before: bad confidence"))?;
            Ok((
                ObjectId(o),
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
            let (Some(o), Some(g)) = (count(o), count(g)) else {
                return Err(corrupt("phi_guesses: pair is not two counts"));
            };
            Ok((ObjectId(o), g))
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

impl Writer {
    fn account(&mut self, a: &AccountState) {
        self.obj(|w| {
            w.key("charges").num(a.charges);
            w.key("reserved").bits_f64(a.reserved);
            w.key("spent").bits_f64(a.spent);
            w.key("total").bits_f64(a.total);
        });
    }

    /// Sampled labels, `null` for a dropped answer.
    fn labels(&mut self, labels: &[Option<ClassId>]) {
        self.arr(labels, |w, l| w.opt(*l, |w, c| w.num(c.0)));
    }

    fn shard(&mut self, s: &ShardState) {
        self.obj(|w| {
            w.key("events").arr(&s.events, Writer::event);
            w.key("frontier").bits_f64(s.frontier.as_f64());
            w.key("labels").labels(&s.labels);
            w.key("next_seq").hex_u64(s.next_seq);
            w.key("now").bits_f64(s.now.as_f64());
            w.key("records").arr(&s.records, Writer::record);
            w.key("uids").arr(&s.uids, |w, &u| w.hex_u64(u));
        });
    }

    fn collector(&mut self, c: &MetricsCollector) {
        self.obj(|w| {
            w.key("delivered").num(c.delivered);
            w.key("dispatched").num(c.dispatched);
            w.key("events").num(c.events);
            w.key("latencies").f64s(&c.latencies);
            w.key("refreshes").num(c.refreshes);
            w.key("rejected").num(c.rejected);
            w.key("requeues").num(c.requeues);
            w.key("timeouts").num(c.timeouts);
        });
    }

    fn outcome(&mut self, o: &LabellingOutcome) {
        self.obj(|w| {
            w.key("budget_spent").bits_f64(o.budget_spent);
            w.key("enriched").num(o.enriched_count);
            w.key("fallback").num(o.fallback_count);
            w.key("iterations").num(o.iterations);
            w.key("label_states")
                .arr(&o.label_states, |w, &l| w.label_state(l));
            w.key("labels").labels(&o.labels);
            w.key("total_answers").num(o.total_answers);
            w.key("trace").arr(&o.trace, Writer::stats);
        });
    }

    fn metrics(&mut self, m: &ServiceMetrics) {
        self.obj(|w| {
            w.key("answers_delivered").num(m.answers_delivered);
            w.key("answers_per_time_unit")
                .bits_f64(m.answers_per_time_unit);
            w.key("answers_rejected").num(m.answers_rejected);
            w.key("budget_burn_rate").bits_f64(m.budget_burn_rate);
            w.key("budget_spent").bits_f64(m.budget_spent);
            w.key("dispatched").num(m.dispatched);
            w.key("events_per_second").bits_f64(m.events_per_second);
            w.key("events_processed").num(m.events_processed);
            w.key("latency_p50").bits_f64(m.latency_p50);
            w.key("latency_p95").bits_f64(m.latency_p95);
            w.key("latency_p99").bits_f64(m.latency_p99);
            w.key("refreshes").num(m.refreshes);
            w.key("requeues").num(m.requeues);
            w.key("sim_duration").bits_f64(m.sim_duration.as_f64());
            w.key("timeouts").num(m.timeouts);
            w.key("wall_seconds").bits_f64(m.wall_seconds);
        });
    }

    fn active(&mut self, a: &ActiveProjectState) {
        self.obj(|w| {
            w.key("abandoned")
                .arr(&a.abandoned, |w, o| w.num(o.index()));
            w.key("answers").answers(&a.answers);
            w.key("answers_since").num(a.answers_since);
            w.key("backoff_until").f64s(&a.backoff_until);
            w.key("collector").collector(&a.collector);
            w.key("core").core(&a.core);
            w.key("done").bool(a.done);
            w.key("last_refresh").bits_f64(a.last_refresh.as_f64());
            w.key("requeues").counts(&a.requeues);
            w.key("shards").arr(&a.shards, Writer::shard);
            w.key("started_at").bits_f64(a.started_at.as_f64());
            w.key("starved").bool(a.starved);
        });
    }

    fn project(&mut self, p: &ProjectCheckpoint) {
        self.obj(|w| match p {
            ProjectCheckpoint::Rejected => {
                w.key("status").tag("rejected");
            }
            ProjectCheckpoint::Queued => {
                w.key("status").tag("queued");
            }
            ProjectCheckpoint::Active(state) => {
                w.key("state").active(state);
                w.key("status").tag("active");
            }
            ProjectCheckpoint::Completed { outcome, metrics } => {
                w.key("metrics").metrics(metrics);
                w.key("outcome").outcome(outcome);
                w.key("status").tag("completed");
            }
            ProjectCheckpoint::Failed { reason, metrics } => {
                w.key("metrics").metrics(metrics);
                w.key("reason").text(reason);
                w.key("status").tag("failed");
            }
        });
    }
}

fn dec_account(v: &Value) -> Decoded<AccountState> {
    Ok(AccountState {
        total: get_f64_bits(v, "total")?,
        spent: get_f64_bits(v, "spent")?,
        charges: get_usize(v, "charges")?,
        reserved: get_f64_bits(v, "reserved")?,
    })
}

fn dec_traced(v: &Value) -> Decoded<(usize, TraceEvent)> {
    Ok((get_usize(v, "p")?, dec_trace_event(v)?))
}

fn dec_labels(v: &Value, key: &str) -> Decoded<Vec<Option<ClassId>>> {
    get_arr(v, key)?
        .iter()
        .enumerate()
        .map(|(i, x)| match x {
            Value::Null => Ok(None),
            _ => count(x)
                .map(|c| Some(ClassId(c)))
                .ok_or_else(|| corrupt(format!("{key}[{i}] is not null or a class"))),
        })
        .collect()
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
                        replay: {
                            // Two transitions of one batch share their
                            // successor set; a terminal one has none.
                            let shared: Arc<[Vec<f32>]> = vec![vec![1.0], vec![2.0]].into();
                            vec![
                                Transition {
                                    state_action: vec![0.25],
                                    reward: -0.5,
                                    next_candidates: Arc::clone(&shared),
                                    terminal: false,
                                },
                                Transition {
                                    state_action: vec![0.5],
                                    reward: 0.75,
                                    next_candidates: vec![].into(),
                                    terminal: true,
                                },
                                Transition {
                                    state_action: vec![0.125],
                                    reward: 1.0,
                                    next_candidates: shared,
                                    terminal: false,
                                },
                            ]
                        },
                        replay_head: 3,
                        replay_pushed: 3,
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
        // The shared successor set is written once and decodes to one
        // `Arc` again.
        assert!(text.contains("\"successors\":[[\"3f800000\",\"40000000\"],[]]"));
        let replay = &state.core.run.agent.dqn.replay;
        assert!(Arc::ptr_eq(
            &replay[0].next_candidates,
            &replay[2].next_candidates
        ));
        assert!(!Arc::ptr_eq(
            &replay[0].next_candidates,
            &replay[1].next_candidates
        ));
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
        let version = format!("\"version\":{VERSION}");
        assert!(text.contains(&version));
        let wrong_version = text.replacen(&version, "\"version\":99", 1);
        let err = RunCheckpoint::decode(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"));
        assert_corrupt("not json");
        assert_corrupt("{}");
        assert_corrupt(&text[..text.len() / 2]);
        // Truncating a hex blob breaks the fixed-width invariant.
        assert!(text.contains("3ff8000000000000"));
        assert_corrupt(&text.replacen("3ff8000000000000", "3ff800000000000", 1));
        // A count that is not a non-negative integer up to 2^53 is
        // rejected, not truncated or saturated.
        for (count, bad) in [
            ("\"answers\":[[[1,1]]", "\"answers\":[[[1.5,1]]"),
            ("{\"i\":1}", "{\"i\":1.9}"),
            ("\"phi_guesses\":[[2,1]]", "\"phi_guesses\":[[2,1e300]]"),
        ] {
            assert!(text.contains(count), "{count}");
            assert_corrupt(&text.replacen(count, bad, 1));
        }
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
