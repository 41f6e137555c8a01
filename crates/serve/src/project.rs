//! Per-project runtime state: one full CrowdRL run, sharded.

use crate::core_loop::AgentCore;
use crate::metrics::{MetricsCollector, ServiceMetrics};
use crate::shard::Shard;
use crowdrl_core::outcome::LabellingOutcome;
use crowdrl_sim::FaultInjector;
use crowdrl_types::{AnswerSet, ObjectId, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

/// Where a project is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectStatus {
    /// Waiting for a slot (admission policy `Queue`).
    Queued,
    /// Running.
    Active,
    /// Finished; its report carries an outcome.
    Completed,
    /// Refused at admission (policy `Reject`, or shed from a bounded
    /// queue); no money ever moved.
    Rejected,
    /// Failed mid-run — a shard panicked or a fault plan aborted it.
    /// Its reservations were released, its broker evidence withdrawn,
    /// and its report carries the [`ServiceError`](crate::ServiceError).
    Failed,
}

/// One admitted project's live state: its decision brain
/// ([`AgentCore`]) fed with merged cross-shard answers.
pub(crate) struct Project<'a> {
    /// Submission index == account id == obs scope id.
    pub index: usize,
    /// Display name from the spec.
    pub name: String,
    /// Broker priority from the spec.
    pub priority: u32,
    /// The full single-run decision loop, scoped to this project.
    pub core: AgentCore<'a>,
    /// The project's event-loop partitions.
    pub shards: Vec<Shard>,
    /// Merged answers across shards, in deterministic merge order.
    /// Shared with the core per refresh as a cheap `Arc` clone; the
    /// merge mutates through `Arc::make_mut` (in place once the round's
    /// requests are dropped).
    pub answers: Arc<AnswerSet>,
    /// Answers merged since the last refresh.
    pub answers_since: usize,
    /// Watermark reading at the last refresh.
    pub last_refresh: SimTime,
    /// Per-object requeue counts.
    pub requeues: Vec<usize>,
    /// Objects that exhausted their requeue allowance.
    pub abandoned: HashSet<ObjectId>,
    /// Per-object supervisor backoff deadline (absolute sim time); an
    /// object is withheld from refreshes until its deadline passes.
    pub backoff_until: Vec<f64>,
    /// Rewrites this project's sampled outcomes (None when the fault
    /// plan schedules no assignment-level fault).
    pub injector: Option<FaultInjector>,
    /// Raw service observations (dispatches, latencies, …).
    pub collector: MetricsCollector,
    /// When the project activated (queued projects start late).
    pub started_at: SimTime,
    /// Lifecycle state.
    pub status: ProjectStatus,
    /// The core reported all objects labelled.
    pub done: bool,
    /// Last dispatch round granted nothing *because of pool contention*
    /// (annotator slots held by other projects) — the project must stay
    /// alive: the contended slots are tied to in-flight assignments
    /// elsewhere, so time will advance and free them.
    pub starved: bool,
    /// Final labelling outcome, once completed.
    pub outcome: Option<LabellingOutcome>,
    /// Final service metrics, once completed.
    pub metrics: Option<ServiceMetrics>,
}

impl Project<'_> {
    /// Which shard owns `object`.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        object.index() % self.shards.len()
    }

    /// The deterministic cross-shard merge watermark: the minimum
    /// frontier over the project's shards. Inference refreshes read
    /// state *at* this watermark — every shard has settled everything up
    /// to it, so the merged answer set is a consistent cut no matter how
    /// unevenly the shards' event queues are loaded.
    pub fn watermark(&self) -> SimTime {
        self.shards
            .iter()
            .map(Shard::frontier)
            .min()
            .unwrap_or(self.started_at)
    }

    /// Earliest pending event across the project's shards.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(Shard::next_event_at).min()
    }

    /// Whether every shard's event queue is empty.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(Shard::is_idle)
    }

    /// Total pending settlement events across the project's shards (the
    /// reading [`ServiceConfig::max_settlement_backlog`] bounds).
    ///
    /// [`ServiceConfig::max_settlement_backlog`]:
    /// crate::ServiceConfig::max_settlement_backlog
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Whether a refresh is due: enough answers since the last one, or
    /// enough watermark time with at least one answer — or the project
    /// is idle (nothing in flight), in which case only a refresh can
    /// move it forward.
    pub fn refresh_due(&self, answer_watermark: usize, time_watermark: f64) -> bool {
        self.answers_since >= answer_watermark
            || (self.answers_since > 0
                && (self.watermark() - self.last_refresh).as_f64() >= time_watermark)
            || self.is_idle()
    }

    /// Objects the core must not select at `now`: in flight on any
    /// shard, abandoned, or still backing off after a timeout.
    pub fn blocked(&self, now: SimTime) -> HashSet<ObjectId> {
        let mut blocked: HashSet<ObjectId> = self.abandoned.iter().copied().collect();
        for shard in &self.shards {
            blocked.extend(shard.objects_in_flight());
        }
        let now = now.as_f64();
        blocked.extend(
            self.backoff_until
                .iter()
                .enumerate()
                .filter(|&(_, &until)| until > now)
                .map(|(i, _)| ObjectId(i)),
        );
        blocked
    }
}
