//! One project partition: a private event loop plus a private ledger
//! slice.
//!
//! Objects are sharded `object mod P`, so each shard owns a disjoint set
//! of objects, its own [`EventQueue`], and its own [`AssignmentLedger`]
//! (with shard-local assignment ids). That disjointness is the whole
//! parallelism story: a scheduling round advances every shard of every
//! active project to the same horizon concurrently — no shard touches
//! another's state — and the settlements each shard produced are merged
//! back *sequentially in (project, shard, event) order*, so the merged
//! answer stream, the budget charges, and the trace are identical no
//! matter how many threads advanced the shards.
//!
//! Money never moves inside a shard. Deliveries and expiries settle
//! against the shard ledger only ([`AssignmentLedger::settle_deliver`] /
//! [`settle_expire`]); the returned [`ShardEvent`]s carry the cost, and
//! the merge applies it to the owning project's [`AccountBook`] account.
//!
//! [`settle_expire`]: AssignmentLedger::settle_expire
//! [`AccountBook`]: crate::AccountBook

use crate::checkpoint::ShardState;
use crate::clock::EventQueue;
use crate::error::ServiceError;
use crate::event::EventKind;
use crate::ledger::{AssignmentLedger, AssignmentStatus, Delivery, Expiry};
use crowdrl_types::{AnnotatorId, AssignmentId, ClassId, ObjectId, Result, SimTime};
use std::collections::HashSet;

/// A settlement one shard produced while advancing, in event order.
/// `uid` is the service-wide assignment id (also the sampling-stream
/// index), so the merged trace reads like one ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ShardEvent {
    /// An answer arrived in time.
    Delivered {
        /// Service-wide assignment id.
        uid: u64,
        /// The object answered.
        object: ObjectId,
        /// The annotator who answered (their slot frees up).
        annotator: AnnotatorId,
        /// The label given.
        label: ClassId,
        /// Answer latency.
        latency: SimTime,
        /// Cost to charge the project's account.
        cost: f64,
        /// Arrival time.
        at: SimTime,
    },
    /// An answer arrived after its assignment already settled (expired,
    /// or delivered by an earlier copy) — dropped, nothing charged.
    RejectedLate {
        /// Service-wide assignment id.
        uid: u64,
        /// Arrival time.
        at: SimTime,
    },
    /// The timeout fired first: the reservation and the annotator slot
    /// are released at merge.
    Expired {
        /// Service-wide assignment id.
        uid: u64,
        /// The object whose question died.
        object: ObjectId,
        /// The annotator whose slot frees up.
        annotator: AnnotatorId,
        /// Reservation to release on the project's account.
        cost: f64,
        /// Expiry time.
        at: SimTime,
    },
}

/// Everything one shard settled during one round's advance.
#[derive(Debug, Default)]
pub(crate) struct ShardBatch {
    /// Settlements in event (pop) order.
    pub events: Vec<ShardEvent>,
    /// Events popped, including no-op pops (a timeout firing after its
    /// answer already delivered) — the per-project event counter.
    pub processed: usize,
}

/// One partition of one project (see module docs).
#[derive(Debug)]
pub(crate) struct Shard {
    queue: EventQueue,
    ledger: AssignmentLedger,
    /// Shard-local assignment id → service-wide uid.
    uids: Vec<u64>,
    /// Shard-local assignment id → the label the virtual crowd sampled
    /// (`None` = dropped; only the timeout will resolve it).
    labels: Vec<Option<ClassId>>,
    /// The horizon this shard was last advanced to — its merge
    /// frontier. The project's watermark is the min over its shards.
    frontier: SimTime,
    /// Settlements of the advance in progress. [`advance`](Self::advance)
    /// accumulates here and hands the batch out only on normal return,
    /// so a panic mid-advance leaves every already-settled event
    /// recoverable via [`drain_staged`](Self::drain_staged) — the ledger
    /// and this staging area never disagree about what was settled.
    staged: ShardBatch,
}

impl Shard {
    /// An empty shard with its clock at `start`.
    pub fn new(start: SimTime) -> Self {
        Self {
            queue: EventQueue::new(),
            ledger: AssignmentLedger::new(),
            uids: Vec::new(),
            labels: Vec::new(),
            frontier: start,
            staged: ShardBatch::default(),
        }
    }

    /// The merge frontier (last advance horizon).
    pub fn frontier(&self) -> SimTime {
        self.frontier
    }

    /// Time of the shard's earliest pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek_at()
    }

    /// Whether no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Pending (unsettled) events in this shard's queue — the
    /// settlement-backlog contribution the overload bound reads.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether `(object, annotator)` holds a live claim here.
    pub fn pair_claimed(&self, object: ObjectId, annotator: AnnotatorId) -> bool {
        self.ledger.pair_claimed(object, annotator)
    }

    /// Objects with an in-flight assignment (the refresh `blocked` set).
    pub fn objects_in_flight(&self) -> HashSet<ObjectId> {
        self.ledger.objects_in_flight()
    }

    /// Open an assignment whose budget was already reserved on the
    /// project's account: record it in the shard ledger and schedule its
    /// delivery (if the crowd answered), a duplicate copy of that
    /// delivery (if the fault plan injected one — the ledger rejects it
    /// on arrival), and its timeout, in that push order.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        object: ObjectId,
        annotator: AnnotatorId,
        cost: f64,
        uid: u64,
        now: SimTime,
        deadline: SimTime,
        response: Option<(ClassId, SimTime)>,
        duplicate_at: Option<SimTime>,
    ) -> Result<()> {
        let local = self
            .ledger
            .dispatch_reserved(object, annotator, cost, now, deadline)?;
        debug_assert_eq!(local.0 as usize, self.uids.len());
        self.uids.push(uid);
        self.labels.push(response.map(|(label, _)| label));
        if let Some((_, latency)) = response {
            self.queue.push(now + latency, EventKind::Deliver(local))?;
        }
        if let Some(at) = duplicate_at {
            self.queue.push(at, EventKind::Deliver(local))?;
        }
        self.queue.push(deadline, EventKind::Expire(local))?;
        Ok(())
    }

    /// Pop and settle every event at or before `horizon`, recording the
    /// settlements in pop order. Touches only this shard's state — safe
    /// to run concurrently with other shards' advances.
    pub fn advance(&mut self, horizon: SimTime) -> Result<ShardBatch> {
        while self.queue.peek_at().is_some_and(|at| at <= horizon) {
            let event = self.queue.pop().expect("peeked event vanished");
            self.staged.processed += 1;
            match event.kind {
                EventKind::Deliver(local) => {
                    let idx = local.0 as usize;
                    match self.ledger.settle_deliver(local, event.at)? {
                        Delivery::Accepted { cost, latency } => {
                            let record = self.ledger.record(local).expect("settled record");
                            let label = self.labels[idx].expect("delivered without a label");
                            self.staged.events.push(ShardEvent::Delivered {
                                uid: self.uids[idx],
                                object: record.object,
                                annotator: record.annotator,
                                label,
                                latency,
                                cost,
                                at: event.at,
                            });
                        }
                        Delivery::Rejected => self.staged.events.push(ShardEvent::RejectedLate {
                            uid: self.uids[idx],
                            at: event.at,
                        }),
                    }
                }
                EventKind::Expire(local) => {
                    let idx = local.0 as usize;
                    match self.ledger.settle_expire(local)? {
                        Expiry::TimedOut { cost } => {
                            let record = self.ledger.record(local).expect("settled record");
                            self.staged.events.push(ShardEvent::Expired {
                                uid: self.uids[idx],
                                object: record.object,
                                annotator: record.annotator,
                                cost,
                                at: event.at,
                            });
                        }
                        Expiry::AlreadySettled => {}
                    }
                }
            }
        }
        self.frontier = horizon;
        Ok(std::mem::take(&mut self.staged))
    }

    /// Take whatever an interrupted [`advance`](Self::advance) had
    /// already settled. After a normal advance this is empty; after a
    /// panic it holds the settlements whose returned batch unwound, so
    /// the containment path can still release their slots and
    /// reservations instead of leaking them.
    pub fn drain_staged(&mut self) -> ShardBatch {
        std::mem::take(&mut self.staged)
    }

    /// Cancel every in-flight assignment (the project is finishing
    /// early): settle them expired and return `(annotator, cost)` per
    /// cancellation so the caller can release broker slots and account
    /// reservations. Cancellations are not trace events — the project is
    /// over; what matters is that shared resources come back.
    pub fn cancel_in_flight(&mut self) -> Result<Vec<(AnnotatorId, f64)>> {
        let live: Vec<AssignmentId> = self
            .ledger
            .records()
            .iter()
            .filter(|r| r.status == AssignmentStatus::InFlight)
            .map(|r| r.id)
            .collect();
        let mut released = Vec::with_capacity(live.len());
        for id in live {
            let annotator = self.ledger.record(id).expect("live record").annotator;
            if let Expiry::TimedOut { cost } = self.ledger.settle_expire(id)? {
                released.push((annotator, cost));
            }
        }
        Ok(released)
    }

    /// Snapshot for checkpointing. Only meaningful at a round boundary:
    /// the staging area must be empty (an interrupted advance means the
    /// project is being failed, not checkpointed).
    pub fn export(&self) -> ShardState {
        debug_assert!(
            self.staged.events.is_empty() && self.staged.processed == 0,
            "checkpointing a shard with staged settlements"
        );
        let (now, next_seq, events) = self.queue.snapshot();
        ShardState {
            now,
            next_seq,
            events,
            records: self.ledger.records().to_vec(),
            uids: self.uids.clone(),
            labels: self.labels.clone(),
            frontier: self.frontier,
        }
    }

    /// Rebuild a shard from an [`export`](Self::export) snapshot. A
    /// pending event must name an assignment the snapshot's ledger
    /// issued; one that does not would fail the resumed run mid-way.
    pub fn restore(state: ShardState) -> Result<Self> {
        let issued = state.records.len();
        if let Some(event) = state.events.iter().find(|e| {
            let (EventKind::Deliver(id) | EventKind::Expire(id)) = e.kind;
            id.0 >= issued as u64
        }) {
            return Err(ServiceError::CorruptCheckpoint(format!(
                "shard event {:?} names an assignment its ledger of {issued} never issued",
                event.kind
            ))
            .into());
        }
        let queue = EventQueue::restore(state.now, state.next_seq, state.events)?;
        let ledger = AssignmentLedger::restore(state.records)?;
        if state.uids.len() != ledger.len() || state.labels.len() != ledger.len() {
            return Err(crowdrl_types::Error::ServiceFailure(format!(
                "shard snapshot shape mismatch: {} records, {} uids, {} labels",
                ledger.len(),
                state.uids.len(),
                state.labels.len()
            )));
        }
        Ok(Self {
            queue,
            ledger,
            uids: state.uids,
            labels: state.labels,
            frontier: state.frontier,
            staged: ShardBatch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x).unwrap()
    }

    #[test]
    fn advance_settles_in_event_order_up_to_the_horizon() {
        let mut shard = Shard::new(SimTime::ZERO);
        // Answer at 3, timeout at 10.
        shard
            .open(
                ObjectId(0),
                AnnotatorId(0),
                1.0,
                7,
                t(0.0),
                t(10.0),
                Some((ClassId(1), t(3.0))),
                None,
            )
            .unwrap();
        // Dropped: only the timeout at 5 will resolve it.
        shard
            .open(
                ObjectId(2),
                AnnotatorId(1),
                2.0,
                8,
                t(0.0),
                t(5.0),
                None,
                None,
            )
            .unwrap();
        let batch = shard.advance(t(4.0)).unwrap();
        assert_eq!(batch.processed, 1);
        assert!(matches!(
            batch.events[0],
            ShardEvent::Delivered {
                uid: 7,
                label: ClassId(1),
                cost,
                ..
            } if cost == 1.0
        ));
        assert_eq!(shard.frontier(), t(4.0));
        let batch = shard.advance(t(12.0)).unwrap();
        // The drop's timeout fires; the answered assignment's timeout is
        // a no-op pop (already delivered).
        assert_eq!(batch.processed, 2);
        assert_eq!(batch.events.len(), 1);
        assert!(matches!(
            batch.events[0],
            ShardEvent::Expired { uid: 8, cost, .. } if cost == 2.0
        ));
        assert!(shard.is_idle());
    }

    #[test]
    fn a_duplicate_delivery_settles_between_the_answer_and_the_timeout() {
        let mut shard = Shard::new(SimTime::ZERO);
        // Answer at 3, its duplicate copy also at 3, timeout at 10.
        shard
            .open(
                ObjectId(0),
                AnnotatorId(0),
                1.0,
                4,
                t(0.0),
                t(10.0),
                Some((ClassId(1), t(3.0))),
                Some(t(3.0)),
            )
            .unwrap();
        let batch = shard.advance(t(3.0)).unwrap();
        assert_eq!(batch.processed, 2);
        assert!(matches!(
            batch.events[0],
            ShardEvent::Delivered { uid: 4, .. }
        ));
        // The copy replays the same assignment and is rejected.
        assert_eq!(
            batch.events[1],
            ShardEvent::RejectedLate { uid: 4, at: t(3.0) }
        );
        let batch = shard.advance(t(10.0)).unwrap();
        assert_eq!(batch.processed, 1);
        assert!(batch.events.is_empty());
    }

    #[test]
    fn cancel_returns_every_live_reservation() {
        let mut shard = Shard::new(SimTime::ZERO);
        shard
            .open(
                ObjectId(0),
                AnnotatorId(3),
                1.5,
                0,
                t(0.0),
                t(10.0),
                Some((ClassId(0), t(2.0))),
                None,
            )
            .unwrap();
        shard
            .open(
                ObjectId(1),
                AnnotatorId(4),
                2.5,
                1,
                t(0.0),
                t(10.0),
                None,
                None,
            )
            .unwrap();
        shard.advance(t(2.0)).unwrap(); // first one delivers
        let released = shard.cancel_in_flight().unwrap();
        assert_eq!(released, vec![(AnnotatorId(4), 2.5)]);
        assert!(shard.cancel_in_flight().unwrap().is_empty());
    }
}
