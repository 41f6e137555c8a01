//! The simulated clock and its event queue.
//!
//! A 4-ary min-heap keyed by `(SimTime, seq)`. The clock advances only
//! when an event is popped, and never backwards: scheduling an event in
//! the past is an error (it would make the trace order-dependent).
//!
//! Why 4-ary instead of the standard library's binary heap: pop cost on
//! large queues is dominated by cache misses along the sift-down path.
//! A 4-ary heap halves the tree depth and keeps each node's children in
//! one or two cache lines, which flattens the per-event cost curve as
//! the queue grows (in a serve bench since deleted, the binary heap's
//! per-event cost grew ~3.5× from 1k to 100k pending events; DESIGN.md
//! §14.4 records the 4-ary heap's). Pop order is identical — `(at, seq)`
//! is a total order because `seq` is unique — so traces and checkpoints
//! are unaffected.

use crate::event::{Event, EventKind};
use crowdrl_types::{Error, Result, SimTime};

/// Arity of the event heap (children per node).
const ARITY: usize = 4;

/// A 4-ary min-heap of [`Event`]s ordered by `(at, seq)`.
#[derive(Debug, Default)]
struct D4Heap {
    items: Vec<Event>,
}

impl D4Heap {
    #[inline]
    fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    fn peek(&self) -> Option<&Event> {
        self.items.first()
    }

    fn push(&mut self, e: Event) {
        self.items.push(e);
        // Sift up.
        let mut i = self.items.len() - 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.items[i] < self.items[parent] {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<Event> {
        let n = self.items.len();
        if n == 0 {
            return None;
        }
        self.items.swap(0, n - 1);
        let top = self.items.pop();
        // Sift down.
        let n = self.items.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + ARITY).min(n) {
                if self.items[c] < self.items[best] {
                    best = c;
                }
            }
            if self.items[best] < self.items[i] {
                self.items.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
        top
    }

    fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.items.iter()
    }
}

/// Deterministic discrete-event scheduler.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: D4Heap,
    next_seq: u64,
    now: SimTime,
}

impl EventQueue {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated time (the `at` of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Schedule `kind` at absolute time `at`. Fails if `at` is before the
    /// current clock.
    pub fn push(&mut self, at: SimTime, kind: EventKind) -> Result<()> {
        if at < self.now {
            return Err(Error::ServiceFailure(format!(
                "cannot schedule an event at {at} when the clock reads {}",
                self.now
            )));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
        Ok(())
    }

    /// The time of the earliest pending event, without popping it. The
    /// service scheduler uses this to pick each round's horizon across
    /// many shard queues.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the earliest event and advance the clock to it.
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.heap.pop()?;
        self.now = event.at;
        Some(event)
    }

    /// Snapshot for checkpointing: the clock, the sequence counter, and
    /// every pending event in deterministic (pop) order.
    pub fn snapshot(&self) -> (SimTime, u64, Vec<Event>) {
        let mut events: Vec<Event> = self.heap.iter().copied().collect();
        events.sort();
        (self.now, self.next_seq, events)
    }

    /// Rebuild a queue from a [`snapshot`](Self::snapshot). Sequence
    /// numbers are preserved so tie-breaking replays identically.
    pub fn restore(now: SimTime, next_seq: u64, events: Vec<Event>) -> Result<Self> {
        for e in &events {
            if e.at < now {
                return Err(Error::ServiceFailure(format!(
                    "checkpointed event at {} precedes the clock {now}",
                    e.at
                )));
            }
            if e.seq >= next_seq {
                return Err(Error::ServiceFailure(format!(
                    "checkpointed event seq {} not below next_seq {next_seq}",
                    e.seq
                )));
            }
        }
        let mut heap = D4Heap::default();
        for e in events {
            heap.push(e);
        }
        Ok(Self {
            heap,
            next_seq,
            now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::AssignmentId;

    fn t(x: f64) -> SimTime {
        SimTime::new(x).unwrap()
    }

    #[test]
    fn pops_in_time_order_and_advances_clock() {
        let mut q = EventQueue::new();
        q.push(t(3.0), EventKind::Deliver(AssignmentId(0))).unwrap();
        q.push(t(1.0), EventKind::Deliver(AssignmentId(1))).unwrap();
        q.push(t(2.0), EventKind::Expire(AssignmentId(1))).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().kind, EventKind::Deliver(AssignmentId(1)));
        assert_eq!(q.now(), t(1.0));
        assert_eq!(q.pop().unwrap().kind, EventKind::Expire(AssignmentId(1)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Deliver(AssignmentId(0)));
        assert_eq!(q.now(), t(3.0));
        assert!(q.pop().is_none());
        // The clock keeps its final reading after draining.
        assert_eq!(q.now(), t(3.0));
    }

    #[test]
    fn ties_break_by_push_order() {
        let mut q = EventQueue::new();
        q.push(t(1.0), EventKind::Expire(AssignmentId(7))).unwrap();
        q.push(t(1.0), EventKind::Deliver(AssignmentId(7))).unwrap();
        assert_eq!(q.pop().unwrap().kind, EventKind::Expire(AssignmentId(7)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Deliver(AssignmentId(7)));
    }

    #[test]
    fn d4_heap_pops_in_exact_sorted_order_under_interleaving() {
        // The 4-ary heap must pop in exactly (at, seq) order for any
        // push/pop interleaving — this is what makes it a drop-in
        // replacement for the old binary heap (traces unchanged).
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        // Deterministic pseudo-random times via an LCG; interleave pops.
        let mut state = 0x2545f491_4f6cdd1du64;
        let mut pending = 0usize;
        for round in 0..2000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(round);
            let at = q.now().as_f64() + ((state >> 33) % 1000) as f64 / 10.0;
            q.push(
                SimTime::new(at).unwrap(),
                EventKind::Deliver(AssignmentId(round)),
            )
            .unwrap();
            pending += 1;
            if state.is_multiple_of(3) {
                popped.push(q.pop().unwrap());
                pending -= 1;
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
            pending -= 1;
        }
        assert_eq!(pending, 0);
        assert_eq!(popped.len(), 2000);
        // Each drain segment (between pushes) is internally sorted, and
        // the clock never moved backwards.
        for w in popped.windows(2) {
            assert!(w[1].at >= w[0].at || w[1].seq > w[0].seq);
        }
        // Full-drain check: push a fixed batch, verify exact sorted order.
        let mut q = EventQueue::new();
        let times = [7.0, 1.0, 3.0, 3.0, 9.0, 0.5, 3.0, 2.0, 8.0, 1.0];
        for (i, &x) in times.iter().enumerate() {
            q.push(t(x), EventKind::Deliver(AssignmentId(i as u64)))
                .unwrap();
        }
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        let mut want = drained.clone();
        want.sort();
        assert_eq!(drained, want);
    }

    #[test]
    fn rejects_scheduling_in_the_past() {
        let mut q = EventQueue::new();
        q.push(t(5.0), EventKind::Deliver(AssignmentId(0))).unwrap();
        q.pop();
        assert!(q.push(t(4.0), EventKind::Deliver(AssignmentId(1))).is_err());
        assert!(q.push(t(5.0), EventKind::Deliver(AssignmentId(1))).is_ok());
    }
}
