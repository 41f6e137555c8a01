//! The pool broker: deterministic arbitration of one shared annotator
//! pool across concurrent projects.
//!
//! Two shared resources need a referee once many projects dispatch into
//! the same pool:
//!
//! * **Concurrency slots.** Each annotator holds at most `capacity[a]`
//!   questions at a time (a [`CapacitySpec`] contract); the broker
//!   tracks the pool-wide in-flight load and refuses grants past it.
//! * **Trust evidence.** Each project runs its own quarantine view, but
//!   an annotator spamming project A is evidence for project B: once at
//!   least `threshold` projects hold an annotator in quarantine
//!   simultaneously, the broker blocks it pool-wide until enough of
//!   them release it.
//!
//! The broker itself holds no ordering policy — determinism comes from
//! the *caller* presenting grant requests in a stable order (priority
//! descending, submission index ascending), which the service's
//! scheduling round guarantees.
//!
//! [`CapacitySpec`]: crowdrl_sim::CapacitySpec

use crowdrl_types::{Error, Result};
use std::collections::HashSet;

/// Shared-pool arbiter (see module docs).
#[derive(Debug)]
pub struct PoolBroker {
    /// Per-annotator concurrent-assignment caps.
    capacity: Vec<usize>,
    /// Per-annotator in-flight load, across every project.
    load: Vec<usize>,
    /// Per-annotator set of projects currently quarantining it.
    evidence: Vec<HashSet<usize>>,
    /// Distinct-project quarantine count at which an annotator is
    /// blocked pool-wide (`0` = shared evidence off).
    threshold: usize,
}

impl PoolBroker {
    /// A broker over `capacity.len()` annotators.
    pub fn new(capacity: Vec<usize>, threshold: usize) -> Self {
        let n = capacity.len();
        Self {
            capacity,
            load: vec![0; n],
            evidence: vec![HashSet::new(); n],
            threshold,
        }
    }

    /// Number of annotators in the shared pool.
    pub fn annotators(&self) -> usize {
        self.capacity.len()
    }

    /// Annotator `a`'s current in-flight load.
    pub fn load(&self, a: usize) -> usize {
        self.load[a]
    }

    /// Whether annotator `a` has a free concurrency slot.
    pub fn has_slot(&self, a: usize) -> bool {
        self.load[a] < self.capacity[a]
    }

    /// Whether cross-project evidence blocks annotator `a` pool-wide.
    pub fn blocked(&self, a: usize) -> bool {
        self.threshold > 0 && self.evidence[a].len() >= self.threshold
    }

    /// Annotator `a`'s free concurrency slots right now. Decision loops
    /// feed these into selection so the agent spends its scores on
    /// annotators that can actually accept work, instead of
    /// re-proposing the same saturated favourites each refresh.
    pub fn free_slots(&self, a: usize) -> usize {
        self.capacity[a].saturating_sub(self.load[a])
    }

    /// Take one slot on `a` (grant time). The caller checks
    /// [`has_slot`](Self::has_slot) first; taking a slot past capacity
    /// is a service bug, caught loudly in debug builds.
    pub fn acquire(&mut self, a: usize) {
        debug_assert!(self.load[a] < self.capacity[a], "broker slot overcommit");
        self.load[a] += 1;
    }

    /// Return one slot on `a` (delivery or expiry time).
    pub fn release(&mut self, a: usize) {
        debug_assert!(self.load[a] > 0, "broker slot underflow");
        self.load[a] = self.load[a].saturating_sub(1);
    }

    /// Record that `project` entered (`entered = true`) or released
    /// annotator `a` from its quarantine view.
    pub fn note_quarantine(&mut self, project: usize, a: usize, entered: bool) {
        if entered {
            self.evidence[a].insert(project);
        } else {
            self.evidence[a].remove(&project);
        }
    }

    /// Drop every piece of evidence `project` contributed (the project
    /// finished *or aborted*; its stale opinion must not keep blocking
    /// annotators).
    pub fn clear_project(&mut self, project: usize) {
        for set in &mut self.evidence {
            set.remove(&project);
        }
    }

    /// Total in-flight load summed over the pool.
    pub fn total_load(&self) -> usize {
        self.load.iter().sum()
    }

    /// Total concurrency capacity summed over the pool (saturating: a
    /// cap of `usize::MAX` means unbounded).
    pub fn total_capacity(&self) -> usize {
        self.capacity
            .iter()
            .fold(0usize, |total, &c| total.saturating_add(c))
    }

    /// Snapshot for checkpointing: per-annotator in-flight load, and per
    /// annotator the ascending list of projects quarantining it.
    pub fn export(&self) -> (Vec<usize>, Vec<Vec<usize>>) {
        let evidence = self
            .evidence
            .iter()
            .map(|set| {
                let mut projects: Vec<usize> = set.iter().copied().collect();
                projects.sort_unstable();
                projects
            })
            .collect();
        (self.load.clone(), evidence)
    }

    /// Rebuild a broker from an [`export`](Self::export) snapshot.
    /// `capacity` and `threshold` come from the restoring config, not
    /// the checkpoint — the fingerprint check upstream guarantees they
    /// match the run that cut it.
    pub fn restore(
        capacity: Vec<usize>,
        threshold: usize,
        load: Vec<usize>,
        evidence: Vec<Vec<usize>>,
    ) -> Result<Self> {
        if load.len() != capacity.len() || evidence.len() != capacity.len() {
            return Err(Error::ServiceFailure(format!(
                "broker snapshot shape mismatch: {} capacities, {} loads, {} evidence sets",
                capacity.len(),
                load.len(),
                evidence.len()
            )));
        }
        for (a, (&l, &c)) in load.iter().zip(&capacity).enumerate() {
            if l > c {
                return Err(Error::ServiceFailure(format!(
                    "broker snapshot overcommits annotator {a}: load {l} over capacity {c}"
                )));
            }
        }
        Ok(Self {
            capacity,
            load,
            evidence: evidence
                .into_iter()
                .map(|projects| projects.into_iter().collect())
                .collect(),
            threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_bounded_per_annotator() {
        let mut b = PoolBroker::new(vec![2, 1], 0);
        assert!(b.has_slot(0));
        b.acquire(0);
        b.acquire(0);
        assert!(!b.has_slot(0));
        assert!(b.has_slot(1));
        b.release(0);
        assert!(b.has_slot(0));
        assert_eq!(b.load(0), 1);
    }

    #[test]
    fn shared_evidence_blocks_at_the_threshold() {
        let mut b = PoolBroker::new(vec![4], 2);
        assert!(!b.blocked(0));
        b.note_quarantine(0, 0, true);
        assert!(!b.blocked(0), "one project's view is not shared evidence");
        b.note_quarantine(1, 0, true);
        assert!(b.blocked(0), "two projects agree: blocked pool-wide");
        // Re-entering from the same project adds nothing.
        b.note_quarantine(1, 0, true);
        b.note_quarantine(0, 0, false);
        assert!(!b.blocked(0), "evidence released below the threshold");
    }

    #[test]
    fn finished_projects_withdraw_their_evidence() {
        let mut b = PoolBroker::new(vec![4, 4], 2);
        b.note_quarantine(0, 0, true);
        b.note_quarantine(1, 0, true);
        b.note_quarantine(1, 1, true);
        assert!(b.blocked(0));
        b.clear_project(1);
        assert!(!b.blocked(0));
        assert!(!b.blocked(1));
    }

    #[test]
    fn zero_threshold_disables_shared_evidence() {
        let mut b = PoolBroker::new(vec![4], 0);
        b.note_quarantine(0, 0, true);
        b.note_quarantine(1, 0, true);
        assert!(!b.blocked(0));
    }
}
