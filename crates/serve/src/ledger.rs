//! The in-flight assignment ledger and the per-project budget accounts:
//! exactly-once budget accounting.
//!
//! Asynchrony is where budget bugs live: an answer can arrive after its
//! timeout already fired, twice (a retry), or for an (object, annotator)
//! pair that was requeued and re-asked in the meantime. The ledger makes
//! the lifecycle side of all of that single-entry, and the
//! [`AccountBook`] the money side:
//!
//! * **Reservation at dispatch.** The engine reserves the assignment's
//!   cost on the project's account before it opens the record; `spent +
//!   reserved` can never exceed the account's total, so the service
//!   cannot over-commit no matter how many answers later materialize.
//! * **Charge on delivery, exactly once.** Only an assignment still
//!   `InFlight` can deliver; [`settle_deliver`](AssignmentLedger::settle_deliver)
//!   reports the cost exactly once, and the engine moves that reservation
//!   to a real charge. A second delivery, or a delivery after expiry, is
//!   rejected without touching any account.
//! * **Release on expiry.** Expiry frees the (object, annotator) pair and
//!   reports the cost to release, so the pair can be re-asked under a new
//!   assignment id (a fresh question, a fresh reservation).
//!
//! At most one live assignment exists per (object, annotator) pair, and a
//! delivered pair is locked forever — so a pair is *charged* at most once
//! across the whole run, which is the property the proptest suite
//! hammers with arbitrary dispatch/deliver/expire interleavings.

use crowdrl_types::{AnnotatorId, AssignmentId, Budget, Error, ObjectId, Result, SimTime};
use std::collections::HashSet;

/// Lifecycle of one assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentStatus {
    /// Dispatched; the answer has not arrived and the timeout has not
    /// fired. Its cost is reserved.
    InFlight,
    /// The answer arrived in time and was charged.
    Delivered,
    /// The timeout fired first; the reservation was released.
    Expired,
}

/// One row of the ledger.
#[derive(Debug, Clone)]
pub struct AssignmentRecord {
    /// Ledger id (index into the ledger, RNG stream index, tiebreaker).
    pub id: AssignmentId,
    /// The object asked about.
    pub object: ObjectId,
    /// The annotator asked.
    pub annotator: AnnotatorId,
    /// The annotator's price for one answer.
    pub cost: f64,
    /// When the question was handed out.
    pub dispatched_at: SimTime,
    /// When the assignment times out.
    pub deadline: SimTime,
    /// Current lifecycle state.
    pub status: AssignmentStatus,
}

/// Outcome of presenting an answer to the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// The answer is fresh and on time; `cost` moves from reservation to
    /// a charge on the owning account.
    Accepted {
        /// What to charge.
        cost: f64,
        /// Answer latency (arrival − dispatch).
        latency: SimTime,
    },
    /// The assignment already expired or already delivered — the answer
    /// is dropped, nothing is charged.
    Rejected,
}

/// Outcome of firing an assignment's timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expiry {
    /// The answer never arrived; the reservation (`cost`) was released
    /// and the (object, annotator) pair freed for re-dispatch.
    TimedOut {
        /// The released reservation.
        cost: f64,
    },
    /// The assignment was already delivered (or already expired) —
    /// nothing to do.
    AlreadySettled,
}

/// The in-flight assignment ledger: every assignment's lifecycle and the
/// live (object, annotator) claims. Money lives in an [`AccountBook`].
#[derive(Debug, Default)]
pub struct AssignmentLedger {
    records: Vec<AssignmentRecord>,
    /// Pairs with a live claim: one in-flight assignment, or a delivered
    /// answer (locked forever). Expired assignments release their pair.
    pairs: HashSet<(ObjectId, AnnotatorId)>,
}

impl AssignmentLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight assignments.
    pub fn in_flight(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == AssignmentStatus::InFlight)
            .count()
    }

    /// Total assignments ever dispatched.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was ever dispatched.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record behind `id`, if it exists.
    pub fn record(&self, id: AssignmentId) -> Option<&AssignmentRecord> {
        self.records.get(id.0 as usize)
    }

    /// Whether `(object, annotator)` currently holds a live claim (in
    /// flight or delivered).
    pub fn pair_claimed(&self, object: ObjectId, annotator: AnnotatorId) -> bool {
        self.pairs.contains(&(object, annotator))
    }

    /// Open an in-flight record for a question whose cost was already
    /// reserved on an [`AccountBook`] account. Fails on an invalid cost, a
    /// deadline before `now`, or a pair that already holds a live claim.
    pub fn dispatch_reserved(
        &mut self,
        object: ObjectId,
        annotator: AnnotatorId,
        cost: f64,
        now: SimTime,
        deadline: SimTime,
    ) -> Result<AssignmentId> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "assignment cost must be finite and non-negative, got {cost}"
            )));
        }
        if deadline < now {
            return Err(Error::ServiceFailure(format!(
                "assignment deadline {deadline} precedes dispatch time {now}"
            )));
        }
        if self.pairs.contains(&(object, annotator)) {
            return Err(Error::ServiceFailure(format!(
                "pair ({object}, {annotator}) already has a live assignment or answer"
            )));
        }
        let id = AssignmentId(self.records.len() as u64);
        self.records.push(AssignmentRecord {
            id,
            object,
            annotator,
            cost,
            dispatched_at: now,
            deadline,
            status: AssignmentStatus::InFlight,
        });
        self.pairs.insert((object, annotator));
        Ok(id)
    }

    /// Present an answer for `id` arriving at `now`: the `InFlight →
    /// Delivered` transition. Only an `InFlight` record accepts, and it
    /// accepts at most once, so at most one charge per record can ever
    /// follow; late answers and duplicates are `Rejected`. The caller
    /// charges the reported cost to the owning account.
    pub fn settle_deliver(&mut self, id: AssignmentId, now: SimTime) -> Result<Delivery> {
        let record = self
            .records
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::ServiceFailure(format!("unknown assignment {id}")))?;
        if record.status != AssignmentStatus::InFlight {
            return Ok(Delivery::Rejected);
        }
        record.status = AssignmentStatus::Delivered;
        Ok(Delivery::Accepted {
            cost: record.cost,
            latency: now - record.dispatched_at,
        })
    }

    /// Fire the timeout of `id`: an in-flight record expires and frees
    /// its pair; the caller releases the reported cost on the owning
    /// account.
    pub fn settle_expire(&mut self, id: AssignmentId) -> Result<Expiry> {
        let record = self
            .records
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::ServiceFailure(format!("unknown assignment {id}")))?;
        if record.status != AssignmentStatus::InFlight {
            return Ok(Expiry::AlreadySettled);
        }
        record.status = AssignmentStatus::Expired;
        let pair = (record.object, record.annotator);
        let cost = record.cost;
        self.pairs.remove(&pair);
        Ok(Expiry::TimedOut { cost })
    }

    /// Every record ever issued, in dispatch (id) order — the ledger's
    /// whole state, since the pair claims derive from it.
    pub fn records(&self) -> &[AssignmentRecord] {
        &self.records
    }

    /// Rebuild a ledger from checkpointed records. The pair-claim set is
    /// re-derived: in-flight and delivered records claim their pair,
    /// expired records claim nothing.
    pub fn restore(records: Vec<AssignmentRecord>) -> Result<Self> {
        let mut pairs = HashSet::new();
        for (i, r) in records.iter().enumerate() {
            if r.id.0 as usize != i {
                return Err(Error::ServiceFailure(format!(
                    "ledger record {i} carries id {}",
                    r.id
                )));
            }
            if r.status != AssignmentStatus::Expired {
                pairs.insert((r.object, r.annotator));
            }
        }
        Ok(Self { records, pairs })
    }

    /// Objects with at least one in-flight assignment.
    pub fn objects_in_flight(&self) -> HashSet<ObjectId> {
        self.records
            .iter()
            .filter(|r| r.status == AssignmentStatus::InFlight)
            .map(|r| r.object)
            .collect()
    }
}

/// One project's money: its own [`Budget`] plus its own outstanding
/// reservations. Private to the book — all mutation goes through
/// [`AccountBook`] so the cross-charge guard cannot be bypassed.
#[derive(Debug)]
struct Account {
    budget: Budget,
    reserved: f64,
}

/// Per-project budget accounts.
///
/// Each account carries the exactly-once discipline — reserve at
/// dispatch, charge on delivery, release on expiry — isolated per
/// project: `spent + reserved ≤ total` holds
/// account by account, so a project that exhausts its budget cannot
/// reserve a cent of another's. Charging or releasing more than an
/// account has reserved is an error, not a silent clamp: that is the
/// cross-charge guard — a settlement routed to the wrong account cannot
/// find a matching reservation there and fails loudly.
#[derive(Debug, Default)]
pub struct AccountBook {
    accounts: Vec<Account>,
}

impl AccountBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new account with `total` budget; returns its id (dense,
    /// in open order — the service uses the project's submission index).
    pub fn open(&mut self, total: f64) -> Result<usize> {
        let budget = Budget::new(total)?;
        self.accounts.push(Account {
            budget,
            reserved: 0.0,
        });
        Ok(self.accounts.len() - 1)
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether no account was opened.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    fn account(&self, id: usize) -> Result<&Account> {
        self.accounts
            .get(id)
            .ok_or_else(|| Error::ServiceFailure(format!("unknown budget account {id}")))
    }

    fn account_mut(&mut self, id: usize) -> Result<&mut Account> {
        self.accounts
            .get_mut(id)
            .ok_or_else(|| Error::ServiceFailure(format!("unknown budget account {id}")))
    }

    /// Whether reserving `cost` fits account `id` after its existing
    /// spend and reservations. Only this account's money counts — other
    /// accounts' headroom is invisible here.
    pub fn can_reserve(&self, id: usize, cost: f64) -> bool {
        match self.accounts.get(id) {
            Some(a) if cost.is_finite() && cost >= 0.0 => {
                a.budget.spent() + a.reserved + cost <= a.budget.total() + 1e-9
            }
            _ => false,
        }
    }

    /// Reserve `cost` on account `id` (dispatch time).
    pub fn reserve(&mut self, id: usize, cost: f64) -> Result<()> {
        if !self.can_reserve(id, cost) {
            let a = self.account(id)?;
            return Err(Error::BudgetExhausted {
                requested: cost,
                remaining: (a.budget.remaining() - a.reserved).max(0.0),
            });
        }
        self.account_mut(id)?.reserved += cost;
        Ok(())
    }

    /// Move `cost` from reservation to real spend on account `id`
    /// (delivery time). Fails — without touching the budget — if the
    /// account does not hold that much in reservations: a charge that
    /// lands on the wrong project's account cannot match a reservation
    /// there and is refused instead of leaking money across tenants.
    pub fn charge(&mut self, id: usize, cost: f64) -> Result<()> {
        let a = self.account_mut(id)?;
        if !cost.is_finite() || cost < 0.0 || cost > a.reserved + 1e-9 {
            return Err(Error::ServiceFailure(format!(
                "account {id} asked to charge {cost} with only {} reserved",
                a.reserved
            )));
        }
        a.budget.charge(cost)?;
        a.reserved = (a.reserved - cost).max(0.0);
        Ok(())
    }

    /// Release a reservation of `cost` on account `id` (expiry time).
    /// Same cross-charge guard as [`charge`](Self::charge).
    pub fn release(&mut self, id: usize, cost: f64) -> Result<()> {
        let a = self.account_mut(id)?;
        if !cost.is_finite() || cost < 0.0 || cost > a.reserved + 1e-9 {
            return Err(Error::ServiceFailure(format!(
                "account {id} asked to release {cost} with only {} reserved",
                a.reserved
            )));
        }
        a.reserved = (a.reserved - cost).max(0.0);
        Ok(())
    }

    /// Account `id`'s budget total.
    pub fn total(&self, id: usize) -> f64 {
        self.accounts.get(id).map_or(0.0, |a| a.budget.total())
    }

    /// Account `id`'s real (charged) spend.
    pub fn spent(&self, id: usize) -> f64 {
        self.accounts.get(id).map_or(0.0, |a| a.budget.spent())
    }

    /// Account `id`'s outstanding reservations.
    pub fn reserved(&self, id: usize) -> f64 {
        self.accounts.get(id).map_or(0.0, |a| a.reserved)
    }

    /// Number of charges posted to account `id`.
    pub fn charge_count(&self, id: usize) -> usize {
        self.accounts.get(id).map_or(0, |a| a.budget.charge_count())
    }

    /// Snapshot every account for checkpointing, in open (id) order.
    pub fn export(&self) -> Vec<AccountState> {
        self.accounts
            .iter()
            .map(|a| AccountState {
                total: a.budget.total(),
                spent: a.budget.spent(),
                charges: a.budget.charge_count(),
                reserved: a.reserved,
            })
            .collect()
    }

    /// Rebuild a book from checkpointed account states. Ids are dense
    /// open-order indices, so restoring the same state vector reproduces
    /// the same id assignment.
    pub fn restore(states: &[AccountState]) -> Result<Self> {
        let accounts = states
            .iter()
            .enumerate()
            .map(|(id, s)| {
                if !s.reserved.is_finite() || s.reserved < 0.0 {
                    return Err(Error::ServiceFailure(format!(
                        "account {id}: bad checkpointed reservation {}",
                        s.reserved
                    )));
                }
                Ok(Account {
                    budget: Budget::restore(s.total, s.spent, s.charges)?,
                    reserved: s.reserved,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { accounts })
    }
}

/// One account's checkpointable state: the budget plus its outstanding
/// reservations. `spent` and `reserved` are exact accumulated floats —
/// checkpoint codecs must preserve their bit patterns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccountState {
    /// Budget ceiling.
    pub total: f64,
    /// Exact accumulated spend.
    pub spent: f64,
    /// Successful charges so far.
    pub charges: usize,
    /// Outstanding reservations.
    pub reserved: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x).unwrap()
    }

    #[test]
    fn delivery_settles_once_and_expiry_frees_the_pair() {
        let mut ledger = AssignmentLedger::new();
        let id = ledger
            .dispatch_reserved(ObjectId(0), AnnotatorId(0), 2.0, t(0.0), t(5.0))
            .unwrap();
        let d = ledger.settle_deliver(id, t(1.5)).unwrap();
        assert_eq!(
            d,
            Delivery::Accepted {
                cost: 2.0,
                latency: t(1.5)
            }
        );
        // Exactly-once: the second settlement is rejected.
        assert_eq!(
            ledger.settle_deliver(id, t(2.0)).unwrap(),
            Delivery::Rejected
        );
        assert_eq!(ledger.settle_expire(id).unwrap(), Expiry::AlreadySettled);
        // The delivered pair stays locked.
        assert!(ledger.pair_claimed(ObjectId(0), AnnotatorId(0)));
        assert!(ledger
            .dispatch_reserved(ObjectId(0), AnnotatorId(0), 2.0, t(2.0), t(7.0))
            .is_err());

        let id = ledger
            .dispatch_reserved(ObjectId(1), AnnotatorId(2), 4.0, t(0.0), t(5.0))
            .unwrap();
        assert_eq!(
            ledger.settle_expire(id).unwrap(),
            Expiry::TimedOut { cost: 4.0 }
        );
        assert!(!ledger.pair_claimed(ObjectId(1), AnnotatorId(2)));
        // The same pair can be re-asked under a new id, and the late
        // answer for the dead assignment is rejected.
        let id2 = ledger
            .dispatch_reserved(ObjectId(1), AnnotatorId(2), 4.0, t(6.0), t(11.0))
            .unwrap();
        assert_ne!(id, id2);
        assert_eq!(
            ledger.settle_deliver(id, t(7.0)).unwrap(),
            Delivery::Rejected
        );
        assert_eq!(ledger.in_flight(), 1);
    }

    #[test]
    fn rejects_malformed_dispatches() {
        let mut ledger = AssignmentLedger::new();
        assert!(ledger
            .dispatch_reserved(ObjectId(0), AnnotatorId(0), f64::NAN, t(0.0), t(1.0))
            .is_err());
        assert!(ledger
            .dispatch_reserved(ObjectId(0), AnnotatorId(0), 1.0, t(2.0), t(1.0))
            .is_err());
        assert!(ledger.is_empty());
    }

    #[test]
    fn accounts_isolate_budgets() {
        let mut book = AccountBook::new();
        let a = book.open(10.0).unwrap();
        let b = book.open(3.0).unwrap();
        // Exhaust b's budget with reservations.
        book.reserve(b, 3.0).unwrap();
        assert!(!book.can_reserve(b, 0.5));
        // a's headroom is untouched by b's exhaustion, and vice versa.
        assert!(book.can_reserve(a, 10.0));
        book.reserve(a, 4.0).unwrap();
        book.charge(a, 4.0).unwrap();
        assert_eq!(book.spent(a), 4.0);
        assert_eq!(book.spent(b), 0.0);
        // b cannot charge what it never reserved beyond its 3.0...
        assert!(book.charge(b, 3.5).is_err());
        // ...and the failed charge changed nothing.
        assert_eq!(book.spent(b), 0.0);
        assert_eq!(book.reserved(b), 3.0);
        book.release(b, 3.0).unwrap();
        assert_eq!(book.reserved(b), 0.0);
    }

    #[test]
    fn cross_charges_are_refused() {
        let mut book = AccountBook::new();
        let a = book.open(10.0).unwrap();
        let b = book.open(10.0).unwrap();
        book.reserve(a, 2.0).unwrap();
        // A settlement routed to the wrong account finds no reservation
        // there and fails loudly, leaving both accounts intact.
        assert!(book.charge(b, 2.0).is_err());
        assert!(book.release(b, 2.0).is_err());
        assert_eq!(book.spent(a), 0.0);
        assert_eq!(book.spent(b), 0.0);
        assert_eq!(book.reserved(a), 2.0);
        assert_eq!(book.reserved(b), 0.0);
        book.charge(a, 2.0).unwrap();
        assert_eq!(book.spent(a), 2.0);
        assert_eq!(book.charge_count(a), 1);
    }

    #[test]
    fn account_book_rejects_unknown_and_malformed_operations() {
        let mut book = AccountBook::new();
        assert!(book.open(f64::NAN).is_err());
        let a = book.open(5.0).unwrap();
        assert!(!book.can_reserve(99, 1.0));
        assert!(book.reserve(99, 1.0).is_err());
        assert!(book.charge(99, 1.0).is_err());
        assert!(!book.can_reserve(a, f64::INFINITY));
        assert!(book.reserve(a, -1.0).is_err());
        book.reserve(a, 1.0).unwrap();
        assert!(book.charge(a, f64::NAN).is_err());
        assert!(book.release(a, -0.5).is_err());
        assert_eq!(book.reserved(a), 1.0);
    }
}
