//! Property tests for the exactly-once money guarantee.
//!
//! Arbitrary interleavings of dispatch / deliver / expire — including
//! duplicates, stale deliveries for expired assignments, and re-dispatch
//! of freed pairs — must never overdraw the budget or charge an
//! (object, annotator) pair twice. The ledger settles each assignment's
//! lifecycle and the [`AccountBook`] holds the money, exactly as the
//! engine drives them: reserve, then open; charge what a delivery
//! settles; release what an expiry settles. This is the money invariant
//! the whole asynchronous runtime leans on.

use crowdrl_serve::{AccountBook, AssignmentLedger, Delivery, Expiry};
use crowdrl_sim::{FaultInjector, FaultPlan};
use crowdrl_types::{AnnotatorId, AssignmentId, ClassId, ObjectId, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;

fn t(x: f64) -> SimTime {
    SimTime::new(x).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 64,
    })]

    #[test]
    fn budget_is_charged_exactly_once_per_pair(
        total in 1.0f64..40.0,
        ops in proptest::collection::vec((0u8..4, 0u64..8, 0u64..5, 0.5f64..3.0), 1..250),
    ) {
        let mut ledger = AssignmentLedger::new();
        let mut book = AccountBook::new();
        let account = book.open(total).unwrap();
        // Ground truth maintained independently of the ledger.
        let mut charged_pairs: HashSet<(ObjectId, AnnotatorId)> = HashSet::new();
        let mut expected_spent = 0.0f64;
        let mut clock = 0.0f64;

        for (kind, x, y, cost) in ops {
            clock += 1.0;
            let now = t(clock);
            match kind {
                // Dispatch a random pair at a random cost: reserve on the
                // account, then open the record — skipped when the pair
                // holds a live claim or the reservation does not fit.
                0 => {
                    let object = ObjectId(x as usize);
                    let annotator = AnnotatorId(y as usize);
                    if !ledger.pair_claimed(object, annotator) && book.can_reserve(account, cost) {
                        book.reserve(account, cost).unwrap();
                        ledger
                            .dispatch_reserved(object, annotator, cost, now, t(clock + 5.0))
                            .unwrap();
                    }
                }
                // Deliver a (possibly unknown, possibly settled) assignment.
                1 | 3 => {
                    let id = AssignmentId(x % (ledger.len() as u64 + 1));
                    if let Ok(Delivery::Accepted { cost, .. }) = ledger.settle_deliver(id, now) {
                        book.charge(account, cost).unwrap();
                        let record = ledger.record(id).unwrap();
                        let pair = (record.object, record.annotator);
                        // Exactly-once: this pair was never charged before.
                        prop_assert!(charged_pairs.insert(pair), "pair {pair:?} charged twice");
                        expected_spent += cost;
                    }
                }
                // Expire a (possibly unknown, possibly settled) assignment.
                _ => {
                    let id = AssignmentId(x % (ledger.len() as u64 + 1));
                    if let Ok(Expiry::TimedOut { cost }) = ledger.settle_expire(id) {
                        book.release(account, cost).unwrap();
                        let record = ledger.record(id).unwrap();
                        prop_assert!(
                            !charged_pairs.contains(&(record.object, record.annotator))
                                || record.cost == 0.0,
                            "expired an already-charged pair's live assignment"
                        );
                    }
                }
            }

            // Invariants that must hold after every single operation.
            let (spent, reserved) = (book.spent(account), book.reserved(account));
            prop_assert!(reserved >= 0.0);
            prop_assert!(spent <= total + 1e-9, "spent {spent} over total {total}");
            prop_assert!(
                spent + reserved <= total + 1e-9,
                "committed {} over total {total}",
                spent + reserved
            );
            prop_assert!(
                (spent - expected_spent).abs() < 1e-9,
                "account spent {spent} diverged from accepted deliveries {expected_spent}"
            );
        }

        // Closing the books: every in-flight reservation is released and
        // the spend still matches the accepted deliveries exactly.
        for i in 0..ledger.len() as u64 {
            if let Ok(Expiry::TimedOut { cost }) = ledger.settle_expire(AssignmentId(i)) {
                book.release(account, cost).unwrap();
            }
        }
        prop_assert!(book.reserved(account).abs() < 1e-9);
        prop_assert_eq!(ledger.in_flight(), 0);
        prop_assert!((book.spent(account) - expected_spent).abs() < 1e-9);
        prop_assert_eq!(charged_pairs.len(), book.charge_count(account));
    }

    /// The same invariants under *injected* faults: random dispatch
    /// schedules pushed through a [`FaultInjector`] — no-shows, mid-task
    /// abandonment (late delivery after the deadline), stragglers and
    /// platform duplicates — replayed in event order. Duplicate copies
    /// reuse the original assignment id, so the ledger's exactly-once
    /// rule must reject every second copy; an assignment must time out
    /// at most once (the upstream requeue trigger); and the budget can
    /// never be overspent, whatever arrives in whatever order.
    #[test]
    fn injected_faults_preserve_exactly_once_and_budget(
        total in 5.0f64..60.0,
        seed in 0u64..1000,
        no_show in 0.0f64..0.5,
        abandon in 0.0f64..0.5,
        straggler in 0.0f64..0.5,
        duplicate in 0.0f64..0.8,
        dispatches in proptest::collection::vec(
            (0u64..10, 0u64..4, 0.5f64..2.5, 0.5f64..8.0),
            1..120,
        ),
    ) {
        let plan = FaultPlan {
            seed,
            no_show_rate: no_show,
            abandon_rate: abandon,
            straggler_rate: straggler,
            straggler_factor: 4.0,
            duplicate_rate: duplicate,
            ..FaultPlan::default()
        };
        let injector = FaultInjector::new(plan, 3).unwrap();
        let timeout = 6.0;
        let mut ledger = AssignmentLedger::new();
        let mut book = AccountBook::new();
        let account = book.open(total).unwrap();

        // Dispatch on a staggered clock and build the event schedule the
        // runtime would enqueue: the (possibly rewritten) delivery, the
        // duplicate copy under the SAME id, and the expiry at the
        // deadline. Ties replay in push order, like the event queue.
        let mut events: Vec<(f64, u64, AssignmentId, bool)> = Vec::new();
        let mut seq = 0u64;
        let mut clock = 0.0f64;
        for (obj, ann, cost, latency) in dispatches {
            clock += 0.5;
            let now = t(clock);
            let deadline = t(clock + timeout);
            let (object, annotator) = (ObjectId(obj as usize), AnnotatorId(ann as usize));
            if ledger.pair_claimed(object, annotator) || !book.can_reserve(account, cost) {
                continue;
            }
            book.reserve(account, cost).unwrap();
            let id = ledger
                .dispatch_reserved(object, annotator, cost, now, deadline)
                .unwrap();
            let out = injector.apply(id, annotator, now, timeout,
                Some((ClassId(0), t(latency))));
            if let Some((_, lat)) = out.response {
                events.push((clock + lat.as_f64(), seq, id, true));
                seq += 1;
            }
            if let Some(dup) = out.duplicate_at {
                events.push((dup.as_f64(), seq, id, true));
                seq += 1;
            }
            events.push((clock + timeout, seq, id, false));
            seq += 1;
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
        });

        let mut accepted: HashSet<AssignmentId> = HashSet::new();
        let mut timed_out: HashSet<AssignmentId> = HashSet::new();
        let mut charged_pairs: HashSet<(ObjectId, AnnotatorId)> = HashSet::new();
        for (time, _, id, is_delivery) in events {
            if is_delivery {
                if let Ok(Delivery::Accepted { cost, .. }) = ledger.settle_deliver(id, t(time)) {
                    book.charge(account, cost).unwrap();
                    prop_assert!(accepted.insert(id), "assignment {id:?} charged twice");
                    let record = ledger.record(id).unwrap();
                    let pair = (record.object, record.annotator);
                    prop_assert!(charged_pairs.insert(pair), "pair {pair:?} charged twice");
                }
            } else if let Ok(Expiry::TimedOut { cost }) = ledger.settle_expire(id) {
                book.release(account, cost).unwrap();
                // At most one timeout per assignment — the runtime
                // requeues on TimedOut, so this is the no-double-requeue
                // guarantee.
                prop_assert!(timed_out.insert(id), "assignment {id:?} timed out twice");
                prop_assert!(!accepted.contains(&id), "timed out after acceptance");
            }
            prop_assert!(
                book.spent(account) + book.reserved(account) <= total + 1e-9,
                "committed {} over total {total}",
                book.spent(account) + book.reserved(account)
            );
        }

        // Every assignment settled exactly one way; the books balance.
        prop_assert_eq!(ledger.in_flight(), 0);
        prop_assert!(book.reserved(account).abs() < 1e-9);
        prop_assert_eq!(charged_pairs.len(), book.charge_count(account));
    }

    /// Multi-tenant money: arbitrary interleavings of reserve / charge /
    /// expire across several [`AccountBook`] accounts conserve every
    /// account's budget *independently* and never cross-charge — a
    /// settlement aimed at an account without a matching reservation is
    /// refused and leaves every balance untouched.
    #[test]
    fn account_book_isolates_budgets_under_interleaving(
        totals in proptest::collection::vec(2.0f64..30.0, 3..6),
        ops in proptest::collection::vec((0u8..4, 0u8..6, 0.25f64..2.0), 1..300),
    ) {
        let mut book = AccountBook::new();
        for &total in &totals {
            book.open(total).unwrap();
        }
        let n = totals.len();
        // Shadow books: outstanding reservations and expected spend per
        // account, maintained independently of the implementation.
        let mut outstanding: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut expected_spent = vec![0.0f64; n];

        for (kind, which, cost) in ops {
            let a = which as usize % n;
            match kind {
                // Reserve (dispatch): succeeds iff the account has
                // headroom; other accounts' headroom must not help.
                0 => {
                    let fits = expected_spent[a]
                        + outstanding[a].iter().sum::<f64>()
                        + cost
                        <= totals[a] + 1e-9;
                    prop_assert_eq!(book.can_reserve(a, cost), fits);
                    if book.reserve(a, cost).is_ok() {
                        prop_assert!(fits, "reserve succeeded without headroom");
                        outstanding[a].push(cost);
                    } else {
                        prop_assert!(!fits, "reserve failed with headroom");
                    }
                }
                // Charge (delivery): settles one outstanding reservation.
                1 => {
                    if let Some(cost) = outstanding[a].pop() {
                        book.charge(a, cost).unwrap();
                        expected_spent[a] += cost;
                    }
                }
                // Expire: releases one outstanding reservation.
                2 => {
                    if let Some(cost) = outstanding[a].pop() {
                        book.release(a, cost).unwrap();
                    }
                }
                // Cross-charge attempt: bill account `a` for more than it
                // holds in reservations (e.g. another tenant's delivery
                // routed to the wrong account). Must fail and move no
                // money anywhere.
                _ => {
                    let reserved_a = outstanding[a].iter().sum::<f64>();
                    let before_spent: Vec<f64> = (0..n).map(|i| book.spent(i)).collect();
                    let before_reserved: Vec<f64> = (0..n).map(|i| book.reserved(i)).collect();
                    prop_assert!(book.charge(a, reserved_a + cost).is_err());
                    for i in 0..n {
                        prop_assert_eq!(book.spent(i), before_spent[i]);
                        prop_assert_eq!(book.reserved(i), before_reserved[i]);
                    }
                }
            }

            // Per-account conservation after every operation.
            for i in 0..n {
                prop_assert!(
                    (book.spent(i) - expected_spent[i]).abs() < 1e-9,
                    "account {i} spent {} != expected {}",
                    book.spent(i),
                    expected_spent[i]
                );
                prop_assert!(
                    (book.reserved(i) - outstanding[i].iter().sum::<f64>()).abs() < 1e-6,
                    "account {i} reserved {} != shadow {}",
                    book.reserved(i),
                    outstanding[i].iter().sum::<f64>()
                );
                prop_assert!(
                    book.spent(i) + book.reserved(i) <= totals[i] + 1e-9,
                    "account {i} committed past its budget"
                );
            }
        }

        // Close the books: release everything outstanding; spend matches
        // the charges exactly, account by account.
        for a in 0..n {
            while let Some(cost) = outstanding[a].pop() {
                book.release(a, cost).unwrap();
            }
            prop_assert!(book.reserved(a).abs() < 1e-6);
            prop_assert!((book.spent(a) - expected_spent[a]).abs() < 1e-9);
        }
    }

    /// The service's fault-containment and checkpoint lifecycle on the
    /// shared book: arbitrary interleavings of reserve / charge /
    /// release, punctuated by whole-account *aborts* — every
    /// outstanding reservation released at once, exactly once, never
    /// charged (what the service's `fail_project` does) — and by
    /// `export` → `restore` round-trips whose bit patterns must be
    /// identical and whose restored book must continue the stream
    /// seamlessly. Reserved funds are released or charged exactly once,
    /// never both, never leaked.
    #[test]
    fn account_book_survives_aborts_and_checkpoint_round_trips(
        totals in proptest::collection::vec(2.0f64..30.0, 3..6),
        ops in proptest::collection::vec((0u8..8, 0u8..6, 0.25f64..2.0), 1..300),
    ) {
        let mut book = AccountBook::new();
        for &total in &totals {
            book.open(total).unwrap();
        }
        let n = totals.len();
        let mut outstanding: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut expected_spent = vec![0.0f64; n];
        let mut expected_charges = vec![0usize; n];
        let mut aborted = vec![false; n];

        for (kind, which, cost) in ops {
            let a = which as usize % n;
            match kind {
                // Reserve — a failed (aborted) tenant dispatches nothing.
                0 | 1 => {
                    if !aborted[a] && book.reserve(a, cost).is_ok() {
                        outstanding[a].push(cost);
                    }
                }
                // Charge: settles one outstanding reservation.
                2 => {
                    if let Some(cost) = outstanding[a].pop() {
                        book.charge(a, cost).unwrap();
                        expected_spent[a] += cost;
                        expected_charges[a] += 1;
                    }
                }
                // Release: frees one outstanding reservation.
                3 => {
                    if let Some(cost) = outstanding[a].pop() {
                        book.release(a, cost).unwrap();
                    }
                }
                // Abort the tenant: release every outstanding
                // reservation exactly once; its spend freezes.
                4 => {
                    while let Some(cost) = outstanding[a].pop() {
                        book.release(a, cost).unwrap();
                    }
                    aborted[a] = true;
                    prop_assert!(
                        book.reserved(a).abs() < 1e-6,
                        "abort leaked a reservation on account {a}: {}",
                        book.reserved(a)
                    );
                }
                // Checkpoint: export, restore into a fresh book, verify
                // bit-identity, and continue on the restored copy.
                _ => {
                    let states = book.export();
                    let restored = AccountBook::restore(&states).unwrap();
                    for i in 0..n {
                        prop_assert_eq!(restored.spent(i).to_bits(), book.spent(i).to_bits());
                        prop_assert_eq!(
                            restored.reserved(i).to_bits(),
                            book.reserved(i).to_bits()
                        );
                    }
                    prop_assert_eq!(restored.export(), states);
                    book = restored;
                }
            }

            // Conservation after every operation, including right after
            // a restore: spend and charge counts match the shadow book,
            // and an aborted account's money is fully accounted for.
            for i in 0..n {
                prop_assert!(
                    (book.spent(i) - expected_spent[i]).abs() < 1e-9,
                    "account {i} spent {} != expected {}",
                    book.spent(i),
                    expected_spent[i]
                );
                prop_assert!(
                    (book.reserved(i) - outstanding[i].iter().sum::<f64>()).abs() < 1e-6,
                    "account {i} reserved {} != shadow {}",
                    book.reserved(i),
                    outstanding[i].iter().sum::<f64>()
                );
                if aborted[i] {
                    prop_assert!(outstanding[i].is_empty());
                }
            }
        }

        // Close the books: every reservation was charged or released
        // exactly once — nothing double-settled, nothing leaked.
        for a in 0..n {
            while let Some(cost) = outstanding[a].pop() {
                book.release(a, cost).unwrap();
            }
            prop_assert!(book.reserved(a).abs() < 1e-6);
            prop_assert!((book.spent(a) - expected_spent[a]).abs() < 1e-9);
        }
        let states = book.export();
        for a in 0..n {
            prop_assert_eq!(states[a].charges, expected_charges[a]);
        }
    }
}
