//! The one EM E-step and its shared pieces (DESIGN.md §9).
//!
//! Every EM in the crate — cold joint, cold Dawid–Skene and the
//! engine's warm sweeps of both — runs its E-step through [`e_step`]:
//! the caller names the objects to sweep and seeds each object's log
//! prior (the classifier term, or the class prior), and the E-step adds
//! each answering annotator's log-confusion row, normalises, and reports
//! each object's largest change. The object list is chunked over fixed,
//! data-size-only ranges (`OBJECT_CHUNK` positions) via
//! [`crowdrl_linalg::pool`], and the per-chunk partials — posteriors and
//! log-likelihood terms — are merged strictly in chunk-index order. The
//! chunked reduction *is* the algorithm at every thread count (including
//! one), so results cannot depend on the schedule. The chunk domain is
//! the caller's list: cold Dawid–Skene passes every object index, the
//! others their answered or active list.
//!
//! This module also hosts the per-iteration log-confusion tables: the
//! serial E-steps used to call `ln()` once per (answer, class) pair, i.e.
//! `O(total_answers · k)` transcendentals per EM iteration. The tables
//! compute each `ln(π̂^j[c, l].max(1e-12))` exactly once per
//! (annotator, truth, label) triple, and only for the annotators who
//! answered a swept object ([`answering_annotators`]) — the only rows
//! the E-step reads, a few percent of a large shared pool. The E-step
//! reuses the stored value, which is bit-identical to recomputing it
//! (same input, same operation).

use crowdrl_linalg::pool;
use crowdrl_types::prob;
use crowdrl_types::{AnswerSet, ConfusionMatrix, ObjectId};

/// Objects per E-step/M-step chunk. Fixed by data size only; never derived
/// from the thread count.
pub(crate) const OBJECT_CHUNK: usize = 256;

/// One E-step over `objects`: for each object with answers, the posterior
/// `q(y = c) ∝ exp(seed_c + Σ_j ln π̂^j[c, y^j])`, where `seed(r, logp)`
/// writes the log prior of the object at list position `r` and
/// `log_conf` comes from [`log_confusion_tables`]. Objects without
/// answers are skipped.
///
/// Writes the new posteriors, calls `changed(object, delta)` with each
/// swept object's largest posterior change (1.0 for an object with no
/// previous posterior), and returns the swept log-likelihood and the
/// largest change, both merged in chunk-index order.
pub(crate) fn e_step(
    answers: &AnswerSet,
    objects: &[usize],
    log_conf: &[f64],
    k: usize,
    posteriors: &mut [Option<Vec<f64>>],
    seed: impl Fn(usize, &mut [f64]) + Sync,
    mut changed: impl FnMut(usize, f64),
) -> (f64, f64) {
    let old = &*posteriors;
    let _kind = pool::task_kind("em_estep");
    let chunks = pool::map_chunks(objects.len(), OBJECT_CHUNK, |range| {
        let mut posts: Vec<(usize, Vec<f64>, f64)> = Vec::with_capacity(range.len());
        let mut ll = 0.0f64;
        let mut logp = vec![0.0f64; k];
        for r in range {
            let i = objects[r];
            let votes = answers.answers_for(ObjectId(i));
            if votes.is_empty() {
                continue;
            }
            seed(r, &mut logp);
            for &(a, label) in votes {
                let table = &log_conf[a.index() * k * k..(a.index() + 1) * k * k];
                for (c, lp) in logp.iter_mut().enumerate() {
                    *lp += table[c * k + label.index()];
                }
            }
            let mut q = Vec::with_capacity(k);
            ll += prob::softmax_from_logs(&logp, &mut q);
            let delta = old[i].as_ref().map_or(1.0, |old| {
                old.iter()
                    .zip(&q)
                    .map(|(o, n)| (o - n).abs())
                    .fold(0.0f64, f64::max)
            });
            posts.push((i, q, delta));
        }
        (posts, ll)
    });
    let mut ll = 0.0f64;
    let mut max_delta = 0.0f64;
    for (posts, ll_part) in chunks {
        ll += ll_part;
        for (i, q, delta) in posts {
            max_delta = max_delta.max(delta);
            changed(i, delta);
            posteriors[i] = Some(q);
        }
    }
    (ll, max_delta)
}

/// The class prior as each class's share of the posterior mass, from a
/// floor of 1e-9 per class.
pub(crate) fn posterior_mass_prior(posteriors: &[Option<Vec<f64>>], k: usize) -> Vec<f64> {
    let mut prior = vec![1e-9f64; k];
    for post in posteriors.iter().flatten() {
        for (pr, &q) in prior.iter_mut().zip(post) {
            *pr += q;
        }
    }
    prob::normalize(&mut prior);
    prior
}

/// The annotators (ascending, below `num_annotators`) who answered at
/// least one of `objects`: the rows an E-step sweeping `objects` reads.
pub(crate) fn answering_annotators(
    answers: &AnswerSet,
    objects: impl IntoIterator<Item = usize>,
    num_annotators: usize,
) -> Vec<usize> {
    let mut answered = vec![false; num_annotators];
    for i in objects {
        for &(a, _) in answers.answers_for(ObjectId(i)) {
            if let Some(flag) = answered.get_mut(a.index()) {
                *flag = true;
            }
        }
    }
    (0..num_annotators).filter(|&j| answered[j]).collect()
}

/// Flat `[annotator][truth * k + label]` table of
/// `ln(confusions[annotator][truth, label].max(1e-12))`, filled for the
/// `annotators` rows only; every other row is left zero and must not be
/// read.
pub(crate) fn log_confusion_tables(
    confusions: &[ConfusionMatrix],
    k: usize,
    annotators: &[usize],
) -> Vec<f64> {
    let mut table = vec![0.0; confusions.len() * k * k];
    for &j in annotators {
        let rows = &mut table[j * k * k..(j + 1) * k * k];
        for (dst, &p) in rows.iter_mut().zip(confusions[j].as_slice()) {
            *dst = p.max(1e-12).ln();
        }
    }
    table
}

/// Add `partial` into `total` element-wise. Callers invoke this in
/// chunk-index order, which fixes the floating-point summation order.
pub(crate) fn accumulate(total: &mut [f64], partial: &[f64]) {
    debug_assert_eq!(total.len(), partial.len());
    for (t, &p) in total.iter_mut().zip(partial) {
        *t += p;
    }
}
