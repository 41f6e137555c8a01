//! Shared pieces of the deterministic parallel EM hot paths (DESIGN.md §9).
//!
//! Both EM implementations chunk their per-object loops over fixed,
//! data-size-only object ranges (`OBJECT_CHUNK`) via
//! [`crowdrl_linalg::pool`], and merge per-chunk partials — posterior
//! updates, log-likelihood terms, sufficient statistics — strictly in
//! chunk-index order. The chunked reduction *is* the algorithm at every
//! thread count (including one), so results cannot depend on the schedule.
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

use crowdrl_types::{AnswerSet, ConfusionMatrix, ObjectId};

/// Objects per E-step/M-step chunk. Fixed by data size only; never derived
/// from the thread count.
pub(crate) const OBJECT_CHUNK: usize = 256;

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
