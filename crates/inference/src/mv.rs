//! Majority voting — the naive truth-inference baseline (§V-A.1).
//!
//! Each object's posterior is the empirical vote distribution; confusion
//! matrices are then estimated against the MV labels, which is also how the
//! iterative algorithms initialize.

use crate::result::InferenceResult;
use crowdrl_linalg::pool;
use crowdrl_types::prob;
use crowdrl_types::{AnswerSet, ConfusionMatrix, Error, Result};

/// Majority-vote truth inference.
#[derive(Debug, Clone, Default)]
pub struct MajorityVote;

impl MajorityVote {
    /// Infer posteriors (vote fractions) and estimate annotator confusion
    /// matrices against the vote distribution.
    #[allow(clippy::needless_range_loop)] // index spans several parallel structures
    pub fn infer(
        &self,
        answers: &AnswerSet,
        num_classes: usize,
        num_annotators: usize,
    ) -> Result<InferenceResult> {
        if num_classes < 2 {
            return Err(Error::InvalidParameter("need at least two classes".into()));
        }
        let n = answers.num_objects();
        let mut posteriors: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut class_prior = vec![0.0f64; num_classes];
        for i in 0..n {
            let obj = crowdrl_types::ObjectId(i);
            let votes = answers.answers_for(obj);
            if votes.is_empty() {
                continue;
            }
            let mut p = vec![0.0f64; num_classes];
            for &(_, c) in votes {
                if c.index() >= num_classes {
                    return Err(Error::IndexOutOfBounds {
                        index: c.index(),
                        len: num_classes,
                        context: "majority vote".into(),
                    });
                }
                p[c.index()] += 1.0;
            }
            prob::normalize(&mut p);
            for (prior, &pi) in class_prior.iter_mut().zip(&p) {
                *prior += pi;
            }
            posteriors[i] = Some(p);
        }
        prob::normalize(&mut class_prior);
        let confusions =
            estimate_confusions(answers, &posteriors, num_classes, num_annotators, 1.0)?;
        Ok(InferenceResult {
            posteriors,
            confusions,
            class_prior,
            iterations: 1,
            log_likelihood: f64::NAN,
        })
    }
}

/// Soft confusion counts `[annotator][truth * k + label]` (flat, length
/// `num_annotators * k²`): the sufficient statistics of
/// [`estimate_confusions`].
///
/// The per-object loop is chunked over fixed object ranges on the worker
/// pool; each chunk accumulates its own partial grid and the partials are
/// summed in chunk-index order, so the counts are bit-identical for any
/// thread count (DESIGN.md §9).
fn soft_count_grids(
    answers: &AnswerSet,
    posteriors: &[Option<Vec<f64>>],
    num_classes: usize,
    num_annotators: usize,
) -> Result<Vec<f64>> {
    let k = num_classes;
    let len = num_annotators * k * k;
    let _kind = pool::task_kind("em_mstep");
    let partials = pool::map_chunks(
        answers.num_objects(),
        crate::par::OBJECT_CHUNK,
        |range| -> Result<Vec<f64>> {
            let mut counts = vec![0.0f64; len];
            for i in range {
                let Some(post) = posteriors[i].as_ref() else {
                    continue;
                };
                for &(a, label) in answers.answers_for(crowdrl_types::ObjectId(i)) {
                    if a.index() >= num_annotators {
                        return Err(Error::IndexOutOfBounds {
                            index: a.index(),
                            len: num_annotators,
                            context: "confusion estimation".into(),
                        });
                    }
                    let grid = &mut counts[a.index() * k * k..(a.index() + 1) * k * k];
                    for (truth, &q) in post.iter().enumerate() {
                        grid[truth * k + label.index()] += q;
                    }
                }
            }
            Ok(counts)
        },
    );
    let mut counts = vec![0.0f64; len];
    for partial in partials {
        crate::par::accumulate(&mut counts, &partial?);
    }
    Ok(counts)
}

/// Estimate confusion matrices from soft labels with `smoothing`
/// pseudo-counts per cell (1 is Laplace; floored at 1e-9): the
/// full-matrix M-step shared by MV initialization and the EM algorithms.
pub(crate) fn estimate_confusions(
    answers: &AnswerSet,
    posteriors: &[Option<Vec<f64>>],
    num_classes: usize,
    num_annotators: usize,
    smoothing: f64,
) -> Result<Vec<ConfusionMatrix>> {
    let counts = soft_count_grids(answers, posteriors, num_classes, num_annotators)?;
    let mut confusions = Vec::with_capacity(num_annotators);
    for grid in counts.chunks_exact(num_classes * num_classes) {
        let mut m = ConfusionMatrix::uniform(num_classes)?;
        m.set_from_counts(grid, smoothing.max(1e-9))?;
        confusions.push(m);
    }
    Ok(confusions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::{AnnotatorId, Answer, ClassId, ObjectId};

    fn ans(o: usize, a: usize, c: usize) -> Answer {
        Answer {
            object: ObjectId(o),
            annotator: AnnotatorId(a),
            label: ClassId(c),
        }
    }

    #[test]
    fn unanimous_answers_give_certain_posterior() {
        let mut set = AnswerSet::new(2);
        set.record(ans(0, 0, 1)).unwrap();
        set.record(ans(0, 1, 1)).unwrap();
        let r = MajorityVote.infer(&set, 2, 2).unwrap();
        assert_eq!(r.label(ObjectId(0)), Some(ClassId(1)));
        assert_eq!(r.confidence(ObjectId(0)), Some(1.0));
        assert!(r.posteriors[1].is_none());
        assert!(r.validate(2, 1e-9));
    }

    #[test]
    fn split_vote_gives_split_posterior() {
        let mut set = AnswerSet::new(1);
        set.record(ans(0, 0, 0)).unwrap();
        set.record(ans(0, 1, 1)).unwrap();
        set.record(ans(0, 2, 1)).unwrap();
        let r = MajorityVote.infer(&set, 2, 3).unwrap();
        let p = r.posteriors[0].as_ref().unwrap();
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.label(ObjectId(0)), Some(ClassId(1)));
    }

    #[test]
    fn paper_example_o1_majority_is_positive() {
        // Example 1: answers for o1 were {positive, negative, positive}.
        let mut set = AnswerSet::new(1);
        set.record(ans(0, 0, 0)).unwrap(); // positive
        set.record(ans(0, 2, 1)).unwrap(); // negative
        set.record(ans(0, 3, 0)).unwrap(); // positive
        let r = MajorityVote.infer(&set, 2, 4).unwrap();
        assert_eq!(r.label(ObjectId(0)), Some(ClassId(0)));
    }

    #[test]
    fn confusions_reflect_agreement_with_majority() {
        let mut set = AnswerSet::new(4);
        // Annotator 0 always agrees with the (unanimous-vs-it) majority,
        // annotator 2 always disagrees.
        for o in 0..4 {
            set.record(ans(o, 0, 0)).unwrap();
            set.record(ans(o, 1, 0)).unwrap();
            set.record(ans(o, 2, 1)).unwrap();
        }
        let r = MajorityVote.infer(&set, 2, 3).unwrap();
        let q = r.qualities();
        assert!(q[0] > q[2], "agreeing annotator should look better: {q:?}");
        for m in &r.confusions {
            m.validate(1e-9).unwrap();
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let set = AnswerSet::new(1);
        assert!(MajorityVote.infer(&set, 1, 1).is_err());
        let mut set = AnswerSet::new(1);
        set.record(ans(0, 0, 5)).unwrap();
        assert!(MajorityVote.infer(&set, 2, 1).is_err());
    }

    #[test]
    fn class_prior_aggregates_posteriors() {
        let mut set = AnswerSet::new(2);
        set.record(ans(0, 0, 0)).unwrap();
        set.record(ans(1, 0, 1)).unwrap();
        let r = MajorityVote.infer(&set, 2, 1).unwrap();
        assert!((r.class_prior[0] - 0.5).abs() < 1e-12);
    }
}
