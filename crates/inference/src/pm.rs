//! PM truth inference — conflict-minimisation with annotator weights
//! (the "PM" algorithm of Zheng et al.'s survey \[48\], in the CRH family).
//!
//! PM models each annotator with a single scalar weight instead of a full
//! confusion matrix and alternates:
//!
//! * **truth step** — each object's label is the weighted majority of its
//!   answers;
//! * **weight step** — `w_j = -ln(err_j / Σ_k err_k)` where `err_j` is
//!   annotator `j`'s (smoothed) disagreement rate with the current truths.
//!
//! The paper's Hybrid baseline uses PM for inference, and CrowdRL's `M3`
//! ablation replaces the joint model with PM ("using PM algorithm \[48\] as
//! inference model", §VI-B.3).

use crate::mv::estimate_confusions;
use crate::result::InferenceResult;
use crowdrl_types::prob;
use crowdrl_types::{AnswerSet, Error, ObjectId, Result};

/// Configuration and entry point for PM.
#[derive(Debug, Clone)]
pub struct Pm {
    /// Maximum alternation rounds.
    pub max_iters: usize,
    /// Convergence threshold on the max posterior change.
    pub tol: f64,
}

impl Default for Pm {
    fn default() -> Self {
        Self {
            max_iters: 50,
            tol: 1e-6,
        }
    }
}

impl Pm {
    /// Run PM over all answered objects.
    #[allow(clippy::needless_range_loop)] // index spans several parallel structures
    pub fn infer(
        &self,
        answers: &AnswerSet,
        num_classes: usize,
        num_annotators: usize,
    ) -> Result<InferenceResult> {
        if self.max_iters == 0 {
            return Err(Error::InvalidParameter("max_iters must be positive".into()));
        }
        if num_classes < 2 {
            return Err(Error::InvalidParameter("need at least two classes".into()));
        }
        let n = answers.num_objects();
        let mut weights = vec![1.0f64; num_annotators];
        let mut posteriors: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut iterations = 0;
        for _ in 0..self.max_iters {
            iterations += 1;
            // Truth step: weighted vote per object.
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let votes = answers.answers_for(ObjectId(i));
                if votes.is_empty() {
                    continue;
                }
                let mut p = vec![0.0f64; num_classes];
                for &(a, c) in votes {
                    if c.index() >= num_classes || a.index() >= num_annotators {
                        return Err(Error::IndexOutOfBounds {
                            index: c.index().max(a.index()),
                            len: num_classes.max(num_annotators),
                            context: "pm".into(),
                        });
                    }
                    p[c.index()] += weights[a.index()].max(1e-9);
                }
                prob::normalize(&mut p);
                if let Some(old) = &posteriors[i] {
                    for (o, np) in old.iter().zip(&p) {
                        max_delta = max_delta.max((o - np).abs());
                    }
                } else {
                    max_delta = 1.0;
                }
                posteriors[i] = Some(p);
            }

            // Weight step: smoothed disagreement rates -> weights.
            let mut err = vec![1e-3f64; num_annotators]; // smoothing floor
            let mut cnt = vec![2e-3f64; num_annotators];
            for ans in answers.iter() {
                let Some(post) = posteriors[ans.object.index()].as_ref() else {
                    continue;
                };
                let Some(truth) = prob::argmax(post) else {
                    continue;
                };
                cnt[ans.annotator.index()] += 1.0;
                if ans.label.index() != truth {
                    err[ans.annotator.index()] += 1.0;
                }
            }
            let rates: Vec<f64> = err
                .iter()
                .zip(&cnt)
                .map(|(&e, &c)| (e / c).clamp(1e-6, 1.0))
                .collect();
            let total: f64 = rates.iter().sum();
            for (w, &r) in weights.iter_mut().zip(&rates) {
                // CRH weight: -ln(err_j / Σ err). Annotators with relatively
                // low error get large positive weights.
                *w = -(r / total.max(1e-12)).ln();
                if !w.is_finite() || *w < 0.0 {
                    *w = 0.0;
                }
            }
            if max_delta < self.tol {
                break;
            }
        }
        let confusions =
            estimate_confusions(answers, &posteriors, num_classes, num_annotators, 1.0)?;
        let mut class_prior = vec![0.0f64; num_classes];
        for p in posteriors.iter().flatten() {
            for (pr, &q) in class_prior.iter_mut().zip(p) {
                *pr += q;
            }
        }
        prob::normalize(&mut class_prior);
        Ok(InferenceResult {
            posteriors,
            confusions,
            class_prior,
            iterations,
            log_likelihood: f64::NAN,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mv::MajorityVote;
    use crowdrl_types::rng::seeded;
    use crowdrl_types::{AnnotatorId, Answer, ClassId, ConfusionMatrix};

    fn ans(o: usize, a: usize, c: usize) -> Answer {
        Answer {
            object: ObjectId(o),
            annotator: AnnotatorId(a),
            label: ClassId(c),
        }
    }

    fn simulate(n: usize, accs: &[f64], seed: u64) -> (AnswerSet, Vec<ClassId>) {
        let mut rng = seeded(seed);
        let mats: Vec<ConfusionMatrix> = accs
            .iter()
            .map(|&a| ConfusionMatrix::with_accuracy(2, a).unwrap())
            .collect();
        let mut answers = AnswerSet::new(n);
        let mut truths = Vec::with_capacity(n);
        for i in 0..n {
            let truth = ClassId(i % 2);
            truths.push(truth);
            for (j, m) in mats.iter().enumerate() {
                answers
                    .record(ans(i, j, m.sample_answer(truth, &mut rng).index()))
                    .unwrap();
            }
        }
        (answers, truths)
    }

    #[test]
    fn recovers_truth_and_downweights_bad_annotators() {
        let (answers, truths) = simulate(400, &[0.95, 0.9, 0.55, 0.5], 5);
        let r = Pm::default().infer(&answers, 2, 4).unwrap();
        let acc = truths
            .iter()
            .enumerate()
            .filter(|(i, t)| r.label(ObjectId(*i)) == Some(**t))
            .count() as f64
            / truths.len() as f64;
        assert!(acc > 0.9, "PM accuracy {acc}");
        assert!(r.validate(2, 1e-6));
    }

    #[test]
    fn beats_mv_with_skewed_panel() {
        let (answers, truths) = simulate(400, &[0.55, 0.55, 0.55, 0.97, 0.97], 11);
        let mv = MajorityVote.infer(&answers, 2, 5).unwrap();
        let pm = Pm::default().infer(&answers, 2, 5).unwrap();
        let acc = |r: &InferenceResult| {
            truths
                .iter()
                .enumerate()
                .filter(|(i, t)| r.label(ObjectId(*i)) == Some(**t))
                .count() as f64
                / truths.len() as f64
        };
        assert!(acc(&pm) > acc(&mv), "PM {} vs MV {}", acc(&pm), acc(&mv));
    }

    #[test]
    fn single_annotator_everything_follows_them() {
        let mut answers = AnswerSet::new(3);
        answers.record(ans(0, 0, 1)).unwrap();
        answers.record(ans(1, 0, 0)).unwrap();
        answers.record(ans(2, 0, 1)).unwrap();
        let r = Pm::default().infer(&answers, 2, 1).unwrap();
        assert_eq!(r.label(ObjectId(0)), Some(ClassId(1)));
        assert_eq!(r.label(ObjectId(1)), Some(ClassId(0)));
        assert_eq!(r.label(ObjectId(2)), Some(ClassId(1)));
    }

    #[test]
    fn handles_unanswered_objects_and_bad_config() {
        let answers = AnswerSet::new(2);
        let r = Pm::default().infer(&answers, 2, 1).unwrap();
        assert!(r.posteriors.iter().all(Option::is_none));
        let pm = Pm {
            max_iters: 0,
            tol: 1e-6,
        };
        assert!(pm.infer(&answers, 2, 1).is_err());
        assert!(Pm::default().infer(&answers, 1, 1).is_err());
    }

    #[test]
    fn converges_quickly_on_consistent_answers() {
        let mut answers = AnswerSet::new(5);
        for o in 0..5 {
            for a in 0..3 {
                answers.record(ans(o, a, o % 2)).unwrap();
            }
        }
        let r = Pm::default().infer(&answers, 2, 3).unwrap();
        assert!(r.iterations <= 5, "iterations {}", r.iterations);
    }
}
