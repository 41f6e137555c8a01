//! Dawid–Skene EM truth inference \[48\].
//!
//! The classical confusion-matrix EM: initialize posteriors by majority
//! vote, then alternate
//!
//! * **M-step** — re-estimate each annotator's confusion matrix `Π̂^j` and
//!   the class prior from the current posteriors, and
//! * **E-step** — `q(y_i = c) ∝ prior_c · Π_j π̂^j[c, y_i^j]`
//!
//! until the posteriors stop moving or `max_iters` is reached. This is the
//! inference engine the DLTA and IDLE baselines use, and the
//! annotators-only special case of CrowdRL's joint model (drop the
//! classifier term from the E-step and you get exactly this).

use crate::mv::{estimate_confusions, MajorityVote};
use crate::result::InferenceResult;
use crowdrl_linalg::pool;
use crowdrl_obs as obs;
use crowdrl_types::prob;
use crowdrl_types::{AnswerSet, ConfusionMatrix, Error, ObjectId, Result};

/// Configuration and entry point for Dawid–Skene EM.
#[derive(Debug, Clone)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the max posterior change.
    pub tol: f64,
    /// Clamp every annotator's estimated diagonal to at least this value
    /// (`None` = classical unconstrained DS). The default 0.5 encodes the
    /// non-adversarial-annotator assumption and prevents the label-switching
    /// failure mode where EM decides a weak annotator is *anti*-correlated
    /// and flips the labels they dominate.
    pub min_diagonal: Option<f64>,
    /// Estimate a single accuracy per annotator ("one-coin" model) instead
    /// of a full confusion matrix. With few answers per annotator the full
    /// matrix overfits per-class asymmetries (one class's diagonal drifts
    /// high, the other low) and EM amplifies the drift; the one-coin model
    /// is the standard stabilization and is the default. Set to `false`
    /// for the classical full-matrix estimator.
    pub one_coin: bool,
    /// Re-estimate the class prior each M-step (classical DS). With weak
    /// annotators the estimated prior drifts toward whichever class is
    /// momentarily ahead and then herds split votes to it, so the default
    /// keeps a fixed uniform prior (as PM-style weighted voting does).
    pub estimate_prior: bool,
}

impl Default for DawidSkene {
    fn default() -> Self {
        Self {
            max_iters: 50,
            tol: 1e-6,
            min_diagonal: Some(0.5),
            one_coin: true,
            estimate_prior: false,
        }
    }
}

impl DawidSkene {
    /// Run EM over all answered objects.
    pub fn infer(
        &self,
        answers: &AnswerSet,
        num_classes: usize,
        num_annotators: usize,
    ) -> Result<InferenceResult> {
        if self.max_iters == 0 {
            return Err(Error::InvalidParameter("max_iters must be positive".into()));
        }
        let _span = obs::span("em.ds.infer");
        // Initialize with majority vote.
        let mut state = MajorityVote.infer(answers, num_classes, num_annotators)?;
        let mut iterations = 0;
        let mut log_likelihood = f64::NEG_INFINITY;
        // Every sweep covers every object, so it reads the log-confusion
        // rows of every annotator with an answer, and of no one else.
        let answering =
            crate::par::answering_annotators(answers, 0..answers.num_objects(), num_annotators);
        for _ in 0..self.max_iters {
            iterations += 1;
            // M-step: confusions and prior from current posteriors.
            self.m_step(
                answers,
                &state.posteriors,
                num_classes,
                num_annotators,
                &mut state.confusions,
            )?;
            if self.estimate_prior {
                let mut prior = vec![1e-9f64; num_classes]; // tiny floor
                for post in state.posteriors.iter().flatten() {
                    for (pr, &q) in prior.iter_mut().zip(post) {
                        *pr += q;
                    }
                }
                prob::normalize(&mut prior);
                state.class_prior = prior;
            } else {
                state.class_prior = vec![1.0 / num_classes as f64; num_classes];
            }

            // E-step in log space for stability. Chunked over fixed object
            // ranges; per-chunk posteriors and log-likelihood/max-delta
            // partials are merged in chunk-index order, so the result is
            // bit-identical at every thread count (DESIGN.md §9). The
            // answering annotators' log-confusion tables are computed once
            // per iteration instead of once per (answer, class) pair.
            let log_prior: Vec<f64> = state
                .class_prior
                .iter()
                .map(|&p| p.max(1e-12).ln())
                .collect();
            let log_conf =
                crate::par::log_confusion_tables(&state.confusions, num_classes, &answering);
            let k = num_classes;
            let posteriors = &state.posteriors;
            let _kind = pool::task_kind("em_estep");
            let chunks =
                pool::map_chunks(answers.num_objects(), crate::par::OBJECT_CHUNK, |range| {
                    let mut posts: Vec<(usize, Vec<f64>)> = Vec::new();
                    let mut ll = 0.0f64;
                    let mut max_delta = 0.0f64;
                    let mut logp = vec![0.0f64; k];
                    for i in range {
                        let votes = answers.answers_for(ObjectId(i));
                        if votes.is_empty() {
                            continue;
                        }
                        logp.copy_from_slice(&log_prior);
                        for &(a, label) in votes {
                            let table = &log_conf[a.index() * k * k..(a.index() + 1) * k * k];
                            for (c, lp) in logp.iter_mut().enumerate() {
                                *lp += table[c * k + label.index()];
                            }
                        }
                        let mut q = Vec::with_capacity(k);
                        let lse = prob::softmax_from_logs(&logp, &mut q);
                        ll += lse;
                        if let Some(old) = &posteriors[i] {
                            for (o, n) in old.iter().zip(&q) {
                                max_delta = max_delta.max((o - n).abs());
                            }
                        }
                        posts.push((i, q));
                    }
                    (posts, ll, max_delta)
                });
            let mut max_delta = 0.0f64;
            let mut ll = 0.0f64;
            for (posts, ll_part, delta_part) in chunks {
                ll += ll_part;
                max_delta = max_delta.max(delta_part);
                for (i, q) in posts {
                    state.posteriors[i] = Some(q);
                }
            }
            log_likelihood = ll;
            if !log_likelihood.is_finite() {
                return Err(Error::NumericalFailure("DS likelihood diverged".into()));
            }
            if obs::enabled() {
                obs::gauge_step("em.ds.ll", (iterations - 1) as f64, ll);
                obs::gauge_step("em.ds.delta", (iterations - 1) as f64, max_delta);
            }
            if max_delta < self.tol {
                break;
            }
        }
        // Final M-step so reported confusions match the final posteriors.
        self.m_step(
            answers,
            &state.posteriors,
            num_classes,
            num_annotators,
            &mut state.confusions,
        )?;
        obs::counter_add("em.ds.runs", 1);
        obs::histogram("em.ds.iters", iterations as f64);
        state.iterations = iterations;
        state.log_likelihood = log_likelihood;
        Ok(state)
    }

    /// M-step dispatch: one-coin or full-matrix, with the diagonal floor,
    /// overwriting `confusions`. Shared with the incremental
    /// [`engine`](crate::engine), whose warm M-step re-estimates
    /// confusions over *all* carried posteriors.
    pub(crate) fn m_step(
        &self,
        answers: &AnswerSet,
        posteriors: &[Option<Vec<f64>>],
        num_classes: usize,
        num_annotators: usize,
        confusions: &mut Vec<ConfusionMatrix>,
    ) -> Result<()> {
        if self.one_coin {
            estimate_one_coin(answers, posteriors, num_classes, num_annotators, confusions)?;
        } else {
            *confusions = estimate_confusions(answers, posteriors, num_classes, num_annotators)?;
        }
        if let Some(floor) = self.min_diagonal {
            for m in confusions.iter_mut() {
                m.clamp_diagonal_min(floor)?;
            }
        }
        Ok(())
    }
}

/// One-coin M-step: each annotator gets a single shrunk accuracy
/// `acc_j = (17.5 + Σ_i q_i(label_ij)) / (25 + #answers_j)` turned into a
/// symmetric confusion matrix. Estimates are capped at 0.92: EM otherwise
/// inflates one annotator's accuracy toward 1.0 (their answers define the
/// posterior, which then certifies their answers), after which that
/// annotator single-handedly outvotes the rest of the panel.
///
/// `confusions` is overwritten in place (re-shaped to `num_annotators`
/// matrices over `num_classes` first if it does not fit), so a refresh
/// allocates no matrix; an annotator without answers gets the prior's
/// accuracy, 0.7.
pub(crate) fn estimate_one_coin(
    answers: &AnswerSet,
    posteriors: &[Option<Vec<f64>>],
    num_classes: usize,
    num_annotators: usize,
    confusions: &mut Vec<ConfusionMatrix>,
) -> Result<()> {
    // Shrinkage prior: pseudo-observations at accuracy 0.7 with strength
    // 25. EM's accuracy spread between same-quality annotators is mostly
    // estimation noise, and an inflated spread lets one annotator outvote
    // the rest (the posterior then certifies that annotator's answers — a
    // runaway feedback loop); the prior damps the loop without blocking
    // genuinely-different annotators from separating given enough answers.
    //
    // The sufficient statistics are summed per fixed object chunk and the
    // partials merged in chunk-index order (DESIGN.md §9). A chunk's
    // partial is merged only for the annotators it touched: an untouched
    // entry is +0.0, and adding +0.0 to an accumulator that starts at
    // 17.5 or 25 changes no bit.
    let _kind = pool::task_kind("em_mstep");
    let partials = pool::map_chunks(
        answers.num_objects(),
        crate::par::OBJECT_CHUNK,
        |range| -> Result<(Vec<usize>, Vec<f64>, Vec<f64>)> {
            let mut touched = Vec::new();
            let mut correct = vec![0.0f64; num_annotators];
            let mut total = vec![0.0f64; num_annotators];
            for i in range {
                let Some(post) = posteriors[i].as_ref() else {
                    continue;
                };
                for &(a, label) in answers.answers_for(ObjectId(i)) {
                    let j = a.index();
                    if j >= num_annotators {
                        return Err(Error::IndexOutOfBounds {
                            index: j,
                            len: num_annotators,
                            context: "one-coin estimation".into(),
                        });
                    }
                    if total[j] == 0.0 {
                        touched.push(j);
                    }
                    correct[j] += post.get(label.index()).copied().unwrap_or(0.0);
                    total[j] += 1.0;
                }
            }
            Ok((touched, correct, total))
        },
    );
    let mut correct = vec![17.5f64; num_annotators];
    let mut total = vec![25.0f64; num_annotators];
    for partial in partials {
        let (touched, c, t) = partial?;
        for j in touched {
            correct[j] += c[j];
            total[j] += t[j];
        }
    }
    if confusions.len() != num_annotators
        || confusions.iter().any(|m| m.num_classes() != num_classes)
    {
        *confusions = vec![ConfusionMatrix::uniform(num_classes)?; num_annotators];
    }
    for (m, (c, t)) in confusions.iter_mut().zip(correct.iter().zip(&total)) {
        m.set_accuracy((c / t).clamp(0.0, 0.92))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;
    use crowdrl_types::{AnnotatorId, Answer, ClassId, ConfusionMatrix};

    fn ans(o: usize, a: usize, c: usize) -> Answer {
        Answer {
            object: ObjectId(o),
            annotator: AnnotatorId(a),
            label: ClassId(c),
        }
    }

    /// Simulate answers from annotators with known accuracies over known
    /// truths; returns (answers, truths).
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
                let label = m.sample_answer(truth, &mut rng);
                answers.record(ans(i, j, label.index())).unwrap();
            }
        }
        (answers, truths)
    }

    #[test]
    fn recovers_truth_with_mixed_quality_annotators() {
        let (answers, truths) = simulate(600, &[0.9, 0.85, 0.6, 0.55, 0.8], 2);
        let r = DawidSkene::default().infer(&answers, 2, 5).unwrap();
        let correct = truths
            .iter()
            .enumerate()
            .filter(|(i, t)| r.label(ObjectId(*i)) == Some(**t))
            .count();
        let acc = correct as f64 / truths.len() as f64;
        assert!(acc > 0.93, "DS accuracy {acc}");
        assert!(r.validate(2, 1e-6));
    }

    #[test]
    fn beats_majority_vote_with_skewed_panel() {
        // Three bad annotators + two excellent ones: MV is dominated by the
        // bad majority; DS learns to discount them.
        let (answers, truths) = simulate(400, &[0.55, 0.55, 0.55, 0.97, 0.97], 7);
        let acc_of = |labels: Vec<Option<ClassId>>| {
            truths
                .iter()
                .enumerate()
                .filter(|(i, t)| labels[*i] == Some(**t))
                .count() as f64
                / truths.len() as f64
        };
        let mv = MajorityVote.infer(&answers, 2, 5).unwrap();
        let ds = DawidSkene::default().infer(&answers, 2, 5).unwrap();
        let mv_acc = acc_of((0..400).map(|i| mv.label(ObjectId(i))).collect());
        let ds_acc = acc_of((0..400).map(|i| ds.label(ObjectId(i))).collect());
        assert!(
            ds_acc > mv_acc + 0.02,
            "DS {ds_acc} should beat MV {mv_acc} with a skewed panel"
        );
    }

    #[test]
    fn recovers_annotator_qualities() {
        // Three annotators: with only two, EM cannot break the tie between
        // "annotator A is right" and "annotator B is right" on disagreements.
        let (answers, _) = simulate(2000, &[0.9, 0.6, 0.8], 13);
        let r = DawidSkene::default().infer(&answers, 2, 3).unwrap();
        let q = r.qualities();
        assert!((q[0] - 0.9).abs() < 0.06, "q0={}", q[0]);
        assert!((q[1] - 0.6).abs() < 0.08, "q1={}", q[1]);
        assert!((q[2] - 0.8).abs() < 0.07, "q2={}", q[2]);
    }

    #[test]
    fn unanimous_answers_stay_certain() {
        let mut answers = AnswerSet::new(3);
        for o in 0..3 {
            for a in 0..3 {
                answers.record(ans(o, a, 1)).unwrap();
            }
        }
        let r = DawidSkene::default().infer(&answers, 2, 3).unwrap();
        for o in 0..3 {
            assert_eq!(r.label(ObjectId(o)), Some(ClassId(1)));
            // Shrinkage keeps the accuracy estimates near the 0.7 prior
            // with only three answers each, so confidence is high but not
            // extreme.
            assert!(r.confidence(ObjectId(o)).unwrap() > 0.85);
        }
    }

    #[test]
    fn converges_and_reports_iterations() {
        let (answers, _) = simulate(100, &[0.8, 0.8, 0.8], 3);
        let r = DawidSkene::default().infer(&answers, 2, 3).unwrap();
        assert!(r.iterations >= 1 && r.iterations <= 50);
        assert!(r.log_likelihood.is_finite());
    }

    #[test]
    fn objects_without_answers_stay_none() {
        let mut answers = AnswerSet::new(3);
        answers.record(ans(1, 0, 0)).unwrap();
        let r = DawidSkene::default().infer(&answers, 2, 1).unwrap();
        assert!(r.posteriors[0].is_none());
        assert!(r.posteriors[1].is_some());
        assert!(r.posteriors[2].is_none());
    }

    #[test]
    fn rejects_zero_iters() {
        let answers = AnswerSet::new(1);
        let ds = DawidSkene {
            max_iters: 0,
            ..Default::default()
        };
        assert!(ds.infer(&answers, 2, 1).is_err());
    }
}
