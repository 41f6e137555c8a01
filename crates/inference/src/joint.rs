//! CrowdRL's joint truth-inference model (§V-A.2, Fig. 3b) — the paper's
//! core inference contribution.
//!
//! Instead of treating the trained classifier as one more annotator (which
//! composes its bias with the annotator noise it was trained on), the joint
//! model maximizes one likelihood over *all* unknowns at once
//! (Eq. 7 / Eq. 8):
//!
//! ```text
//! p(L | Θ, {Π^j}) = Π_i [ p(y_i | φ, Θ) · Π_j p(y_i^j | y_i, Π^j) ]
//! ```
//!
//! EM alternates:
//!
//! * **E-step** — posterior `q(y_i = c) ∝ p(c | φ(x_i); Θ_last) ·
//!   Π_j π̂^j[c, y_i^j]`, computed in log space;
//! * **M-step** — (a) confusion matrices from soft counts
//!   `π̂^j_{cl} = Σ_i q(y_i = c)·1[y_i^j = l] / Σ_i q(y_i = c)` with Laplace
//!   smoothing, (b) **expert bounding**: any expert row whose diagonal fell
//!   below `1 - ε` is clamped back (the paper's mechanism preventing an
//!   EM pass from eroding a trusted expert after a rare mistake), and
//!   (c) the classifier `Θ` is retrained on the answered objects with the
//!   posteriors as *soft* targets.
//!
//! Convergence is declared when the posteriors stop moving.

use crate::mv::{estimate_confusions, MajorityVote};
use crate::result::InferenceResult;
use crowdrl_linalg::{pool, Matrix};
use crowdrl_nn::SoftmaxClassifier;
use crowdrl_obs as obs;
use crowdrl_types::prob;
use crowdrl_types::{AnnotatorProfile, AnswerSet, Dataset, Error, ObjectId, Result};
use rand::Rng;

/// Hyperparameters of the joint EM.
#[derive(Debug, Clone)]
pub struct JointConfig {
    /// Maximum EM iterations (each includes a classifier retrain).
    pub max_iters: usize,
    /// Convergence threshold on the max posterior change.
    pub tol: f64,
    /// Expert bounding threshold ε: expert confusion diagonals are clamped
    /// to at least `1 - ε` (§V-A). Set to `1.0` to disable bounding.
    pub expert_epsilon: f64,
    /// Laplace smoothing for confusion-matrix counts.
    pub smoothing: f64,
    /// Exponent on the classifier term in the E-step. `1.0` is the paper's
    /// model; `0.0` ignores the classifier (degenerates to Dawid–Skene).
    pub classifier_weight: f64,
    /// Clamp classifier probabilities into `[phi_clamp, 1 - phi_clamp]`
    /// before they enter the E-step. Neural classifiers are overconfident;
    /// unclamped, a confidently-wrong `φ` outvotes every annotator and the
    /// retrain step locks the error in (an echo chamber). Clamping at 0.1
    /// caps the classifier's log-odds contribution at that of one strong
    /// (90%-accurate) annotator.
    pub phi_clamp: f64,
    /// Retrain the classifier every this-many EM iterations (1 = always).
    pub retrain_every: usize,
    /// Clamp every annotator's estimated diagonal to at least this value
    /// (`None` = unconstrained). See
    /// [`DawidSkene::min_diagonal`](crate::DawidSkene) for why.
    pub min_diagonal: Option<f64>,
    /// One-coin annotator model (single accuracy per annotator) instead of
    /// full confusion matrices; see
    /// [`DawidSkene::one_coin`](crate::DawidSkene).
    pub one_coin: bool,
    /// Retrain the classifier on hard argmax labels instead of the
    /// posterior soft targets (an ablation of the soft-label design —
    /// DESIGN.md §5).
    pub hard_labels: bool,
}

impl Default for JointConfig {
    fn default() -> Self {
        Self {
            max_iters: 8,
            tol: 1e-4,
            expert_epsilon: 0.05,
            smoothing: 1.0,
            classifier_weight: 1.0,
            phi_clamp: 0.1,
            retrain_every: 1,
            min_diagonal: Some(0.5),
            one_coin: true,
            hard_labels: false,
        }
    }
}

impl JointConfig {
    /// Validate parameter domains. [`JointInference::infer`] checks this
    /// on every call; `CrowdRlConfig::validate` checks it when a
    /// configuration is built, so a bad value fails before a run starts.
    pub fn validate(&self) -> Result<()> {
        if self.max_iters == 0 {
            return Err(Error::InvalidParameter("max_iters must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.expert_epsilon) {
            return Err(Error::InvalidParameter(
                "expert_epsilon must be in [0,1]".into(),
            ));
        }
        if self.smoothing < 0.0 || !self.smoothing.is_finite() {
            return Err(Error::InvalidParameter(format!(
                "smoothing must be finite and non-negative, got {}",
                self.smoothing
            )));
        }
        if self.classifier_weight < 0.0 || !self.classifier_weight.is_finite() {
            return Err(Error::InvalidParameter(
                "classifier_weight must be non-negative".into(),
            ));
        }
        if !(0.0..=0.5).contains(&self.phi_clamp) {
            return Err(Error::InvalidParameter(
                "phi_clamp must be in [0, 0.5]".into(),
            ));
        }
        if self.retrain_every == 0 {
            return Err(Error::InvalidParameter(
                "retrain_every must be positive".into(),
            ));
        }
        if let Some(floor) = self.min_diagonal {
            if !(0.0..=1.0).contains(&floor) {
                return Err(Error::InvalidParameter(format!(
                    "min_diagonal must be in [0,1], got {floor}"
                )));
            }
        }
        Ok(())
    }
}

/// The joint truth-inference model.
#[derive(Debug, Clone, Default)]
pub struct JointInference {
    /// EM hyperparameters.
    pub config: JointConfig,
}

impl JointInference {
    /// Run joint EM over all answered objects.
    ///
    /// The classifier is mutated: it ends trained on the final posteriors,
    /// ready for labelled-set enrichment. If it has never been trained, the
    /// first E-step uses majority vote in place of the classifier term.
    pub fn infer<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        answers: &AnswerSet,
        profiles: &[AnnotatorProfile],
        classifier: &mut SoftmaxClassifier,
        rng: &mut R,
    ) -> Result<InferenceResult> {
        let _span = obs::span("em.joint.infer");
        self.config.validate()?;
        let k = dataset.num_classes();
        if classifier.num_classes() != k {
            return Err(Error::DimensionMismatch {
                expected: k,
                actual: classifier.num_classes(),
                context: "joint inference classes".into(),
            });
        }
        if answers.num_objects() != dataset.len() {
            return Err(Error::DimensionMismatch {
                expected: dataset.len(),
                actual: answers.num_objects(),
                context: "joint inference answers".into(),
            });
        }
        let num_annotators = profiles.len();

        // Answered objects and their feature matrix (gathered once).
        let answered: Vec<usize> = (0..dataset.len())
            .filter(|&i| !answers.answers_for(ObjectId(i)).is_empty())
            .collect();
        if answered.is_empty() {
            // Nothing to infer; report empty result with uniform artifacts.
            return Ok(InferenceResult {
                posteriors: vec![None; dataset.len()],
                confusions: vec![crowdrl_types::ConfusionMatrix::uniform(k)?; num_annotators],
                class_prior: vec![1.0 / k as f64; k],
                iterations: 0,
                log_likelihood: f64::NAN,
            });
        }
        let mut x = Matrix::zeros(answered.len(), dataset.dim());
        for (r, &i) in answered.iter().enumerate() {
            for (dst, &src) in x.row_mut(r).iter_mut().zip(dataset.features(i)) {
                *dst = src;
            }
        }

        // Initialize posteriors by majority vote; estimate confusions.
        let mv = MajorityVote.infer(answers, k, num_annotators)?;
        let mut posteriors = mv.posteriors;
        let mut confusions = mv.confusions;
        self.bound_experts(&mut confusions, profiles)?;

        // Bootstrap the classifier if it is untrained.
        if !classifier.is_trained() {
            self.retrain(classifier, &x, &answered, &posteriors, rng)?;
        }

        let mut iterations = 0;
        let mut log_likelihood = f64::NEG_INFINITY;
        // The log-confusion rows every sweep reads: those of the
        // annotators who answered something.
        let answering =
            crate::par::answering_annotators(answers, answered.iter().copied(), num_annotators);
        for iter in 0..self.config.max_iters {
            iterations += 1;

            // E-step: classifier prior x annotator likelihoods, in logs.
            // Chunked over answered objects with fixed boundaries; each
            // chunk returns its new posteriors plus log-likelihood and
            // max-delta partials, merged below in chunk-index order so the
            // result is bit-identical at every thread count (DESIGN.md §9).
            let phi = classifier.predict_proba(&x); // [answered x k]
            let log_conf = crate::par::log_confusion_tables(&confusions, k, &answering);
            let lo = self.config.phi_clamp.max(1e-12);
            let hi = 1.0 - self.config.phi_clamp;
            let cw = self.config.classifier_weight;
            let _kind = pool::task_kind("em_estep");
            let chunks = pool::map_chunks(answered.len(), crate::par::OBJECT_CHUNK, |range| {
                let mut posts: Vec<Vec<f64>> = Vec::with_capacity(range.len());
                let mut ll = 0.0f64;
                let mut max_delta = 0.0f64;
                let mut logp = vec![0.0f64; k];
                for r in range {
                    let i = answered[r];
                    for (c, lp) in logp.iter_mut().enumerate() {
                        *lp = cw * (phi.get(r, c) as f64).clamp(lo, hi).ln();
                    }
                    for &(a, label) in answers.answers_for(ObjectId(i)) {
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
                    posts.push(q);
                }
                (posts, ll, max_delta)
            });
            let mut max_delta = 0.0f64;
            let mut ll = 0.0f64;
            for (ci, (posts, ll_part, delta_part)) in chunks.into_iter().enumerate() {
                ll += ll_part;
                max_delta = max_delta.max(delta_part);
                let range = pool::chunk_range(answered.len(), crate::par::OBJECT_CHUNK, ci);
                for (offset, q) in posts.into_iter().enumerate() {
                    posteriors[answered[range.start + offset]] = Some(q);
                }
            }
            if !ll.is_finite() {
                return Err(Error::NumericalFailure("joint likelihood diverged".into()));
            }
            log_likelihood = ll;
            if obs::enabled() {
                obs::gauge_step("em.joint.ll", iter as f64, ll);
                obs::gauge_step("em.joint.delta", iter as f64, max_delta);
            }

            // M-step (a): confusion matrices from soft counts.
            if self.config.one_coin {
                crate::dawid_skene::estimate_one_coin(
                    answers,
                    &posteriors,
                    k,
                    num_annotators,
                    &mut confusions,
                )?;
            } else {
                confusions = self.soft_confusions(answers, &posteriors, k, num_annotators)?;
            }
            // M-step (b): expert bounding.
            self.bound_experts(&mut confusions, profiles)?;
            // M-step (c): retrain classifier on soft targets.
            if (iter + 1) % self.config.retrain_every == 0 {
                self.retrain(classifier, &x, &answered, &posteriors, rng)?;
            }

            if max_delta < self.config.tol {
                break;
            }
        }
        obs::counter_add("em.joint.runs", 1);
        obs::histogram("em.joint.iters", iterations as f64);

        let mut class_prior = vec![1e-9f64; k];
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
            log_likelihood,
        })
    }

    /// Soft-count confusion estimation with configured smoothing. The soft
    /// counts are accumulated per object chunk and merged in chunk-index
    /// order, exactly like [`estimate_confusions`]. Shared with the
    /// incremental [`engine`](crate::engine), whose warm M-step is this
    /// exact computation over the carried posteriors.
    pub(crate) fn soft_confusions(
        &self,
        answers: &AnswerSet,
        posteriors: &[Option<Vec<f64>>],
        k: usize,
        num_annotators: usize,
    ) -> Result<Vec<crowdrl_types::ConfusionMatrix>> {
        if (self.config.smoothing - 1.0).abs() < f64::EPSILON {
            return estimate_confusions(answers, posteriors, k, num_annotators);
        }
        let counts = crate::mv::soft_count_grids(answers, posteriors, k, num_annotators)?;
        let mut out = Vec::with_capacity(num_annotators);
        for grid in counts.chunks_exact(k * k) {
            let mut m = crowdrl_types::ConfusionMatrix::uniform(k)?;
            m.set_from_counts(grid, self.config.smoothing.max(1e-9))?;
            out.push(m);
        }
        Ok(out)
    }

    /// Clamp expert confusion diagonals to at least `1 - ε`, and every
    /// annotator's diagonal to the non-adversarial floor. Shared with the
    /// incremental [`engine`](crate::engine).
    pub(crate) fn bound_experts(
        &self,
        confusions: &mut [crowdrl_types::ConfusionMatrix],
        profiles: &[AnnotatorProfile],
    ) -> Result<()> {
        for (m, p) in confusions.iter_mut().zip(profiles) {
            if p.is_expert() && self.config.expert_epsilon < 1.0 {
                m.bound_diagonal(self.config.expert_epsilon)?;
            }
            if let Some(floor) = self.config.min_diagonal {
                m.clamp_diagonal_min(floor)?;
            }
        }
        Ok(())
    }

    /// Retrain the classifier on answered objects with posterior soft
    /// targets, weighting each sample by its posterior confidence so
    /// near-uniform posteriors teach less.
    fn retrain<R: Rng + ?Sized>(
        &self,
        classifier: &mut SoftmaxClassifier,
        x: &Matrix,
        answered: &[usize],
        posteriors: &[Option<Vec<f64>>],
        rng: &mut R,
    ) -> Result<()> {
        let k = classifier.num_classes();
        let (targets, weights) = soft_targets(self.config.hard_labels, k, answered, posteriors)?;
        classifier.fit(x, &targets, Some(&weights), rng)?;
        Ok(())
    }
}

/// Build the classifier's training targets from the posteriors of the
/// `answered` objects: soft posterior rows (or hard argmax one-hots under
/// the `hard_labels` ablation) plus per-sample confidence weights. Shared
/// between [`JointInference::infer`]'s retrain step and the incremental
/// [`engine`](crate::engine)'s warm-start retrain.
pub(crate) fn soft_targets(
    hard_labels: bool,
    k: usize,
    answered: &[usize],
    posteriors: &[Option<Vec<f64>>],
) -> Result<(Matrix, Vec<f32>)> {
    let mut targets = Matrix::zeros(answered.len(), k);
    let mut weights = Vec::with_capacity(answered.len());
    for (r, &i) in answered.iter().enumerate() {
        let post = posteriors[i]
            .as_ref()
            .ok_or_else(|| Error::NumericalFailure("missing posterior".into()))?;
        if hard_labels {
            let best = crowdrl_types::prob::argmax(post).unwrap_or(0);
            targets.set(r, best, 1.0);
        } else {
            for (c, &q) in post.iter().enumerate() {
                targets.set(r, c, q as f32);
            }
        }
        let conf = post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        weights.push(conf as f32);
    }
    Ok((targets, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dawid_skene::DawidSkene;
    use crowdrl_nn::ClassifierConfig;
    use crowdrl_sim::{DatasetSpec, PoolSpec};
    use crowdrl_types::rng::seeded;
    use crowdrl_types::{AnnotatorId, AnnotatorKind, Answer};

    /// Build a labelled scenario: dataset + pool + answers for `coverage`
    /// fraction of objects from every annotator.
    fn scenario(
        n: usize,
        separation: f64,
        workers: usize,
        experts: usize,
        coverage: f64,
        seed: u64,
    ) -> (Dataset, crowdrl_sim::AnnotatorPool, AnswerSet) {
        let mut rng = seeded(seed);
        let dataset = DatasetSpec::gaussian("t", n, 4, 2)
            .with_separation(separation)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(workers, experts)
            .generate(2, &mut rng)
            .unwrap();
        let mut answers = AnswerSet::new(n);
        let answered = (n as f64 * coverage) as usize;
        for i in 0..answered {
            for a in 0..pool.len() {
                let label = pool.sample_answer(AnnotatorId(a), dataset.truth(i), &mut rng);
                answers
                    .record(Answer {
                        object: ObjectId(i),
                        annotator: AnnotatorId(a),
                        label,
                    })
                    .unwrap();
            }
        }
        (dataset, pool, answers)
    }

    fn fresh_classifier(dim: usize, seed: u64) -> SoftmaxClassifier {
        let mut rng = seeded(seed);
        let config = ClassifierConfig {
            epochs: 15,
            ..Default::default()
        };
        SoftmaxClassifier::new(config, dim, 2, &mut rng).unwrap()
    }

    fn accuracy(r: &InferenceResult, dataset: &Dataset) -> f64 {
        let inferred: Vec<_> = r.inferred_objects().collect();
        inferred
            .iter()
            .filter(|&&o| r.label(o) == Some(dataset.truth(o.index())))
            .count() as f64
            / inferred.len().max(1) as f64
    }

    #[test]
    fn joint_recovers_truth_on_answered_objects() {
        let (dataset, pool, answers) = scenario(300, 3.0, 3, 1, 1.0, 50);
        let mut clf = fresh_classifier(4, 51);
        let mut rng = seeded(52);
        let r = JointInference::default()
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .unwrap();
        let acc = accuracy(&r, &dataset);
        assert!(acc > 0.95, "joint accuracy {acc}");
        assert!(r.validate(2, 1e-6));
        assert!(clf.is_trained());
    }

    #[test]
    fn joint_beats_dawid_skene_with_weak_workers_and_features() {
        // Workers are barely better than chance, but features are separable:
        // the classifier term rescues inference where DS alone flounders.
        let mut rng = seeded(60);
        let dataset = DatasetSpec::gaussian("t", 400, 4, 2)
            .with_separation(3.0)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(3, 0)
            .with_worker_accuracy(0.56, 0.62)
            .generate(2, &mut rng)
            .unwrap();
        let mut answers = AnswerSet::new(400);
        for i in 0..400 {
            for a in 0..3 {
                let label = pool.sample_answer(AnnotatorId(a), dataset.truth(i), &mut rng);
                answers
                    .record(Answer {
                        object: ObjectId(i),
                        annotator: AnnotatorId(a),
                        label,
                    })
                    .unwrap();
            }
        }
        let ds = DawidSkene::default().infer(&answers, 2, 3).unwrap();
        let mut clf = fresh_classifier(4, 61);
        let joint = JointInference::default()
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .unwrap();
        let ds_acc = accuracy(&ds, &dataset);
        let joint_acc = accuracy(&joint, &dataset);
        assert!(
            joint_acc > ds_acc + 0.03,
            "joint {joint_acc} should beat DS {ds_acc} when features are informative"
        );
    }

    #[test]
    fn expert_bounding_keeps_expert_quality_high() {
        let (dataset, pool, answers) = scenario(80, 1.0, 2, 1, 1.0, 70);
        let mut clf = fresh_classifier(4, 71);
        let mut rng = seeded(72);
        let joint = JointInference {
            config: JointConfig {
                expert_epsilon: 0.05,
                ..Default::default()
            },
        };
        let r = joint
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .unwrap();
        // Expert is the last annotator.
        let expert_idx = pool.len() - 1;
        assert_eq!(pool.profiles()[expert_idx].kind, AnnotatorKind::Expert);
        let q = r.confusions[expert_idx].quality();
        assert!(q >= 0.95 - 1e-9, "expert quality {q} must stay bounded");
    }

    #[test]
    fn disabling_expert_bounding_can_lower_expert_quality() {
        // With very little data the expert's estimated quality can dip; the
        // bounded run must never dip below 1-ε while the unbounded run is free.
        let (dataset, pool, answers) = scenario(6, 0.5, 2, 1, 1.0, 80);
        let mut rng = seeded(81);
        let expert_idx = pool.len() - 1;
        let bounded = JointInference {
            config: JointConfig {
                expert_epsilon: 0.02,
                ..Default::default()
            },
        }
        .infer(
            &dataset,
            &answers,
            pool.profiles(),
            &mut fresh_classifier(4, 82),
            &mut rng,
        )
        .unwrap();
        assert!(bounded.confusions[expert_idx].quality() >= 0.98 - 1e-9);
    }

    #[test]
    fn classifier_weight_zero_matches_annotators_only() {
        let (dataset, pool, answers) = scenario(150, 2.0, 4, 0, 1.0, 90);
        let mut rng = seeded(91);
        let joint = JointInference {
            config: JointConfig {
                classifier_weight: 0.0,
                expert_epsilon: 1.0,
                ..Default::default()
            },
        };
        let r = joint
            .infer(
                &dataset,
                &answers,
                pool.profiles(),
                &mut fresh_classifier(4, 92),
                &mut rng,
            )
            .unwrap();
        let ds = DawidSkene {
            max_iters: 8,
            tol: 1e-4,
            ..Default::default()
        }
        .infer(&answers, 2, 4)
        .unwrap();
        // Without the classifier term the posterior structure should be very
        // close to DS (not identical: DS also carries a class-prior term,
        // which matters on split votes from weak annotators).
        let mut agree = 0;
        let mut total = 0;
        for o in r.inferred_objects() {
            total += 1;
            if r.label(o) == ds.label(o) {
                agree += 1;
            }
        }
        assert!(agree as f64 / total as f64 > 0.88, "agree {agree}/{total}");
    }

    #[test]
    fn hard_label_retraining_still_infers_well() {
        let (dataset, pool, answers) = scenario(200, 3.0, 3, 1, 1.0, 130);
        let mut rng = seeded(131);
        let joint = JointInference {
            config: JointConfig {
                hard_labels: true,
                ..Default::default()
            },
        };
        let r = joint
            .infer(
                &dataset,
                &answers,
                pool.profiles(),
                &mut fresh_classifier(4, 132),
                &mut rng,
            )
            .unwrap();
        let acc = accuracy(&r, &dataset);
        assert!(acc > 0.9, "hard-label joint accuracy {acc}");
    }

    #[test]
    fn handles_no_answers_gracefully() {
        let mut rng = seeded(100);
        let dataset = DatasetSpec::gaussian("t", 20, 4, 2)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(2, 0).generate(2, &mut rng).unwrap();
        let answers = AnswerSet::new(20);
        let mut clf = fresh_classifier(4, 101);
        let r = JointInference::default()
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .unwrap();
        assert!(r.posteriors.iter().all(Option::is_none));
        assert_eq!(r.iterations, 0);
        assert!(!clf.is_trained());
    }

    #[test]
    fn validates_config_and_shapes() {
        let mut rng = seeded(110);
        let dataset = DatasetSpec::gaussian("t", 10, 4, 2)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(1, 0).generate(2, &mut rng).unwrap();
        let answers = AnswerSet::new(10);
        let mut clf = fresh_classifier(4, 111);

        let bad = JointInference {
            config: JointConfig {
                max_iters: 0,
                ..Default::default()
            },
        };
        assert!(bad
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .is_err());
        let bad = JointInference {
            config: JointConfig {
                expert_epsilon: 2.0,
                ..Default::default()
            },
        };
        assert!(bad
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .is_err());
        let bad = JointInference {
            config: JointConfig {
                retrain_every: 0,
                ..Default::default()
            },
        };
        assert!(bad
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .is_err());

        // Answer-set size mismatch.
        let wrong = AnswerSet::new(5);
        assert!(JointInference::default()
            .infer(&dataset, &wrong, pool.profiles(), &mut clf, &mut rng)
            .is_err());
    }

    #[test]
    fn partial_coverage_only_infers_answered_objects() {
        let (dataset, pool, answers) = scenario(100, 2.0, 3, 0, 0.4, 120);
        let mut rng = seeded(121);
        let mut clf = fresh_classifier(4, 122);
        let r = JointInference::default()
            .infer(&dataset, &answers, pool.profiles(), &mut clf, &mut rng)
            .unwrap();
        let inferred = r.inferred_objects().count();
        assert_eq!(inferred, 40);
        assert!(r.posteriors[50].is_none());
        // But the classifier, trained inside, can now predict the rest.
        let p = clf.predict_proba_one(dataset.features(50));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-4);
    }
}
