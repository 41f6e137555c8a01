//! State-action featurization.
//!
//! The paper's raw state — the `|O| × |W|` labelling-history matrix plus
//! annotator cost/quality columns (§III-B) — has `(|C|+1)^{|O||W|}`
//! configurations; the DQN exists precisely because that is intractable.
//! We realize the function approximation by embedding each candidate
//! (object, annotator) action together with the decision-relevant summary
//! of the state into a fixed-width vector (see DESIGN.md §1): classifier
//! uncertainty about the object, the answers it already has and their
//! agreement, the annotator's estimated quality/cost/kind, and global
//! budget/progress fractions.

use crowdrl_linalg::Matrix;
use crowdrl_nn::SoftmaxClassifier;
use crowdrl_types::prob;
use crowdrl_types::{AnnotatorProfile, AnswerSet, Dataset, LabelledSet, ObjectId};

/// Width of the state-action embedding fed to the Q-network.
pub const FEATURE_DIM: usize = 15;

/// Number of leading embedding dims that depend only on the object (and
/// the labelled set). The embedding is laid out as an object-dependent
/// prefix of this width followed by an annotator/run-level suffix — no
/// dimension mixes both sides — so the Q-network's first layer factors
/// over the (object, annotator) cartesian product: see
/// [`embed_object_part`], [`embed_annotator_part`] and
/// `DqnAgent::q_values_outer`.
pub const OBJECT_PART_DIM: usize = 7;

/// Snapshot of the run-level quantities the featurizer needs.
#[derive(Debug, Clone)]
pub struct StateSnapshot {
    /// Estimated scalar quality `tr(Π̂^j)/|C|` per annotator.
    pub qualities: Vec<f64>,
    /// Per-annotator answer counts so far.
    pub annotator_load: Vec<usize>,
    /// Fraction of the budget already spent.
    pub budget_spent_fraction: f64,
    /// Fraction of objects labelled (inferred + enriched).
    pub labelled_fraction: f64,
    /// Fraction of objects labelled by the classifier (enriched).
    pub enriched_fraction: f64,
    /// Maximum annotator cost in the pool (for normalization).
    pub max_cost: f64,
    /// Validated classifier trust (the enrichment gate's lower confidence
    /// bound, 0 when unknown). Lets the policy condition on whether the
    /// classifier can be expected to carry part of the dataset — when it
    /// cannot, wide cheap coverage beats expert depth.
    pub phi_trust: f64,
}

/// The annotator-independent half of an embedding: classifier uncertainty
/// and answer-history summaries for one object. Computing these once per
/// object (instead of once per (object, annotator) pair) is what makes
/// batched candidate scoring cheap — the agent assembles the final vector
/// per annotator with [`embed_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectFeatures {
    /// Highest class probability.
    pub max_prob: f64,
    /// Gap between the top two class probabilities.
    pub margin: f64,
    /// Entropy of the class distribution, normalized by `ln k`.
    pub norm_entropy: f64,
    /// Number of answers the object already has.
    pub vote_count: usize,
    /// Fraction of votes on the modal label (0 when unanswered).
    pub agreement: f64,
    /// 1 if the classifier argmax matches the vote argmax, 0 if not,
    /// 0.5 when there are no votes.
    pub model_agrees: f64,
    /// `class_probs.len().max(1)` — kept for the quality fallback.
    pub num_classes: usize,
}

impl ObjectFeatures {
    /// Compute the object-side features from the classifier distribution
    /// and the object's labelling history.
    pub fn compute(object: ObjectId, class_probs: &[f64], answers: &AnswerSet) -> Self {
        let k = class_probs.len().max(1);
        let votes = answers.answers_for(object);

        let max_prob = class_probs.iter().copied().fold(0.0f64, f64::max);
        let margin = prob::top_two_margin(class_probs);
        let norm_entropy = if k > 1 {
            prob::entropy(class_probs) / (k as f64).ln()
        } else {
            0.0
        };

        let (agreement, model_agrees) = if votes.is_empty() {
            (0.0, 0.5)
        } else {
            let mut counts = vec![0.0f64; k];
            for &(_, c) in votes {
                if c.index() < k {
                    counts[c.index()] += 1.0;
                }
            }
            let top = counts.iter().copied().fold(0.0f64, f64::max);
            let agreement = top / votes.len() as f64;
            let model_label = prob::argmax(class_probs).unwrap_or(0);
            let vote_label = prob::argmax(&counts).unwrap_or(0);
            (agreement, if model_label == vote_label { 1.0 } else { 0.0 })
        };

        Self {
            max_prob,
            margin,
            norm_entropy,
            vote_count: votes.len(),
            agreement,
            model_agrees,
            num_classes: k,
        }
    }
}

/// The object-dependent prefix of the embedding ([`OBJECT_PART_DIM`]
/// dims): classifier uncertainty, answer-history summaries, and the
/// already-labelled flag. Everything here is independent of which
/// annotator is being scored, so batched candidate scoring computes it
/// once per object.
pub fn embed_object_part(
    features: &ObjectFeatures,
    object: ObjectId,
    labelled: &LabelledSet,
    assignment_k: usize,
) -> Vec<f32> {
    let answer_count = features.vote_count as f64 / assignment_k.max(1) as f64;

    // Already-labelled flag (masked upstream, but the net sees it too).
    let object_labelled = if labelled.state(object).is_labelled() {
        1.0
    } else {
        0.0
    };

    vec![
        features.max_prob as f32,
        features.margin as f32,
        features.norm_entropy as f32,
        answer_count.min(2.0) as f32,
        features.agreement as f32,
        features.model_agrees as f32,
        object_labelled,
    ]
}

/// Number of leading dims of the annotator suffix that depend on the
/// *individual annotator* (quality, cost, kind, load); the remaining
/// `FEATURE_DIM - OBJECT_PART_DIM - ANNOTATOR_SPECIFIC_DIM` dims are
/// run-level and shared by every annotator in a refresh. The decide
/// path groups annotators on the bits of their annotator-specific block
/// and computes one first-layer row per distinct block.
pub const ANNOTATOR_SPECIFIC_DIM: usize = 4;

/// The annotator-specific block of the embedding suffix
/// ([`ANNOTATOR_SPECIFIC_DIM`] dims): estimated quality, normalized
/// cost, expert flag, normalized load. `num_classes` feeds the uniform
/// quality fallback used when the snapshot has no estimate for the
/// annotator.
pub fn embed_annotator_specific(
    profile: &AnnotatorProfile,
    snapshot: &StateSnapshot,
    num_classes: usize,
) -> [f32; ANNOTATOR_SPECIFIC_DIM] {
    let a = profile.id.index();
    let quality = snapshot
        .qualities
        .get(a)
        .copied()
        .unwrap_or(1.0 / num_classes.max(1) as f64);
    let cost = profile.cost / snapshot.max_cost.max(1e-9);
    let is_expert = if profile.is_expert() { 1.0 } else { 0.0 };
    let load = snapshot.annotator_load.get(a).copied().unwrap_or(0) as f64;
    let load_norm = load / (1.0 + load);
    [quality as f32, cost as f32, is_expert, load_norm as f32]
}

/// The run-level block of the embedding suffix: global budget and
/// progress fractions plus classifier trust. Identical for every
/// annotator within one refresh.
pub fn embed_run_part(
    snapshot: &StateSnapshot,
) -> [f32; FEATURE_DIM - OBJECT_PART_DIM - ANNOTATOR_SPECIFIC_DIM] {
    [
        snapshot.budget_spent_fraction as f32,
        snapshot.labelled_fraction as f32,
        snapshot.enriched_fraction as f32,
        snapshot.phi_trust as f32,
    ]
}

/// The annotator- and run-level suffix of the embedding
/// (`FEATURE_DIM - OBJECT_PART_DIM` dims): the annotator's estimated
/// quality/cost/kind/load plus the global budget and progress fractions.
/// Independent of the object, so batched candidate scoring computes it
/// once per annotator. By construction exactly
/// `embed_annotator_specific ++ embed_run_part`.
pub fn embed_annotator_part(
    profile: &AnnotatorProfile,
    snapshot: &StateSnapshot,
    num_classes: usize,
) -> Vec<f32> {
    let mut v = embed_annotator_specific(profile, snapshot, num_classes).to_vec();
    v.extend_from_slice(&embed_run_part(snapshot));
    v
}

/// Assemble the full embedding from precomputed [`ObjectFeatures`] plus
/// the annotator- and run-level features. `embed` delegates here; callers
/// scoring many annotators against the same object should compute the
/// object features once and call this per annotator — or skip the
/// concatenation entirely and feed the two parts to the factored scorer
/// (`DqnAgent::q_values_outer`). By construction the result is exactly
/// `embed_object_part ++ embed_annotator_part`.
pub fn embed_with(
    features: &ObjectFeatures,
    object: ObjectId,
    profile: &AnnotatorProfile,
    labelled: &LabelledSet,
    snapshot: &StateSnapshot,
    assignment_k: usize,
) -> Vec<f32> {
    let mut v = embed_object_part(features, object, labelled, assignment_k);
    v.extend_from_slice(&embed_annotator_part(
        profile,
        snapshot,
        features.num_classes,
    ));
    debug_assert_eq!(v.len(), FEATURE_DIM);
    v
}

/// Embed a candidate (object, annotator) action.
///
/// `class_probs` is the classifier's current distribution for the object
/// (uniform if the classifier is untrained); `answers` supplies the
/// object's labelling history.
#[allow(clippy::too_many_arguments)]
pub fn embed(
    object: ObjectId,
    profile: &AnnotatorProfile,
    class_probs: &[f64],
    answers: &AnswerSet,
    labelled: &LabelledSet,
    snapshot: &StateSnapshot,
    assignment_k: usize,
) -> Vec<f32> {
    embed_with(
        &ObjectFeatures::compute(object, class_probs, answers),
        object,
        profile,
        labelled,
        snapshot,
        assignment_k,
    )
}

#[derive(Debug, Clone)]
struct CacheEntry {
    /// Classifier generation the probabilities were computed under.
    generation: u64,
    /// Answer count the vote features were computed from
    /// (`usize::MAX` = features pending recompute).
    answers_seen: usize,
    probs: Vec<f64>,
    features: ObjectFeatures,
}

/// Per-object cache of classifier distributions and [`ObjectFeatures`].
///
/// [`refresh`](FeatureCache::refresh) recomputes class probabilities only
/// for objects whose entry predates the classifier's current
/// [`generation`](SoftmaxClassifier::generation) — in **one batched**
/// `predict_proba` forward over exactly those rows — and vote-derived
/// features only for objects whose answer set changed since the last
/// refresh. Because the network forward is row-independent, cached and
/// batch-recomputed probabilities are bit-identical to per-object
/// `predict_proba_one` calls, so caching cannot perturb a run.
#[derive(Debug, Clone)]
pub struct FeatureCache {
    entries: Vec<Option<CacheEntry>>,
    num_classes: usize,
    recomputed: usize,
    reused: usize,
}

impl FeatureCache {
    /// An empty cache for `num_objects` objects and `num_classes` classes.
    pub fn new(num_objects: usize, num_classes: usize) -> Self {
        Self {
            entries: vec![None; num_objects],
            num_classes: num_classes.max(1),
            recomputed: 0,
            reused: 0,
        }
    }

    /// Bring the listed objects up to date against the classifier and the
    /// answer set (see the type docs for the invalidation rules). The
    /// untrained classifier yields the uniform distribution, matching the
    /// workflow's untrained fallback.
    pub fn refresh(
        &mut self,
        dataset: &Dataset,
        classifier: &SoftmaxClassifier,
        answers: &AnswerSet,
        objects: &[ObjectId],
    ) {
        let generation = classifier.generation();
        let prob_stale: Vec<ObjectId> = objects
            .iter()
            .copied()
            .filter(
                |obj| !matches!(&self.entries[obj.index()], Some(e) if e.generation == generation),
            )
            .collect();
        self.recomputed += prob_stale.len();
        self.reused += objects.len() - prob_stale.len();

        if !prob_stale.is_empty() {
            if classifier.is_trained() {
                let mut x = Matrix::zeros(prob_stale.len(), dataset.dim());
                for (r, &obj) in prob_stale.iter().enumerate() {
                    x.row_mut(r).copy_from_slice(dataset.features(obj.index()));
                }
                let p = classifier.predict_proba(&x);
                for (r, &obj) in prob_stale.iter().enumerate() {
                    let probs = p.row(r).iter().map(|&v| v as f64).collect();
                    self.store_probs(obj, generation, probs);
                }
            } else {
                let uniform = vec![1.0 / self.num_classes as f64; self.num_classes];
                for &obj in &prob_stale {
                    self.store_probs(obj, generation, uniform.clone());
                }
            }
        }

        for &obj in objects {
            let entry = self.entries[obj.index()]
                .as_mut()
                .expect("entry created above");
            let seen = answers.answers_for(obj).len();
            if entry.answers_seen != seen {
                entry.features = ObjectFeatures::compute(obj, &entry.probs, answers);
                entry.answers_seen = seen;
            }
        }
    }

    /// Cached class distribution. Panics if the object was never refreshed.
    pub fn probs(&self, object: ObjectId) -> &[f64] {
        &self.entries[object.index()]
            .as_ref()
            .expect("object not refreshed")
            .probs
    }

    /// Cached object-side features. Panics if the object was never
    /// refreshed.
    pub fn features(&self, object: ObjectId) -> &ObjectFeatures {
        &self.entries[object.index()]
            .as_ref()
            .expect("object not refreshed")
            .features
    }

    /// Objects whose class probabilities were recomputed across all
    /// refreshes (cache misses).
    pub fn recomputed(&self) -> usize {
        self.recomputed
    }

    /// Objects whose cached probabilities were reused across all refreshes
    /// (cache hits).
    pub fn reused(&self) -> usize {
        self.reused
    }

    fn store_probs(&mut self, object: ObjectId, generation: u64, probs: Vec<f64>) {
        let features = ObjectFeatures {
            max_prob: 0.0,
            margin: 0.0,
            norm_entropy: 0.0,
            vote_count: 0,
            agreement: 0.0,
            model_agrees: 0.0,
            num_classes: self.num_classes,
        };
        self.entries[object.index()] = Some(CacheEntry {
            generation,
            answers_seen: usize::MAX, // features recomputed by refresh()
            probs,
            features,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::{AnnotatorId, AnnotatorKind, Answer, ClassId, LabelState};

    fn snapshot() -> StateSnapshot {
        StateSnapshot {
            qualities: vec![0.9, 0.6],
            annotator_load: vec![3, 0],
            budget_spent_fraction: 0.25,
            labelled_fraction: 0.5,
            enriched_fraction: 0.1,
            max_cost: 10.0,
            phi_trust: 0.5,
        }
    }

    fn profile(id: usize, expert: bool) -> AnnotatorProfile {
        AnnotatorProfile::new(
            AnnotatorId(id),
            if expert {
                AnnotatorKind::Expert
            } else {
                AnnotatorKind::Worker
            },
            if expert { 10.0 } else { 1.0 },
        )
        .unwrap()
    }

    #[test]
    fn embedding_has_fixed_width_and_is_finite() {
        let answers = AnswerSet::new(4);
        let labelled = LabelledSet::new(4);
        let v = embed(
            ObjectId(0),
            &profile(0, false),
            &[0.7, 0.3],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        assert_eq!(v.len(), FEATURE_DIM);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uncertainty_features_reflect_probs() {
        let answers = AnswerSet::new(1);
        let labelled = LabelledSet::new(1);
        let certain = embed(
            ObjectId(0),
            &profile(0, false),
            &[0.99, 0.01],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        let uncertain = embed(
            ObjectId(0),
            &profile(0, false),
            &[0.5, 0.5],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        assert!(certain[0] > uncertain[0]); // max prob
        assert!(certain[1] > uncertain[1]); // margin
        assert!(certain[2] < uncertain[2]); // entropy
    }

    #[test]
    fn answer_history_features() {
        let mut answers = AnswerSet::new(2);
        answers
            .record(Answer {
                object: ObjectId(0),
                annotator: AnnotatorId(0),
                label: ClassId(0),
            })
            .unwrap();
        answers
            .record(Answer {
                object: ObjectId(0),
                annotator: AnnotatorId(1),
                label: ClassId(0),
            })
            .unwrap();
        let labelled = LabelledSet::new(2);
        let v = embed(
            ObjectId(0),
            &profile(0, false),
            &[0.8, 0.2],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        assert!((v[3] - 2.0 / 3.0).abs() < 1e-6); // 2 answers / k=3
        assert!((v[4] - 1.0).abs() < 1e-6); // unanimous agreement
        assert!((v[5] - 1.0).abs() < 1e-6); // model agrees with votes
                                            // No answers: neutral values.
        let v = embed(
            ObjectId(1),
            &profile(0, false),
            &[0.8, 0.2],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        assert_eq!(v[3], 0.0);
        assert_eq!(v[4], 0.0);
        assert_eq!(v[5], 0.5);
    }

    #[test]
    fn annotator_features_distinguish_expert() {
        let answers = AnswerSet::new(1);
        let labelled = LabelledSet::new(1);
        let w = embed(
            ObjectId(0),
            &profile(0, false),
            &[0.5, 0.5],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        let e = embed(
            ObjectId(0),
            &profile(1, true),
            &[0.5, 0.5],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        assert!((w[7] - 0.9).abs() < 1e-6); // quality from snapshot
        assert!((e[7] - 0.6).abs() < 1e-6);
        assert!(w[8] < e[8]); // normalized cost
        assert_eq!(w[9], 0.0);
        assert_eq!(e[9], 1.0);
        assert!(w[10] > e[10]); // load
    }

    #[test]
    fn labelled_flag_is_set() {
        let answers = AnswerSet::new(1);
        let mut labelled = LabelledSet::new(1);
        labelled
            .set(ObjectId(0), LabelState::Inferred(ClassId(0)))
            .unwrap();
        let v = embed(
            ObjectId(0),
            &profile(0, false),
            &[0.5, 0.5],
            &answers,
            &labelled,
            &snapshot(),
            3,
        );
        assert_eq!(v[6], 1.0);
    }

    #[test]
    fn embedding_splits_into_object_and_annotator_parts() {
        let mut answers = AnswerSet::new(2);
        answers
            .record(Answer {
                object: ObjectId(0),
                annotator: AnnotatorId(1),
                label: ClassId(1),
            })
            .unwrap();
        let labelled = LabelledSet::new(2);
        let snap = snapshot();
        let probs = [0.3, 0.7];
        let of = ObjectFeatures::compute(ObjectId(0), &probs, &answers);
        let obj_part = embed_object_part(&of, ObjectId(0), &labelled, 3);
        assert_eq!(obj_part.len(), OBJECT_PART_DIM);
        for expert in [false, true] {
            let p = profile(expert as usize, expert);
            let ann_part = embed_annotator_part(&p, &snap, of.num_classes);
            assert_eq!(ann_part.len(), FEATURE_DIM - OBJECT_PART_DIM);
            // The full embedding is exactly the concatenation: the
            // factored Q-scoring path relies on this layout.
            let mut assembled = obj_part.clone();
            assembled.extend_from_slice(&ann_part);
            let full = embed(ObjectId(0), &p, &probs, &answers, &labelled, &snap, 3);
            assert_eq!(assembled, full);
        }
    }

    #[test]
    fn annotator_part_splits_into_specific_and_run_blocks() {
        let snap = snapshot();
        for expert in [false, true] {
            let p = profile(expert as usize, expert);
            let full = embed_annotator_part(&p, &snap, 2);
            let mut assembled = embed_annotator_specific(&p, &snap, 2).to_vec();
            assembled.extend_from_slice(&embed_run_part(&snap));
            assert_eq!(full, assembled);
            assert_eq!(
                assembled.len(),
                FEATURE_DIM - OBJECT_PART_DIM,
                "blocks must tile the suffix exactly"
            );
        }
    }

    #[test]
    fn embed_with_matches_embed() {
        let mut answers = AnswerSet::new(3);
        answers
            .record(Answer {
                object: ObjectId(1),
                annotator: AnnotatorId(0),
                label: ClassId(1),
            })
            .unwrap();
        answers
            .record(Answer {
                object: ObjectId(1),
                annotator: AnnotatorId(1),
                label: ClassId(0),
            })
            .unwrap();
        let mut labelled = LabelledSet::new(3);
        labelled
            .set(ObjectId(2), LabelState::Inferred(ClassId(0)))
            .unwrap();
        let snap = snapshot();
        for (obj, probs) in [
            (ObjectId(0), vec![0.7, 0.3]),
            (ObjectId(1), vec![0.2, 0.8]),
            (ObjectId(2), vec![0.5, 0.5]),
        ] {
            let of = ObjectFeatures::compute(obj, &probs, &answers);
            for expert in [false, true] {
                let direct = embed(
                    obj,
                    &profile(expert as usize, expert),
                    &probs,
                    &answers,
                    &labelled,
                    &snap,
                    3,
                );
                let assembled = embed_with(
                    &of,
                    obj,
                    &profile(expert as usize, expert),
                    &labelled,
                    &snap,
                    3,
                );
                assert_eq!(direct, assembled);
            }
        }
    }

    mod cache {
        use super::*;
        use crowdrl_nn::{ClassifierConfig, SoftmaxClassifier};
        use crowdrl_types::rng::seeded;
        use crowdrl_types::Dataset;

        fn dataset(n: usize) -> Dataset {
            let features: Vec<f32> = (0..n * 2)
                .map(|i| ((i * 37 % 19) as f32 - 9.0) / 4.0)
                .collect();
            let truth: Vec<ClassId> = (0..n).map(|i| ClassId(i % 2)).collect();
            Dataset::new("cache-test", features, 2, truth, 2).unwrap()
        }

        fn trained_classifier(dataset: &Dataset, seed: u64) -> SoftmaxClassifier {
            let mut rng = seeded(seed);
            let mut clf =
                SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
            let x = Matrix::from_vec(dataset.len(), 2, dataset.feature_buffer().to_vec());
            let truth: Vec<ClassId> = (0..dataset.len()).map(|i| dataset.truth(i)).collect();
            clf.fit_hard(&x, &truth, &mut rng).unwrap();
            clf
        }

        fn all_objects(n: usize) -> Vec<ObjectId> {
            (0..n).map(ObjectId).collect()
        }

        #[test]
        fn cached_probs_match_predict_proba_one_bitwise() {
            let ds = dataset(12);
            let clf = trained_classifier(&ds, 1);
            let answers = AnswerSet::new(ds.len());
            let mut cache = FeatureCache::new(ds.len(), 2);
            cache.refresh(&ds, &clf, &answers, &all_objects(ds.len()));
            for i in 0..ds.len() {
                let direct = clf.predict_proba_one(ds.features(i));
                let cached = cache.probs(ObjectId(i));
                assert_eq!(direct.len(), cached.len());
                for (d, c) in direct.iter().zip(cached) {
                    assert_eq!(d.to_bits(), c.to_bits(), "object {i}");
                }
                assert_eq!(
                    *cache.features(ObjectId(i)),
                    ObjectFeatures::compute(ObjectId(i), cached, &answers)
                );
            }
        }

        #[test]
        fn untrained_classifier_yields_uniform() {
            let ds = dataset(4);
            let mut rng = seeded(2);
            let clf = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
            let answers = AnswerSet::new(ds.len());
            let mut cache = FeatureCache::new(ds.len(), 2);
            cache.refresh(&ds, &clf, &answers, &all_objects(ds.len()));
            assert_eq!(cache.probs(ObjectId(0)), &[0.5, 0.5]);
        }

        #[test]
        fn reuses_until_answers_or_classifier_change() {
            let ds = dataset(8);
            let mut clf = trained_classifier(&ds, 3);
            let mut answers = AnswerSet::new(ds.len());
            let mut cache = FeatureCache::new(ds.len(), 2);
            let objs = all_objects(ds.len());

            cache.refresh(&ds, &clf, &answers, &objs);
            assert_eq!(cache.recomputed(), 8);
            assert_eq!(cache.reused(), 0);

            // Unchanged state: pure hits.
            cache.refresh(&ds, &clf, &answers, &objs);
            assert_eq!(cache.recomputed(), 8);
            assert_eq!(cache.reused(), 8);

            // A new answer invalidates vote features but not probabilities.
            answers
                .record(Answer {
                    object: ObjectId(3),
                    annotator: AnnotatorId(0),
                    label: ClassId(1),
                })
                .unwrap();
            cache.refresh(&ds, &clf, &answers, &objs);
            assert_eq!(cache.recomputed(), 8, "probs must be reused");
            assert_eq!(cache.features(ObjectId(3)).vote_count, 1);

            // Retraining invalidates every probability.
            let x = Matrix::from_vec(ds.len(), 2, ds.feature_buffer().to_vec());
            let truth: Vec<ClassId> = (0..ds.len()).map(|i| ds.truth(i)).collect();
            let mut rng = seeded(4);
            clf.fit_hard(&x, &truth, &mut rng).unwrap();
            cache.refresh(&ds, &clf, &answers, &objs);
            assert_eq!(cache.recomputed(), 16);
            for i in 0..ds.len() {
                let direct = clf.predict_proba_one(ds.features(i));
                for (d, c) in direct.iter().zip(cache.probs(ObjectId(i))) {
                    assert_eq!(d.to_bits(), c.to_bits());
                }
            }
        }

        #[test]
        fn partial_refresh_only_touches_listed_objects() {
            let ds = dataset(6);
            let clf = trained_classifier(&ds, 5);
            let answers = AnswerSet::new(ds.len());
            let mut cache = FeatureCache::new(ds.len(), 2);
            cache.refresh(&ds, &clf, &answers, &[ObjectId(1), ObjectId(4)]);
            assert_eq!(cache.recomputed(), 2);
            assert_eq!(cache.probs(ObjectId(1)).len(), 2);
        }
    }
}
