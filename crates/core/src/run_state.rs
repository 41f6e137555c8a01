//! The state of one labelling run and each step of Algorithm 1 (select
//! and assign, buy, infer, update trust, retrain and enrich, credit and
//! train) as one method on [`RunState`]. Both loops call these methods:
//! [`CrowdRl::run`](crate::CrowdRl::run) once per purchased batch, and
//! `crowdrl-serve`'s `AgentCore` on every answer-watermark refresh. Where
//! the loops differ, the caller passes the value (its budget fraction,
//! the trust a successor snapshot uses, the unlabelled count rewards are
//! normalised by, whether a final inference ran).

use crate::agent::{AgentState, Assignment, SelectionAgent};
use crate::classifier_util::retrain_on_labelled;
use crate::config::{CrowdRlConfig, InferenceModel};
use crate::enrichment::{self, fallback_label_all, refresh_enriched};
use crate::features::{embed_with, FeatureCache, StateSnapshot, FEATURE_DIM};
use crate::outcome::{IterationStats, LabellingOutcome};
use crate::reward::{iteration_reward, RewardInputs};
use crowdrl_inference::{
    DawidSkene, EngineSnapshot, InferenceEngine, InferenceResult, JointInference, MajorityVote, Pm,
};
use crowdrl_nn::{ClassifierSnapshot, SoftmaxClassifier};
use crowdrl_obs as obs;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::rng::{sample_indices, seeded};
use crowdrl_types::{
    prob, AnnotatorId, AnnotatorProfile, AnswerSet, ClassId, Dataset, Error, LabelState,
    LabelledSet, ObjectId, Result,
};
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// A decided batch awaiting reward credit, with what the agent believed
/// about its objects before their answers arrived.
#[derive(Debug, Clone)]
pub struct PendingBatch {
    /// The batch's assignments (objects, annotators, replay embeddings).
    pub assignments: Vec<Assignment>,
    /// Best pre-answer confidence per selected object (the previous
    /// posterior, else the classifier's top probability), sorted by
    /// object id.
    pub conf_before: Vec<(ObjectId, f64)>,
    /// The classifier's pre-answer argmax per object, for the trust
    /// estimate (only recorded once the classifier is trained).
    pub phi_guesses: Vec<(ObjectId, usize)>,
}

impl PendingBatch {
    /// Check that every id fits `objects` objects and `annotators`
    /// annotators and every embedding has the feature width (a checkpoint
    /// can decode and still not fit the run it is restored into).
    pub fn check_fits(&self, objects: usize, annotators: usize) -> Result<()> {
        let object_fits = |o: ObjectId| o.index() < objects;
        let assignment_fits = |a: &Assignment| {
            object_fits(a.object)
                && a.annotators.len() == a.embeddings.len()
                && a.annotators.iter().all(|id| id.index() < annotators)
                && a.embeddings.iter().all(|e| e.len() == FEATURE_DIM)
        };
        if self.assignments.iter().all(assignment_fits)
            && self.conf_before.iter().all(|&(o, _)| object_fits(o))
            && self.phi_guesses.iter().all(|&(o, _)| object_fits(o))
        {
            Ok(())
        } else {
            Err(Error::InvalidParameter(format!(
                "a pending batch does not fit a run over {objects} objects and \
                 {annotators} annotators"
            )))
        }
    }
}

/// Checkpointable state of a [`RunState`]: everything [`RunState::new`]
/// does not re-derive. The feature cache is absent on purpose: a batched
/// recompute is bit-identical, so a restore starts it empty.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// Classifier weights, optimizer state and generation counter.
    pub classifier: ClassifierSnapshot,
    /// DQN, replay buffer and exploration state.
    pub agent: AgentState,
    /// Per-object label states.
    pub labelled: Vec<LabelState>,
    /// Latest per-annotator quality estimates.
    pub qualities: Vec<f64>,
    /// Last recorded posterior confidence per object.
    pub prev_confidence: Vec<Option<f64>>,
    /// Per-step statistics so far.
    pub trace: Vec<IterationStats>,
    /// Decayed out-of-sample agreement numerator.
    pub trust_agree: f64,
    /// Decayed out-of-sample agreement denominator.
    pub trust_scored: f64,
    /// The classifier trust estimate derived from the two above.
    pub phi_trust: f64,
    /// Warm EM state, when an engine is configured and has run.
    pub engine: Option<EngineSnapshot>,
}

/// The state one labelling run keeps (see the module docs).
pub struct RunState<'a> {
    config: CrowdRlConfig,
    dataset: &'a Dataset,
    pool: &'a AnnotatorPool,
    classifier: SoftmaxClassifier,
    agent: SelectionAgent,
    /// Warm EM state carried across inference calls (None = stateless
    /// cold inference every call).
    engine: Option<InferenceEngine>,
    feature_cache: FeatureCache,
    labelled: LabelledSet,
    qualities: Vec<f64>,
    /// Latest recorded posterior confidence per object: the baseline for
    /// the reward's confidence-gain term.
    prev_confidence: Vec<Option<f64>>,
    trace: Vec<IterationStats>,
    /// Decayed out-of-sample agreement of the classifier with the
    /// human-inferred labels.
    trust_agree: f64,
    trust_scored: f64,
    phi_trust: f64,
    max_cost: f64,
}

impl<'a> RunState<'a> {
    /// Validate `config` and build a fresh run: the classifier and then
    /// the agent are initialised from `rng`, in that order.
    pub fn new<R: Rng + ?Sized>(
        config: CrowdRlConfig,
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        rng: &mut R,
    ) -> Result<Self> {
        config.validate()?;
        let n = dataset.len();
        let classifier = SoftmaxClassifier::new(
            config.classifier.clone(),
            dataset.dim(),
            dataset.num_classes(),
            rng,
        )?;
        let agent = SelectionAgent::new(
            config.dqn.clone(),
            &config.exploration,
            config.decide,
            config.pretrained_dqn.as_deref(),
            rng,
        )?;
        // Only the iterative EM models carry state across calls.
        let engine = match &config.inference {
            _ if !config.engine.warm_start => None,
            InferenceModel::Joint(joint) => Some(InferenceEngine::joint(
                JointInference {
                    config: joint.clone(),
                },
                config.engine.clone(),
            )),
            InferenceModel::DawidSkene => Some(InferenceEngine::dawid_skene(
                DawidSkene::default(),
                config.engine.clone(),
            )),
            InferenceModel::Pm | InferenceModel::MajorityVote => None,
        };
        Ok(Self {
            engine,
            labelled: LabelledSet::new(n),
            feature_cache: FeatureCache::new(n, dataset.num_classes()),
            qualities: vec![0.7; pool.len()],
            prev_confidence: vec![None; n],
            trace: Vec::new(),
            trust_agree: 0.0,
            trust_scored: 0.0,
            phi_trust: 0.0,
            max_cost: pool.profiles().iter().map(|p| p.cost).fold(0.0, f64::max),
            config,
            dataset,
            pool,
            classifier,
            agent,
        })
    }

    /// Rebuild a run from a [`RunSnapshot`] taken under the same inputs;
    /// a snapshot that does not fit them is a typed error.
    pub fn restore(
        config: CrowdRlConfig,
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        snapshot: RunSnapshot,
    ) -> Result<Self> {
        // All random state is overwritten, so the seed is irrelevant.
        let mut state = Self::new(config, dataset, pool, &mut seeded(0))?;
        let (n, w) = (dataset.len(), pool.len());
        for (expected, actual, what) in [
            (n, snapshot.labelled.len(), "label states"),
            (n, snapshot.prev_confidence.len(), "confidences"),
            (w, snapshot.qualities.len(), "annotator qualities"),
        ] {
            if actual != expected {
                let context = format!("checkpointed {what}");
                return Err(Error::DimensionMismatch {
                    expected,
                    actual,
                    context,
                });
            }
        }
        state.classifier.restore(snapshot.classifier)?;
        state.agent.restore_state(snapshot.agent)?;
        for (i, s) in snapshot.labelled.iter().enumerate() {
            if !matches!(s, LabelState::Unlabelled) {
                state.labelled.set(ObjectId(i), *s)?;
            }
        }
        state.qualities = snapshot.qualities;
        state.prev_confidence = snapshot.prev_confidence;
        state.trace = snapshot.trace;
        state.trust_agree = snapshot.trust_agree;
        state.trust_scored = snapshot.trust_scored;
        state.phi_trust = snapshot.phi_trust;
        if let Some(snap) = snapshot.engine {
            let Some(engine) = &mut state.engine else {
                return Err(Error::InvalidParameter(
                    "checkpoint carries inference-engine state but this config runs \
                     stateless inference"
                        .into(),
                ));
            };
            engine.restore_state(snap, dataset)?;
        }
        Ok(state)
    }

    /// Export everything [`restore`](Self::restore) needs.
    pub fn export(&self) -> RunSnapshot {
        RunSnapshot {
            classifier: self.classifier.snapshot(),
            agent: self.agent.export_state(),
            labelled: self.label_states(),
            qualities: self.qualities.clone(),
            prev_confidence: self.prev_confidence.clone(),
            trace: self.trace.clone(),
            trust_agree: self.trust_agree,
            trust_scored: self.trust_scored,
            phi_trust: self.phi_trust,
            engine: self.engine.as_ref().and_then(InferenceEngine::export_state),
        }
    }

    /// The run's configuration.
    pub fn config(&self) -> &CrowdRlConfig {
        &self.config
    }

    /// The dataset being labelled.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The annotator pool.
    pub fn pool(&self) -> &'a AnnotatorPool {
        self.pool
    }

    /// The current labelled set.
    pub fn labelled(&self) -> &LabelledSet {
        &self.labelled
    }

    /// The selection agent.
    pub fn agent(&self) -> &SelectionAgent {
        &self.agent
    }

    /// The classifier trust bound (0 until enough guesses were scored).
    pub fn phi_trust(&self) -> f64 {
        self.phi_trust
    }

    /// Per-step statistics, in step order; each loop appends its own.
    pub fn trace_mut(&mut self) -> &mut Vec<IterationStats> {
        &mut self.trace
    }

    /// Draw the initial α·|O| objects, each with a stratified panel (one
    /// random expert when the pool has any, plus random workers) handed to
    /// `each` before the next is drawn, so a caller may draw answers from
    /// `rng` in between. The expert-anchored labels give the joint model a
    /// confident core; an all-worker start can leave every posterior too
    /// ambiguous to bootstrap from.
    pub fn initial_panels<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut each: impl FnMut(ObjectId, Vec<AnnotatorId>, &mut R),
    ) {
        let n = self.dataset.len();
        let k = self.config.assignment_k;
        let initial = ((self.config.initial_ratio * n as f64).round() as usize).min(n);
        let objects = sample_indices(rng, n, initial);
        let profiles = self.pool.profiles();
        let experts: Vec<_> = profiles.iter().filter(|p| p.is_expert()).collect();
        let workers: Vec<_> = profiles.iter().filter(|p| !p.is_expert()).collect();
        let tier = if workers.is_empty() {
            &experts
        } else {
            &workers
        };
        for obj in objects {
            let mut panel = Vec::with_capacity(k);
            if !experts.is_empty() {
                panel.push(experts[rng.random_range(0..experts.len())].id);
            }
            let fill = sample_indices(rng, tier.len(), k.saturating_sub(panel.len()));
            panel.extend(fill.into_iter().map(|i| tier[i].id));
            each(ObjectId(obj), panel, rng);
        }
    }

    /// Truth inference over `answers`, through the warm engine when one
    /// exists. The joint model also retrains the classifier; the others
    /// ignore the features. The warm engine shares the result it keeps
    /// (see [`InferenceEngine::infer`]): drop it before the next call.
    pub fn infer<R: Rng + ?Sized>(
        &mut self,
        answers: &AnswerSet,
        rng: &mut R,
    ) -> Result<Arc<InferenceResult>> {
        let profiles = self.pool.profiles();
        if let Some(engine) = &mut self.engine {
            return engine.infer(self.dataset, answers, profiles, &mut self.classifier, rng);
        }
        let (k, w) = (self.dataset.num_classes(), self.pool.len());
        let result = match &self.config.inference {
            InferenceModel::Joint(config) => JointInference {
                config: config.clone(),
            }
            .infer(self.dataset, answers, profiles, &mut self.classifier, rng),
            InferenceModel::Pm => Pm::default().infer(answers, k, w),
            InferenceModel::DawidSkene => DawidSkene::default().infer(answers, k, w),
            InferenceModel::MajorityVote => MajorityVote.infer(answers, k, w),
        };
        result.map(Arc::new)
    }

    /// Write inferred labels into the labelled set and refresh the quality
    /// estimates.
    ///
    /// Only posteriors at or above `label_confidence` become labels;
    /// ambiguous answered objects stay unlabelled so the agent can
    /// escalate them to stronger annotators. A previously-labelled object
    /// whose posterior drops back below the bar is un-labelled again (the
    /// posterior is always the best current estimate). Classifier-enriched
    /// labels are never touched — enrichment owns those objects.
    pub fn apply_inference(&mut self, result: &InferenceResult) -> Result<()> {
        for obj in result.inferred_objects() {
            if matches!(self.labelled.state(obj), LabelState::Enriched(_)) {
                continue;
            }
            let conf = result.confidence(obj).unwrap_or(0.0);
            if conf >= self.config.label_confidence {
                if let Some(label) = result.label(obj) {
                    self.labelled.set(obj, LabelState::Inferred(label))?;
                }
            } else if matches!(self.labelled.state(obj), LabelState::Inferred(_)) {
                self.labelled.set(obj, LabelState::Unlabelled)?;
            }
        }
        for (q, nq) in self.qualities.iter_mut().zip(result.qualities()) {
            *q = nq;
        }
        Ok(())
    }

    /// Record each inferred object's confidence as its reward baseline.
    pub fn record_confidences(&mut self, result: &InferenceResult) {
        for obj in result.inferred_objects() {
            self.prev_confidence[obj.index()] = result.confidence(obj);
        }
    }

    /// Score the classifier's pre-answer (so out-of-sample) `guesses`
    /// against `result` and update the trust: the lower confidence bound
    /// `p − √(p(1−p)/n)` of the agreement once at least 10 are scored, 0
    /// before, so enrichment opens only when the classifier is provably
    /// good. Only labels with posterior ≥ 0.85 are scored (a noisy
    /// worker majority would make a perfect classifier look bad), and both
    /// counts decay by 0.97 per update, with or without a result.
    pub fn update_trust<'g>(
        &mut self,
        result: Option<&InferenceResult>,
        guesses: impl IntoIterator<Item = &'g (ObjectId, usize)>,
    ) {
        let (mut agree, mut scored) = (0usize, 0usize);
        if let Some(result) = result {
            for &(obj, guess) in guesses {
                let confident = result.confidence(obj).unwrap_or(0.0) >= 0.85;
                if let Some(label) = result.label(obj).filter(|_| confident) {
                    scored += 1;
                    agree += usize::from(label.index() == guess);
                }
            }
        }
        self.trust_agree = 0.97 * self.trust_agree + agree as f64;
        self.trust_scored = 0.97 * self.trust_scored + scored as f64;
        self.phi_trust = if self.trust_scored >= 10.0 {
            let p = (self.trust_agree / self.trust_scored).clamp(0.0, 1.0);
            p - (p * (1.0 - p) / self.trust_scored).sqrt()
        } else {
            0.0
        };
    }

    /// Enough objects carry *human-inferred* labels (enriched ones do not
    /// count) for the classifier to auto-label.
    pub fn warmup_done(&self) -> bool {
        let inferred = self.labelled.labelled_count() - self.labelled.enriched_count();
        inferred as f64 >= self.config.enrichment_warmup * self.labelled.len() as f64
    }

    /// Retrain the classifier on the labelled set, unless the joint model
    /// already retrained it during inference.
    pub fn retrain<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<()> {
        if !matches!(self.config.inference, InferenceModel::Joint(_)) {
            retrain_on_labelled(&mut self.classifier, self.dataset, &self.labelled, rng)?;
        }
        Ok(())
    }

    /// Enrichment behind the warmup and trust gates; returns how many
    /// objects the classifier labelled.
    pub fn enrich(&mut self) -> Result<usize> {
        if !(self.warmup_done() && self.phi_trust >= self.config.enrichment_trust) {
            return Ok(0);
        }
        Ok(enrichment::enrich(
            self.dataset,
            &self.classifier,
            &mut self.labelled,
            self.config.enrichment_margin,
            self.config.enrichment_cap_per_iter,
        )?
        .len())
    }

    /// Sample up to `candidate_cap` of `selectable` with their class
    /// distributions from the feature cache (one batched forward over the
    /// objects the current classifier has not scored yet).
    pub fn candidates<R: Rng + ?Sized>(
        &mut self,
        selectable: Vec<ObjectId>,
        answers: &AnswerSet,
        rng: &mut R,
    ) -> Vec<(ObjectId, Vec<f64>)> {
        let cap = self.config.candidate_cap;
        let chosen = if selectable.len() <= cap {
            selectable
        } else {
            sample_indices(rng, selectable.len(), cap)
                .into_iter()
                .map(|i| selectable[i])
                .collect()
        };
        self.feature_cache
            .refresh(self.dataset, &self.classifier, answers, &chosen);
        chosen
            .into_iter()
            .map(|obj| (obj, self.feature_cache.probs(obj).to_vec()))
            .collect()
    }

    /// The run-level features under the caller's answers, budget fraction
    /// and trust value.
    pub fn snapshot(
        &self,
        answers: &AnswerSet,
        budget_fraction: f64,
        phi_trust: f64,
    ) -> StateSnapshot {
        let n = self.dataset.len().max(1) as f64;
        StateSnapshot {
            qualities: self.qualities.clone(),
            annotator_load: answers.answer_counts(self.pool.len()),
            budget_spent_fraction: budget_fraction,
            labelled_fraction: self.labelled.labelled_count() as f64 / n,
            enriched_fraction: self.labelled.enriched_count() as f64 / n,
            max_cost: self.max_cost,
            phi_trust,
        }
    }

    /// The per-step allowance: `budget_left` spread over the batches the
    /// unlabelled objects need, at least one cheapest panel. Loops fix
    /// it once: recomputed every step it spirals downward (hard objects
    /// stay unlabelled while the budget shrinks, and the tail of the run
    /// buys useless one-answer panels).
    pub fn allowance(&self, budget_left: f64) -> f64 {
        let k = self.config.assignment_k;
        let planned = self
            .labelled
            .unlabelled_count()
            .div_ceil(self.config.batch_per_iter);
        (budget_left / planned.max(1) as f64).max(self.pool.min_cost() * k as f64)
    }

    /// Unified task selection and assignment within `allowance` (see
    /// [`SelectionAgent::select`]), recording the agent's pre-answer
    /// beliefs: the classifier's guess for the trust estimate, and the
    /// previous posterior, else the classifier's top probability, as the
    /// reward's baseline.
    #[allow(clippy::too_many_arguments)]
    pub fn select<R: Rng + ?Sized>(
        &mut self,
        candidates: &[(ObjectId, Vec<f64>)],
        profiles: &[AnnotatorProfile],
        slots: Option<&[usize]>,
        answers: &AnswerSet,
        budget_fraction: f64,
        allowance: f64,
        rng: &mut R,
    ) -> PendingBatch {
        let snapshot = self.snapshot(answers, budget_fraction, self.phi_trust);
        let assignments = self.agent.select(
            candidates,
            profiles,
            slots,
            answers,
            &self.labelled,
            &snapshot,
            allowance,
            self.config.assignment_k,
            self.config.batch_per_iter,
            self.config.ablation,
            rng,
        );
        // Index the candidate distributions once instead of a linear scan
        // per assignment.
        let probs_of: HashMap<ObjectId, &Vec<f64>> =
            candidates.iter().map(|(o, p)| (*o, p)).collect();
        let mut conf_before = Vec::with_capacity(assignments.len());
        let mut phi_guesses = Vec::new();
        for a in &assignments {
            let Some(probs) = probs_of.get(&a.object) else {
                continue;
            };
            if let Some(guess) = prob::argmax(probs) {
                if self.classifier.is_trained() {
                    phi_guesses.push((a.object, guess));
                }
            }
            let prior = self.prev_confidence[a.object.index()]
                .unwrap_or_else(|| probs.iter().copied().fold(0.0, f64::max));
            conf_before.push((a.object, prior));
        }
        conf_before.sort_by_key(|&(o, _)| o);
        conf_before.dedup_by_key(|&mut (o, _)| o);
        PendingBatch {
            assignments,
            conf_before,
            phi_guesses,
        }
    }

    /// Credit `batch` against `result`, store its transitions and return
    /// the rewards. Each assignment earns its own object's confidence
    /// *gain* (clipped at 0, from `1/|C|` when no belief was recorded), so
    /// answering an already-easy object earns nothing, and pays its own
    /// panel cost; the enrichment term is shared. `successor` is `None`
    /// for a terminal transition, else the view under which sampled
    /// unlabelled objects, one random annotator each, are embedded as next
    /// actions for the TD bootstrap.
    pub fn credit<R: Rng + ?Sized>(
        &mut self,
        batch: &PendingBatch,
        result: Option<&InferenceResult>,
        enriched: usize,
        unlabelled: usize,
        successor: Option<(&AnswerSet, &StateSnapshot)>,
        rng: &mut R,
    ) -> Vec<f64> {
        let k = self.config.assignment_k.max(1) as f64;
        let uniform = 1.0 / self.dataset.num_classes() as f64;
        let rewards: Vec<f64> = batch
            .assignments
            .iter()
            .map(|a| {
                let before = batch
                    .conf_before
                    .binary_search_by_key(&a.object, |&(o, _)| o)
                    .map_or(uniform, |i| batch.conf_before[i].1);
                let after = result.and_then(|r| r.confidence(a.object)).unwrap_or(0.0);
                let panel_cost: f64 = a
                    .annotators
                    .iter()
                    .map(|&id| self.pool.profile(id).cost)
                    .sum();
                iteration_reward(
                    self.config.lambda,
                    self.config.mu,
                    self.config.eta,
                    RewardInputs {
                        enriched,
                        unlabelled_before: unlabelled,
                        spend: panel_cost,
                        max_iter_spend: k * self.max_cost,
                        mean_confidence: (after - before).max(0.0),
                    },
                )
            })
            .collect();
        let mut next = Vec::new();
        if let Some((answers, snapshot)) = successor {
            let unlabelled: Vec<ObjectId> = self.labelled.unlabelled_objects().collect();
            if !unlabelled.is_empty() {
                let count = self.config.bootstrap_candidates.max(1);
                let sampled: Vec<ObjectId> = sample_indices(rng, unlabelled.len(), count)
                    .into_iter()
                    .map(|i| unlabelled[i])
                    .collect();
                self.feature_cache
                    .refresh(self.dataset, &self.classifier, answers, &sampled);
                for obj in sampled {
                    let profile = &self.pool.profiles()[rng.random_range(0..self.pool.len())];
                    if !answers.has_answered(obj, profile.id) {
                        next.push(embed_with(
                            self.feature_cache.features(obj),
                            obj,
                            profile,
                            &self.labelled,
                            snapshot,
                            self.config.assignment_k,
                        ));
                    }
                }
            }
        }
        self.agent
            .remember(&batch.assignments, &rewards, &next, successor.is_none());
        rewards
    }

    /// The step's DQN training; returns the mean TD loss if any step ran.
    pub fn train<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f32> {
        self.agent.train(self.config.train_steps_per_iter, rng)
    }

    /// Emit one step's `run.*` curves under `scope`. Pure reads behind
    /// `obs::enabled()`, so recording cannot perturb the run.
    pub fn record_gauges(
        &self,
        scope: &str,
        step: f64,
        budget_fraction: f64,
        reward: f64,
        td_loss: Option<f32>,
    ) {
        if !obs::enabled() {
            return;
        }
        let n = self.dataset.len().max(1) as f64;
        let gauge = |name, value| obs::gauge_step(&scoped(scope, name), step, value);
        gauge("run.budget_spent_fraction", budget_fraction);
        gauge(
            "run.labelled_fraction",
            self.labelled.labelled_count() as f64 / n,
        );
        gauge(
            "run.enriched_fraction",
            self.labelled.enriched_count() as f64 / n,
        );
        gauge("run.phi_trust", self.phi_trust);
        gauge("run.reward", reward);
        if let Some(l) = td_loss {
            gauge("run.td_loss", l as f64);
        }
        if let Some(acc) = self.classifier_accuracy_on_labelled() {
            gauge("run.acc_on_labelled", acc);
        }
    }

    /// Close the run: residual answered objects take their MAP label from
    /// `final_result` (paid-for answers beat an untrained guess), the
    /// classifier labels the rest unless the fallback is off, and enriched
    /// labels are re-predicted by the final classifier so a weaker
    /// mid-run classifier's mistakes do not stick.
    pub fn finish<R: Rng + ?Sized>(
        &mut self,
        final_result: Option<&InferenceResult>,
        budget_spent: f64,
        total_answers: usize,
        rng: &mut R,
    ) -> Result<LabellingOutcome> {
        if let Some(result) = final_result {
            for obj in result.inferred_objects() {
                if !self.labelled.state(obj).is_labelled() {
                    if let Some(label) = result.label(obj) {
                        self.labelled.set(obj, LabelState::Inferred(label))?;
                    }
                }
            }
        }
        let mut fallback_count = 0;
        if self.config.final_fallback && !self.labelled.all_labelled() {
            if !self.classifier.is_trained() {
                retrain_on_labelled(&mut self.classifier, self.dataset, &self.labelled, rng)?;
            }
            fallback_count =
                fallback_label_all(self.dataset, &self.classifier, &mut self.labelled)?;
        }
        refresh_enriched(self.dataset, &self.classifier, &mut self.labelled)?;
        let label_states = self.label_states();
        let enriched_count = label_states
            .iter()
            .filter(|s| matches!(s, LabelState::Enriched(_)))
            .count();
        Ok(LabellingOutcome {
            labels: self.labelled.to_labels(),
            label_states,
            budget_spent,
            iterations: self.trace.len(),
            total_answers,
            enriched_count,
            fallback_count,
            trace: self.trace.clone(),
        })
    }

    fn label_states(&self) -> Vec<LabelState> {
        (0..self.labelled.len())
            .map(|i| self.labelled.state(ObjectId(i)))
            .collect()
    }

    /// Fraction of labelled objects the classifier's argmax agrees with,
    /// in one batched forward.
    fn classifier_accuracy_on_labelled(&self) -> Option<f64> {
        if !self.classifier.is_trained() {
            return None;
        }
        let pairs: Vec<(ObjectId, ClassId)> = self.labelled.labelled_objects().collect();
        if pairs.is_empty() {
            return None;
        }
        let mut x = crowdrl_linalg::Matrix::zeros(pairs.len(), self.dataset.dim());
        for (r, (obj, _)) in pairs.iter().enumerate() {
            x.row_mut(r)
                .copy_from_slice(self.dataset.features(obj.index()));
        }
        let probs = self.classifier.predict_proba(&x);
        let agree = pairs
            .iter()
            .enumerate()
            .filter(|(r, (_, label))| crowdrl_linalg::ops::argmax(probs.row(*r)) == label.index())
            .count();
        Some(agree as f64 / pairs.len() as f64)
    }
}

/// Annotate an enrichment pass that added labels, at `step` of the
/// loop's clock.
pub fn annotate_enrichment(name: &str, enriched: usize, budget_fraction: f64, step: (&str, f64)) {
    if enriched > 0 && obs::enabled() {
        obs::annotate_kv(
            name,
            &format!("enrichment added {enriched} labels at budget {budget_fraction:.2}"),
            &[
                ("added", enriched as f64),
                ("budget_fraction", budget_fraction),
                step,
            ],
        );
    }
}

/// `scope + name`, borrowing `name` unchanged when `scope` is empty so
/// unscoped runs allocate nothing extra.
pub fn scoped(scope: &str, name: &'static str) -> Cow<'static, str> {
    if scope.is_empty() {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("{scope}{name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_sim::{DatasetSpec, PoolSpec};
    use crowdrl_types::{Answer, ConfusionMatrix};

    const N: usize = 30;

    fn setup() -> (Dataset, AnnotatorPool) {
        let mut rng = seeded(1);
        let dataset = DatasetSpec::gaussian("t", N, 3, 2)
            .with_separation(3.0)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
        (dataset, pool)
    }

    fn state<'a>(
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        inference: InferenceModel,
    ) -> RunState<'a> {
        let config = CrowdRlConfig::builder()
            .budget(100.0)
            .inference(inference)
            .build()
            .unwrap();
        RunState::new(config, dataset, pool, &mut seeded(2)).unwrap()
    }

    /// A hand-built result: `posteriors[i]` for the first objects, none
    /// for the rest.
    fn result(posteriors: &[[f64; 2]], pool: &AnnotatorPool) -> InferenceResult {
        let mut all = vec![None; N];
        for (i, p) in posteriors.iter().enumerate() {
            all[i] = Some(p.to_vec());
        }
        InferenceResult {
            posteriors: all,
            confusions: vec![ConfusionMatrix::with_accuracy(2, 0.8).unwrap(); pool.len()],
            class_prior: vec![0.5, 0.5],
            iterations: 1,
            log_likelihood: f64::NAN,
        }
    }

    /// Restore `state` with its label states replaced by `labels`.
    fn relabel<'a>(state: &RunState<'a>, labels: &[(usize, LabelState)]) -> RunState<'a> {
        let mut snapshot = state.export();
        for &(i, s) in labels {
            snapshot.labelled[i] = s;
        }
        RunState::restore(state.config.clone(), state.dataset, state.pool, snapshot).unwrap()
    }

    fn bound(agree: f64, scored: f64) -> f64 {
        let p = agree / scored;
        p - (p * (1.0 - p) / scored).sqrt()
    }

    #[test]
    fn every_model_infers_from_the_same_answers() {
        let (dataset, pool) = setup();
        let mut answers = AnswerSet::new(N);
        for o in 0..10 {
            for a in 0..3 {
                answers
                    .record(Answer {
                        object: ObjectId(o),
                        annotator: AnnotatorId(a),
                        label: dataset.truth(o),
                    })
                    .unwrap();
            }
        }
        for model in [
            InferenceModel::Joint(Default::default()),
            InferenceModel::Pm,
            InferenceModel::DawidSkene,
            InferenceModel::MajorityVote,
        ] {
            let mut state = state(&dataset, &pool, model);
            let result = state.infer(&answers, &mut seeded(3)).unwrap();
            // Unanimous truthful panels: every answered object inferred.
            assert_eq!(result.inferred_objects().count(), 10);
        }
    }

    #[test]
    fn apply_gates_on_confidence_and_unlabels_doubtful_objects() {
        let (dataset, pool) = setup();
        let mut state = state(&dataset, &pool, InferenceModel::MajorityVote);
        // The default bar is 0.85.
        state
            .apply_inference(&result(&[[0.9, 0.1], [0.1, 0.9], [0.6, 0.4]], &pool))
            .unwrap();
        assert_eq!(state.labelled().labelled_count(), 2);
        assert_eq!(state.qualities, vec![0.8; pool.len()]);
        // A posterior that drops below the bar un-labels its object.
        state
            .apply_inference(&result(&[[0.7, 0.3], [0.1, 0.9]], &pool))
            .unwrap();
        assert_eq!(state.labelled().state(ObjectId(0)), LabelState::Unlabelled);
        assert_eq!(
            state.labelled().state(ObjectId(1)),
            LabelState::Inferred(ClassId(1))
        );
    }

    #[test]
    fn apply_never_touches_enriched_labels() {
        let (dataset, pool) = setup();
        let fresh = state(&dataset, &pool, InferenceModel::MajorityVote);
        let pinned = LabelState::Enriched(ClassId(1));
        let mut state = relabel(&fresh, &[(0, pinned)]);
        state
            .apply_inference(&result(&[[0.99, 0.01]], &pool))
            .unwrap();
        assert_eq!(state.labelled().state(ObjectId(0)), pinned);
    }

    #[test]
    fn trust_is_a_lower_bound_from_ten_confident_scored_guesses() {
        let (dataset, pool) = setup();
        let mut state = state(&dataset, &pool, InferenceModel::MajorityVote);
        // Objects 0..12 are confidently class 0; object 12 sits below the
        // 0.85 scoring bar.
        let mut posteriors = vec![[0.9, 0.1]; 12];
        posteriors.push([0.84, 0.16]);
        let result = result(&posteriors, &pool);
        let agreeing: Vec<(ObjectId, usize)> = (0..9).map(|o| (ObjectId(o), 0)).collect();

        // Nine agreeing guesses are not enough to open the bound.
        state.update_trust(Some(&result), &agreeing);
        assert_eq!(state.phi_trust(), 0.0);

        // Nine agree, three disagree, the unconfident guess is not scored:
        // 0.97·9 + 12 scored, 0.97·9 + 9 agreeing.
        let mut mixed = agreeing.clone();
        mixed.extend((9..12).map(|o| (ObjectId(o), 1)));
        mixed.push((ObjectId(12), 0));
        state.update_trust(Some(&result), &mixed);
        let (agree, scored) = (0.97 * 9.0 + 9.0, 0.97 * 9.0 + 12.0);
        assert_eq!(state.phi_trust(), bound(agree, scored));

        // Without a result the counts only decay, and the bound closes
        // again once fewer than 10 remain scored.
        state.update_trust(None, &mixed);
        assert_eq!(state.phi_trust(), bound(0.97 * agree, 0.97 * scored));
        let mut scored = 0.97 * scored;
        while scored >= 10.0 {
            state.update_trust(None, &mixed);
            scored *= 0.97;
        }
        assert_eq!(state.phi_trust(), 0.0);
    }

    #[test]
    fn reward_clips_a_negative_gain_and_uses_the_uniform_prior_when_none_was_recorded() {
        let (dataset, pool) = setup();
        let mut state = state(&dataset, &pool, InferenceModel::MajorityVote);
        let panel = vec![AnnotatorId(0), AnnotatorId(3)];
        let assignment = |o: usize| Assignment {
            object: ObjectId(o),
            annotators: panel.clone(),
            embeddings: Vec::new(),
        };
        let batch = PendingBatch {
            assignments: vec![assignment(0), assignment(1)],
            // Object 0 was believed at 0.95 and drops to 0.9; object 1
            // has no recorded belief.
            conf_before: vec![(ObjectId(0), 0.95)],
            phi_guesses: Vec::new(),
        };
        let result = result(&[[0.9, 0.1], [0.2, 0.8]], &pool);
        let rewards = state.credit(&batch, Some(&result), 2, 10, None, &mut seeded(5));
        let cost: f64 = panel.iter().map(|&id| pool.profile(id).cost).sum();
        let max_cost = pool.profiles().iter().map(|p| p.cost).fold(0.0, f64::max);
        let want = |gain: f64| {
            iteration_reward(
                1.0,
                1.0,
                0.15,
                RewardInputs {
                    enriched: 2,
                    unlabelled_before: 10,
                    spend: cost,
                    max_iter_spend: 3.0 * max_cost,
                    mean_confidence: gain,
                },
            )
        };
        assert_eq!(rewards, vec![want(0.0), want(0.8 - 0.5)]);
    }

    #[test]
    fn warmup_counts_inferred_labels_not_enriched_ones() {
        let (dataset, pool) = setup();
        let fresh = state(&dataset, &pool, InferenceModel::MajorityVote);
        // The default warmup is 10% of 30 objects: three inferred labels.
        let enriched = LabelState::Enriched(ClassId(0));
        let inferred = LabelState::Inferred(ClassId(0));
        let labels: Vec<_> = (0..10).map(|i| (i, enriched)).collect();
        assert!(!relabel(&fresh, &labels).warmup_done());
        let mut labels = labels;
        labels.extend([(10, inferred), (11, inferred)]);
        assert!(!relabel(&fresh, &labels).warmup_done());
        labels.push((12, inferred));
        assert!(relabel(&fresh, &labels).warmup_done());
    }

    #[test]
    fn selected_beliefs_prefer_the_recorded_posterior_and_sort_by_object() {
        let (dataset, pool) = setup();
        let mut state = state(&dataset, &pool, InferenceModel::MajorityVote);
        state.record_confidences(&result(&[[0.2, 0.8]], &pool));
        let candidates = vec![(ObjectId(5), vec![0.3, 0.7]), (ObjectId(0), vec![0.6, 0.4])];
        let answers = AnswerSet::new(N);
        let profiles = pool.profiles();
        let batch = state.select(
            &candidates,
            profiles,
            None,
            &answers,
            0.0,
            1e9,
            &mut seeded(4),
        );
        assert_eq!(batch.assignments.len(), 2);
        assert_eq!(
            batch.conf_before,
            vec![(ObjectId(0), 0.8), (ObjectId(5), 0.7)]
        );
        // An untrained classifier makes no guesses to score.
        assert!(batch.phi_guesses.is_empty());
        assert!(batch.check_fits(N, pool.len()).is_ok());
        assert!(batch.check_fits(5, pool.len()).is_err());
    }
}
