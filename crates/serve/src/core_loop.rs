//! The decision core of the asynchronous runtime.
//!
//! Everything the *agent* does — truth inference, trust tracking,
//! enrichment, reward credit, DQN training, and the next batch of
//! assignments — lives in [`AgentCore`], one struct with no knowledge of
//! threads or event queues. The engine calls each project's core
//! directly, in one fixed sequence at every pool width; identical
//! call sequence + one owned RNG = identical decisions in every execution
//! mode, which is the whole determinism story on the scoring side.
//!
//! The loop body intentionally mirrors [`CrowdRl::run`]'s iteration
//! (selection → inference → trust → enrichment → reward → train); what
//! changes is the cadence (watermark-triggered instead of per-batch) and
//! that reward credit for a batch is assigned at the *next* refresh after
//! it, once the newly delivered answers have moved the posteriors.
//!
//! [`CrowdRl::run`]: crowdrl_core::CrowdRl::run

use crate::supervisor::{Quarantine, QuarantineConfig, QuarantineEvent, QuarantineStatus};
use crowdrl_core::agent::{AgentState, Assignment, SelectionAgent};
use crowdrl_core::classifier_util::retrain_on_labelled;
use crowdrl_core::config::{CrowdRlConfig, InferenceModel};
use crowdrl_core::enrichment::{enrich, fallback_label_all, refresh_enriched};
use crowdrl_core::features::{embed_with, FeatureCache, StateSnapshot};
use crowdrl_core::infer_step::{apply_inference, make_engine, run_inference_step};
use crowdrl_core::outcome::{IterationStats, LabellingOutcome};
use crowdrl_core::reward::{iteration_reward, RewardInputs};
use crowdrl_core::workflow::classifier_accuracy_on_labelled;
use crowdrl_inference::{EngineSnapshot, InferenceEngine};
use crowdrl_nn::{ClassifierSnapshot, SoftmaxClassifier};
use crowdrl_obs as obs;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::rng::{sample_indices, seeded};
use crowdrl_types::{
    AnnotatorId, AnnotatorProfile, Answer, AnswerSet, Dataset, Error, LabelState, LabelledSet,
    ObjectId, Result, SimTime,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The budget as the agent is allowed to see it: real charges plus the
/// ledger's outstanding reservations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetView {
    /// Total budget of the run.
    pub total: f64,
    /// Charged so far (delivered answers).
    pub spent: f64,
    /// Reserved by in-flight assignments.
    pub reserved: f64,
}

impl BudgetView {
    /// Budget still free to commit: `total − spent − reserved`.
    pub fn usable(&self) -> f64 {
        (self.total - self.spent - self.reserved).max(0.0)
    }

    /// Committed fraction (spent + reserved, what pacing must respect).
    pub fn committed_fraction(&self) -> f64 {
        if self.total <= 0.0 {
            return 1.0;
        }
        ((self.spent + self.reserved) / self.total).clamp(0.0, 1.0)
    }
}

/// A refresh request from the engine.
#[derive(Debug, Clone)]
pub struct RefreshRequest {
    /// All answers ingested so far. Shared with the engine's live copy —
    /// the engine hands out a cheap `Arc` clone per refresh instead of
    /// deep-copying the whole answer set, and resumes sole ownership
    /// (copy-on-write) once the core drops the request.
    pub answers: Arc<AnswerSet>,
    /// Budget state including reservations.
    pub view: BudgetView,
    /// Objects the agent must not select: currently in flight, or
    /// abandoned after exhausting their requeue allowance.
    pub blocked: HashSet<ObjectId>,
    /// Free concurrency slots per annotator at refresh time (shared
    /// pool brokering). Selection filters out exhausted annotators the
    /// way it filters quarantined ones, and caps how many times one
    /// annotator is reused within a single reply; an annotator missing
    /// from the map is unbounded.
    pub slots: HashMap<AnnotatorId, usize>,
    /// The simulated clock at the refresh.
    pub now: SimTime,
    /// Answers delivered since the previous refresh.
    pub answers_since: usize,
}

/// The agent's answer to a refresh: what to dispatch next.
#[derive(Debug, Clone)]
pub struct RefreshReply {
    /// Panels to dispatch: each object with its chosen annotators.
    pub panels: Vec<(ObjectId, Vec<AnnotatorId>)>,
    /// Labelled objects after this refresh (for the trace).
    pub labelled: usize,
    /// True once every object is labelled — the engine stops dispatching
    /// and shuts down.
    pub done: bool,
    /// Circuit-breaker transitions this refresh caused (empty unless
    /// quarantine is enabled), for the trace.
    pub quarantine: Vec<QuarantineEvent>,
}

/// Final accounting handed to [`AgentCore::finalize`].
#[derive(Debug, Clone)]
pub struct FinalizeRequest {
    /// All answers ingested over the run.
    pub answers: Arc<AnswerSet>,
    /// Real budget charges.
    pub budget_spent: f64,
}

/// A decided batch awaiting reward credit at the next refresh.
#[derive(Debug)]
struct PendingBatch {
    assignments: Vec<Assignment>,
    /// Best confidence estimate per selected object *before* its new
    /// answers (previous posterior, else classifier probability).
    conf_before: HashMap<ObjectId, f64>,
    /// The classifier's pre-answer argmax per object, for the trust
    /// estimate (only recorded when the classifier is trained).
    phi_guesses: Vec<(ObjectId, usize)>,
}

/// Serializable form of one [`PendingBatch`]. `conf_before` is sorted by
/// object so the encoding is deterministic regardless of hash order.
#[derive(Debug, Clone)]
pub struct PendingBatchState {
    /// The batch's assignments (objects, annotators, replay embeddings).
    pub assignments: Vec<Assignment>,
    /// Pre-answer confidence per object, sorted by object id.
    pub conf_before: Vec<(ObjectId, f64)>,
    /// Pre-answer classifier guesses.
    pub phi_guesses: Vec<(ObjectId, usize)>,
}

/// Checkpointable state of an [`AgentCore`]: everything its constructor
/// does not re-derive from the dataset and pool.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// Classifier weights, optimizer state and generation counter.
    pub classifier: ClassifierSnapshot,
    /// DQN, replay buffer and exploration state.
    pub agent: AgentState,
    /// Per-object label states.
    pub labelled: Vec<LabelState>,
    /// Latest per-annotator quality estimates.
    pub qualities: Vec<f64>,
    /// Last known posterior confidence per object.
    pub prev_confidence: Vec<Option<f64>>,
    /// Batches dispatched but not yet credited with reward.
    pub outstanding: Vec<PendingBatchState>,
    /// Per-refresh statistics so far.
    pub trace: Vec<IterationStats>,
    /// Decayed out-of-sample agreement numerator.
    pub trust_agree: f64,
    /// Decayed out-of-sample agreement denominator.
    pub trust_scored: f64,
    /// The classifier trust estimate derived from the two above.
    pub phi_trust: f64,
    /// The per-refresh spending allowance, once fixed.
    pub fixed_allowance: Option<f64>,
    /// Budget charged as of the previous refresh.
    pub last_spent: f64,
    /// Refreshes completed.
    pub refresh_index: usize,
    /// Warm EM state, when an engine is configured and has run.
    pub engine: Option<EngineSnapshot>,
    /// The core's private RNG stream.
    pub rng: [u64; 4],
    /// Annotator circuit-breaker states.
    pub quarantine: Vec<QuarantineStatus>,
}

/// The agent side of the asynchronous runtime (see module docs).
pub struct AgentCore<'a> {
    config: CrowdRlConfig,
    dataset: &'a Dataset,
    pool: &'a AnnotatorPool,
    classifier: SoftmaxClassifier,
    agent: SelectionAgent,
    feature_cache: FeatureCache,
    labelled: LabelledSet,
    qualities: Vec<f64>,
    prev_confidence: Vec<Option<f64>>,
    outstanding: Vec<PendingBatch>,
    trace: Vec<IterationStats>,
    trust_agree: f64,
    trust_scored: f64,
    phi_trust: f64,
    max_cost: f64,
    min_cost: f64,
    /// Per-refresh spending allowance, fixed at the first refresh (same
    /// pacing rationale as the batch workflow).
    fixed_allowance: Option<f64>,
    last_spent: f64,
    refresh_index: usize,
    /// Persistent inference engine carrying EM state across refreshes
    /// (None = stateless cold inference every refresh).
    engine: Option<InferenceEngine>,
    rng: StdRng,
    /// Per-annotator circuit breakers (no-ops unless enabled).
    quarantine: Quarantine,
    /// Live-pool size below which degraded mode engages.
    quorum: usize,
    /// Prefix for every span/gauge/counter this core emits (e.g.
    /// `project.3.`). Empty for single runs, so their trace names are
    /// unchanged; the multi-tenant service sets one scope per project so
    /// concurrent runs do not collide in a shared trace.
    obs_scope: String,
}

impl<'a> AgentCore<'a> {
    /// Build the core. `seed` fixes its private RNG stream; two cores
    /// with the same seed and call sequence behave identically.
    pub fn new(
        config: CrowdRlConfig,
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        seed: u64,
        quarantine: QuarantineConfig,
    ) -> Result<Self> {
        config.validate()?;
        quarantine.validate()?;
        let mut rng = seeded(seed);
        let classifier = SoftmaxClassifier::new(
            config.classifier.clone(),
            dataset.dim(),
            dataset.num_classes(),
            &mut rng,
        )?;
        let agent = SelectionAgent::new(
            config.dqn.clone(),
            &config.exploration,
            config.decide,
            config.pretrained_dqn.as_deref(),
            &mut rng,
        )?;
        let n = dataset.len();
        let max_cost = pool
            .profiles()
            .iter()
            .map(|p| p.cost)
            .fold(0.0f64, f64::max);
        Ok(Self {
            feature_cache: FeatureCache::new(n, dataset.num_classes()),
            labelled: LabelledSet::new(n),
            qualities: vec![0.7f64; pool.len()],
            prev_confidence: vec![None; n],
            outstanding: Vec::new(),
            trace: Vec::new(),
            trust_agree: 0.0,
            trust_scored: 0.0,
            phi_trust: 0.0,
            max_cost,
            min_cost: pool.min_cost(),
            fixed_allowance: None,
            last_spent: 0.0,
            refresh_index: 0,
            engine: make_engine(&config.inference, &config.engine),
            quorum: if quarantine.min_pool == 0 {
                config.assignment_k
            } else {
                quarantine.min_pool
            },
            quarantine: Quarantine::new(quarantine, pool.len()),
            obs_scope: String::new(),
            config,
            dataset,
            pool,
            classifier,
            agent,
            rng,
        })
    }

    /// Scope every metric this core emits under `scope` (conventionally
    /// `project.<id>.`). Pass an empty string to restore the unscoped
    /// single-run names.
    pub fn set_obs_scope(&mut self, scope: impl Into<String>) {
        self.obs_scope = scope.into();
    }

    /// `scope + name`, borrowing `name` unchanged on the (single-run)
    /// empty-scope path so unscoped runs allocate nothing extra.
    fn scoped(&self, name: &'static str) -> std::borrow::Cow<'static, str> {
        if self.obs_scope.is_empty() {
            std::borrow::Cow::Borrowed(name)
        } else {
            std::borrow::Cow::Owned(format!("{}{name}", self.obs_scope))
        }
    }

    /// The initial α·|O| stratified panels (one random expert plus random
    /// workers each), exactly as the batch workflow seeds its run — but
    /// returned for asynchronous dispatch instead of being purchased
    /// synchronously.
    pub fn initial_panels(&mut self) -> Vec<(ObjectId, Vec<AnnotatorId>)> {
        let n = self.dataset.len();
        let initial = ((self.config.initial_ratio * n as f64).round() as usize).min(n);
        let objects = sample_indices(&mut self.rng, n, initial);
        let experts: Vec<_> = self
            .pool
            .profiles()
            .iter()
            .filter(|p| p.is_expert())
            .collect();
        let workers: Vec<_> = self
            .pool
            .profiles()
            .iter()
            .filter(|p| !p.is_expert())
            .collect();
        let mut panels = Vec::with_capacity(objects.len());
        for obj in objects {
            let mut annotators = Vec::with_capacity(self.config.assignment_k);
            if !experts.is_empty() {
                annotators.push(experts[self.rng.random_range(0..experts.len())].id);
            }
            let tier = if workers.is_empty() {
                &experts
            } else {
                &workers
            };
            let fill = sample_indices(
                &mut self.rng,
                tier.len(),
                self.config.assignment_k.saturating_sub(annotators.len()),
            );
            annotators.extend(fill.into_iter().map(|i| tier[i].id));
            panels.push((ObjectId(obj), annotators));
        }
        panels
    }

    /// The answers truth inference should trust. While an annotator sits
    /// in quarantine its past votes are excluded along with its future
    /// assignments — a tripped breaker means the estimates that *would*
    /// down-weight those answers can't be relied on. Returns `None` on
    /// the common path (nobody quarantined, quarantine disabled) so the
    /// caller keeps the original set untouched and bit-identical.
    fn trusted_answers(&self, answers: &AnswerSet) -> Result<Option<AnswerSet>> {
        if !(0..self.pool.len()).any(|i| self.quarantine.is_quarantined(i)) {
            return Ok(None);
        }
        let mut filtered = AnswerSet::new(self.dataset.len());
        for i in 0..self.dataset.len() {
            let object = ObjectId(i);
            for &(annotator, label) in answers.answers_for(object) {
                if !self.quarantine.is_quarantined(annotator.index()) {
                    filtered.record(Answer {
                        object,
                        annotator,
                        label,
                    })?;
                }
            }
        }
        // Degenerate corner: every answer came from quarantined
        // annotators. Inferring over nothing would be worse than
        // inferring over suspect votes, so keep the original set.
        if filtered.total_answers() == 0 {
            return Ok(None);
        }
        Ok(Some(filtered))
    }

    /// One refresh: ingest the answers, credit outstanding batches, and
    /// decide the next panels. Mirrors one iteration of the batch loop.
    pub fn refresh(&mut self, req: &RefreshRequest) -> Result<RefreshReply> {
        let refresh_span = obs::span(&self.scoped("serve.refresh"));
        let k_classes = self.dataset.num_classes();

        // (a) Truth inference over everything delivered so far, minus
        // votes from quarantined annotators.
        let inference_span = obs::span(&self.scoped("serve.inference"));
        let result = if req.answers.total_answers() > 0 {
            let trusted = self.trusted_answers(&req.answers)?;
            let result = run_inference_step(
                &mut self.engine,
                &self.config.inference,
                self.dataset,
                trusted.as_ref().unwrap_or(&req.answers),
                self.pool,
                &mut self.classifier,
                &mut self.rng,
            )?;
            apply_inference(
                &result,
                &mut self.labelled,
                &mut self.qualities,
                self.config.label_confidence,
            )?;
            for obj in result.inferred_objects() {
                self.prev_confidence[obj.index()] = result.confidence(obj);
            }
            Some(result)
        } else {
            None
        };
        drop(inference_span);

        // (a') Advance the annotator circuit breakers on the freshly
        // inferred confusion matrices (no-op unless quarantine is
        // enabled).
        let mut quarantine_events = Vec::new();
        if let Some(result) = &result {
            quarantine_events = self.quarantine.update(
                self.refresh_index,
                &result.qualities(),
                &req.answers.answer_counts(self.pool.len()),
                k_classes,
                self.pool.profiles(),
                self.quorum,
            );
            for ev in &quarantine_events {
                if ev.entered {
                    obs::counter_add(&self.scoped("quarantine.entered"), 1);
                } else {
                    obs::counter_add(&self.scoped("quarantine.released"), 1);
                }
            }
        }

        // (b) Trust update from the outstanding batches' pre-answer
        // guesses (same decayed out-of-sample agreement as the workflow).
        let mut agree = 0usize;
        let mut scored = 0usize;
        if let Some(result) = &result {
            for batch in &self.outstanding {
                for (obj, guess) in &batch.phi_guesses {
                    if result.confidence(*obj).unwrap_or(0.0) < 0.85 {
                        continue;
                    }
                    if let Some(label) = result.label(*obj) {
                        scored += 1;
                        if label.index() == *guess {
                            agree += 1;
                        }
                    }
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

        // (c) Retrain (non-joint models) and enrich behind the gates.
        if result.is_some() && !matches!(self.config.inference, InferenceModel::Joint(_)) {
            retrain_on_labelled(
                &mut self.classifier,
                self.dataset,
                &self.labelled,
                &mut self.rng,
            )?;
        }
        let enriched = if self.warmup_done() && self.phi_trust >= self.config.enrichment_trust {
            enrich(
                self.dataset,
                &self.classifier,
                &mut self.labelled,
                self.config.enrichment_margin,
                self.config.enrichment_cap_per_iter,
            )?
            .len()
        } else {
            0
        };

        // (d) Credit every outstanding batch with its confidence gains
        // and store the transitions. The batches were decided one or more
        // refreshes ago; their effect is the posterior movement visible
        // *now*.
        let terminal = self.labelled.all_labelled() || req.view.usable() < self.min_cost;
        let batches = std::mem::take(&mut self.outstanding);
        let mut reward_sum = 0.0;
        let mut reward_count = 0usize;
        let k = self.config.assignment_k.max(1) as f64;
        for batch in batches {
            let rewards: Vec<f64> = batch
                .assignments
                .iter()
                .map(|a| {
                    let before = batch
                        .conf_before
                        .get(&a.object)
                        .copied()
                        .unwrap_or(1.0 / k_classes as f64);
                    let after = result
                        .as_ref()
                        .and_then(|r| r.confidence(a.object))
                        .unwrap_or(0.0);
                    let confidence = (after - before).max(0.0);
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
                            unlabelled_before: self.labelled.unlabelled_count(),
                            spend: panel_cost,
                            max_iter_spend: k * self.max_cost,
                            mean_confidence: confidence,
                        },
                    )
                })
                .collect();
            reward_sum += rewards.iter().sum::<f64>();
            reward_count += rewards.len();
            let next_candidates = if terminal {
                Vec::new()
            } else {
                self.bootstrap_embeddings(&req.answers, req.view)
            };
            self.agent
                .remember(&batch.assignments, &rewards, &next_candidates, terminal);
        }

        // (e) Decide the next panels (unless the refresh cap is hit).
        let decide_span = obs::span(&self.scoped("serve.decide"));
        let panels = if self.refresh_index < self.config.max_iters && !self.labelled.all_labelled()
        {
            self.decide(req)?
        } else {
            Vec::new()
        };
        drop(decide_span);

        let reward = if reward_count == 0 {
            0.0
        } else {
            reward_sum / reward_count as f64
        };
        self.trace.push(IterationStats {
            iteration: self.refresh_index,
            enriched,
            selected: panels.len(),
            answers: req.answers_since,
            spend: req.view.spent - self.last_spent,
            reward,
            labelled_total: self.labelled.labelled_count(),
            td_loss: None,
        });
        self.last_spent = req.view.spent;

        if obs::enabled() {
            // Same gauge names as the batch workflow so `crowdrl-trace`
            // draws one accuracy-vs-budget curve for either mode. The
            // semantic step is the refresh index; the simulated clock is
            // recorded alongside so curves can be re-keyed to sim time.
            let step = self.refresh_index as f64;
            let n = self.dataset.len().max(1) as f64;
            obs::gauge_step(
                &self.scoped("run.budget_spent_fraction"),
                step,
                req.view.committed_fraction(),
            );
            obs::gauge_step(
                &self.scoped("run.labelled_fraction"),
                step,
                self.labelled.labelled_count() as f64 / n,
            );
            obs::gauge_step(
                &self.scoped("run.enriched_fraction"),
                step,
                self.labelled.enriched_count() as f64 / n,
            );
            obs::gauge_step(&self.scoped("run.phi_trust"), step, self.phi_trust);
            obs::gauge_step(&self.scoped("run.reward"), step, reward);
            obs::gauge_step(&self.scoped("serve.sim_time_tu"), step, req.now.as_f64());
            if let Some(acc) =
                classifier_accuracy_on_labelled(self.dataset, &self.classifier, &self.labelled)
            {
                obs::gauge_step(&self.scoped("run.acc_on_labelled"), step, acc);
            }
            if enriched > 0 {
                obs::annotate_kv(
                    &self.scoped("serve.enrichment"),
                    &format!(
                        "enrichment added {enriched} labels at budget {:.2}",
                        req.view.committed_fraction()
                    ),
                    &[
                        ("added", enriched as f64),
                        ("budget_fraction", req.view.committed_fraction()),
                        ("refresh", step),
                    ],
                );
            }
        }
        self.refresh_index += 1;
        drop(refresh_span);

        Ok(RefreshReply {
            panels,
            labelled: self.labelled.labelled_count(),
            done: self.labelled.all_labelled(),
            quarantine: quarantine_events,
        })
    }

    /// DQN training for one refresh. Called right after [`refresh`],
    /// before the next event is processed (training draws only from the
    /// core's own RNG, so it commutes with dispatching the reply). The TD
    /// loss lands in the trace entry the refresh opened.
    ///
    /// [`refresh`]: AgentCore::refresh
    pub fn train(&mut self) {
        let train_span = obs::span(&self.scoped("serve.train"));
        let td = self
            .agent
            .train(self.config.train_steps_per_iter, &mut self.rng);
        drop(train_span);
        if obs::enabled() {
            // Cumulative scratch-buffer accounting for the Q-network's
            // reused forward/backward buffers (alloc traffic saved).
            let (reuses, bytes) = self.agent.dqn().online_network().scratch_stats();
            obs::gauge(&self.scoped("serve.scratch.reuses"), reuses as f64);
            obs::gauge(&self.scoped("serve.scratch.bytes"), bytes as f64);
        }
        if let Some(last) = self.trace.last_mut() {
            last.td_loss = td;
        }
    }

    /// Close the run: residual MAP labels, classifier fallback, enriched-
    /// label refresh, and the final [`LabellingOutcome`] — the same
    /// closing sequence as the batch workflow, so outcomes are comparable.
    pub fn finalize(&mut self, req: &FinalizeRequest) -> Result<LabellingOutcome> {
        if !self.labelled.all_labelled() && req.answers.total_answers() > 0 {
            // A warm engine reuses the last refresh's result when no new
            // answers arrived since — finalize then costs one clone.
            let trusted = self.trusted_answers(&req.answers)?;
            let final_result = run_inference_step(
                &mut self.engine,
                &self.config.inference,
                self.dataset,
                trusted.as_ref().unwrap_or(&req.answers),
                self.pool,
                &mut self.classifier,
                &mut self.rng,
            )?;
            for obj in final_result.inferred_objects() {
                if !self.labelled.state(obj).is_labelled() {
                    if let Some(label) = final_result.label(obj) {
                        self.labelled.set(obj, LabelState::Inferred(label))?;
                    }
                }
            }
        }
        let mut fallback_count = 0;
        if self.config.final_fallback && !self.labelled.all_labelled() {
            if !self.classifier.is_trained() {
                retrain_on_labelled(
                    &mut self.classifier,
                    self.dataset,
                    &self.labelled,
                    &mut self.rng,
                )?;
            }
            fallback_count =
                fallback_label_all(self.dataset, &self.classifier, &mut self.labelled)?;
        }
        refresh_enriched(self.dataset, &self.classifier, &mut self.labelled)?;

        let n = self.dataset.len();
        let label_states: Vec<LabelState> =
            (0..n).map(|i| self.labelled.state(ObjectId(i))).collect();
        let enriched_count = label_states
            .iter()
            .filter(|s| matches!(s, LabelState::Enriched(_)))
            .count();
        Ok(LabellingOutcome {
            labels: self.labelled.to_labels(),
            label_states,
            budget_spent: req.budget_spent,
            iterations: self.trace.len(),
            total_answers: req.answers.total_answers(),
            enriched_count,
            fallback_count,
            trace: self.trace.clone(),
        })
    }

    fn warmup_done(&self) -> bool {
        let inferred = self.labelled.labelled_count() - self.labelled.enriched_count();
        inferred as f64 >= self.config.enrichment_warmup * self.labelled.len() as f64
    }

    fn snapshot(&self, answers: &AnswerSet, view: BudgetView) -> StateSnapshot {
        let n = self.dataset.len().max(1);
        StateSnapshot {
            qualities: self.qualities.clone(),
            annotator_load: answers.answer_counts(self.pool.len()),
            budget_spent_fraction: view.committed_fraction(),
            labelled_fraction: self.labelled.labelled_count() as f64 / n as f64,
            enriched_fraction: self.labelled.enriched_count() as f64 / n as f64,
            max_cost: self.max_cost,
            phi_trust: self.phi_trust,
        }
    }

    /// Unified task selection + assignment over the selectable objects.
    fn decide(&mut self, req: &RefreshRequest) -> Result<Vec<(ObjectId, Vec<AnnotatorId>)>> {
        // Candidates: unlabelled, not in flight, not abandoned.
        let selectable: Vec<ObjectId> = self
            .labelled
            .unlabelled_objects()
            .filter(|o| !req.blocked.contains(o))
            .collect();
        if selectable.is_empty() {
            return Ok(Vec::new());
        }
        let chosen = if selectable.len() <= self.config.candidate_cap {
            selectable
        } else {
            sample_indices(&mut self.rng, selectable.len(), self.config.candidate_cap)
                .into_iter()
                .map(|i| selectable[i])
                .collect()
        };
        // The watermark refresh scores its candidates through the feature
        // cache: one batched forward over the objects the classifier's
        // current generation has not scored yet, cached rows for the rest.
        let feat_span = obs::span("decide.features");
        self.feature_cache
            .refresh(self.dataset, &self.classifier, &req.answers, &chosen);
        let candidates: Vec<(ObjectId, Vec<f64>)> = chosen
            .into_iter()
            .map(|obj| (obj, self.feature_cache.probs(obj).to_vec()))
            .collect();
        drop(feat_span);

        // Pacing: the per-refresh allowance is fixed at the first
        // decision, like the batch workflow's per-iteration allowance.
        let allowance = *self.fixed_allowance.get_or_insert_with(|| {
            let planned = self
                .labelled
                .unlabelled_count()
                .div_ceil(self.config.batch_per_iter);
            (req.view.usable() / planned.max(1) as f64)
                .max(self.min_cost * self.config.assignment_k as f64)
        });
        let allowance = allowance.min(req.view.usable());

        let snapshot = self.snapshot(&req.answers, req.view);
        // Quarantined and slot-exhausted annotators are filtered out of
        // the selectable pool. Selection identifies annotators by
        // `profile.id`, not position, so handing it a subset is safe;
        // when every breaker is closed and every slot free the original
        // slice is used and the run is bit-identical.
        let all_profiles = self.pool.profiles();
        let free = |id: AnnotatorId| req.slots.get(&id).copied().unwrap_or(usize::MAX) > 0;
        let active_profiles: Vec<AnnotatorProfile> = all_profiles
            .iter()
            .filter(|p| !self.quarantine.is_quarantined(p.id.index()) && free(p.id))
            .cloned()
            .collect();
        let profiles: &[AnnotatorProfile] = if active_profiles.len() == all_profiles.len() {
            all_profiles
        } else {
            &active_profiles
        };
        let stats_before = self.agent.decide_stats();
        let assignments = self.agent.select(
            &candidates,
            profiles,
            Some(&req.slots),
            &req.answers,
            &self.labelled,
            &snapshot,
            allowance,
            self.config.assignment_k,
            self.config.batch_per_iter,
            self.config.ablation,
            &mut self.rng,
        );
        if obs::enabled() {
            let d = self.agent.decide_stats().delta_since(&stats_before);
            obs::counter_add(&self.scoped("decide.total_pairs"), d.total_pairs);
            obs::counter_add(&self.scoped("decide.scored_pairs"), d.scored_pairs);
            if d.total_pairs > 0 {
                obs::gauge_step(
                    &self.scoped("decide.pruned_fraction"),
                    self.refresh_index as f64,
                    1.0 - d.scored_pairs as f64 / d.total_pairs as f64,
                );
            }
        }
        if assignments.is_empty() {
            return Ok(Vec::new());
        }

        // Record what the agent believed before the answers arrive, for
        // reward credit and the trust estimate at a later refresh. The
        // candidate distributions are indexed once instead of a linear
        // scan per assignment (same fix as the batch purchase loop).
        let candidate_probs: HashMap<ObjectId, &Vec<f64>> =
            candidates.iter().map(|(o, p)| (*o, p)).collect();
        let mut conf_before = HashMap::new();
        let mut phi_guesses = Vec::new();
        for a in &assignments {
            if let Some(probs) = candidate_probs.get(&a.object) {
                if let Some(guess) = crowdrl_types::prob::argmax(probs) {
                    if self.classifier.is_trained() {
                        phi_guesses.push((a.object, guess));
                    }
                }
                let prior = self.prev_confidence[a.object.index()]
                    .unwrap_or_else(|| probs.iter().copied().fold(0.0f64, f64::max));
                conf_before.insert(a.object, prior);
            }
        }
        let panels: Vec<(ObjectId, Vec<AnnotatorId>)> = assignments
            .iter()
            .map(|a| (a.object, a.annotators.clone()))
            .collect();
        self.outstanding.push(PendingBatch {
            assignments,
            conf_before,
            phi_guesses,
        });
        Ok(panels)
    }

    /// Export everything the constructor does not re-derive, for a
    /// crash-consistent checkpoint. The feature cache is deliberately
    /// absent: it is a pure cache whose entries are bit-identical to a
    /// batched recompute, so restore rebuilds it empty.
    pub fn export_state(&self) -> CoreState {
        let n = self.labelled.len();
        CoreState {
            classifier: self.classifier.snapshot(),
            agent: self.agent.export_state(),
            labelled: (0..n).map(|i| self.labelled.state(ObjectId(i))).collect(),
            qualities: self.qualities.clone(),
            prev_confidence: self.prev_confidence.clone(),
            outstanding: self
                .outstanding
                .iter()
                .map(|b| {
                    let mut conf_before: Vec<(ObjectId, f64)> =
                        b.conf_before.iter().map(|(&o, &c)| (o, c)).collect();
                    conf_before.sort_by_key(|&(o, _)| o);
                    PendingBatchState {
                        assignments: b.assignments.clone(),
                        conf_before,
                        phi_guesses: b.phi_guesses.clone(),
                    }
                })
                .collect(),
            trace: self.trace.clone(),
            trust_agree: self.trust_agree,
            trust_scored: self.trust_scored,
            phi_trust: self.phi_trust,
            fixed_allowance: self.fixed_allowance,
            last_spent: self.last_spent,
            refresh_index: self.refresh_index,
            engine: self.engine.as_ref().and_then(InferenceEngine::export_state),
            rng: self.rng.state(),
            quarantine: self.quarantine.states().to_vec(),
        }
    }

    /// Rebuild a core from a [`CoreState`]. `config` and `quarantine`
    /// must match the ones the checkpoint was taken under (the runtime
    /// verifies a config fingerprint before calling this); the seed used
    /// at construction is irrelevant because every piece of random state
    /// is overwritten from the checkpoint.
    pub fn restore(
        config: CrowdRlConfig,
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        quarantine: QuarantineConfig,
        state: CoreState,
    ) -> Result<Self> {
        let quarantine_config = quarantine.clone();
        let mut core = Self::new(config, dataset, pool, 0, quarantine)?;
        if state.labelled.len() != dataset.len() {
            return Err(Error::DimensionMismatch {
                expected: dataset.len(),
                actual: state.labelled.len(),
                context: "checkpointed label states".into(),
            });
        }
        if state.qualities.len() != pool.len() || state.quarantine.len() != pool.len() {
            return Err(Error::DimensionMismatch {
                expected: pool.len(),
                actual: state.qualities.len(),
                context: "checkpointed annotator state".into(),
            });
        }
        core.classifier.restore(state.classifier)?;
        core.agent.restore_state(state.agent)?;
        for (i, s) in state.labelled.iter().enumerate() {
            if !matches!(s, LabelState::Unlabelled) {
                core.labelled.set(ObjectId(i), *s)?;
            }
        }
        core.qualities = state.qualities;
        core.prev_confidence = state.prev_confidence;
        core.outstanding = state
            .outstanding
            .into_iter()
            .map(|b| PendingBatch {
                assignments: b.assignments,
                conf_before: b.conf_before.into_iter().collect(),
                phi_guesses: b.phi_guesses,
            })
            .collect();
        core.trace = state.trace;
        core.trust_agree = state.trust_agree;
        core.trust_scored = state.trust_scored;
        core.phi_trust = state.phi_trust;
        core.fixed_allowance = state.fixed_allowance;
        core.last_spent = state.last_spent;
        core.refresh_index = state.refresh_index;
        if let Some(snap) = state.engine {
            match &mut core.engine {
                Some(engine) => engine.restore_state(snap, dataset)?,
                None => {
                    return Err(Error::InvalidParameter(
                        "checkpoint carries inference-engine state but this config runs \
                         stateless inference"
                            .into(),
                    ))
                }
            }
        }
        core.rng = StdRng::from_state(state.rng);
        core.quarantine = Quarantine::restore(quarantine_config, state.quarantine);
        Ok(core)
    }

    /// Embeddings of sampled feasible successor actions for TD
    /// bootstrapping (the async analogue of the workflow's helper).
    fn bootstrap_embeddings(&mut self, answers: &AnswerSet, view: BudgetView) -> Vec<Vec<f32>> {
        let unlabelled: Vec<ObjectId> = self.labelled.unlabelled_objects().collect();
        if unlabelled.is_empty() {
            return Vec::new();
        }
        let snapshot = self.snapshot(answers, view);
        let sampled: Vec<ObjectId> = sample_indices(
            &mut self.rng,
            unlabelled.len(),
            self.config.bootstrap_candidates.max(1),
        )
        .into_iter()
        .map(|i| unlabelled[i])
        .collect();
        self.feature_cache
            .refresh(self.dataset, &self.classifier, answers, &sampled);
        let mut out = Vec::new();
        for obj in sampled {
            let a = self.rng.random_range(0..self.pool.len());
            let profile = &self.pool.profiles()[a];
            if answers.has_answered(obj, profile.id) {
                continue;
            }
            out.push(embed_with(
                self.feature_cache.features(obj),
                obj,
                profile,
                &self.labelled,
                &snapshot,
                self.config.assignment_k,
            ));
        }
        out
    }
}
