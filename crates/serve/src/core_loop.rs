//! The decision core of the asynchronous runtime.
//!
//! [`AgentCore`] drives one project's [`RunState`] — the Algorithm-1
//! step that [`CrowdRl::run`] drives too — from the engine's refreshes,
//! with no knowledge of threads or event queues. The engine calls each
//! project's core directly, in one fixed sequence at every pool width;
//! identical call sequence + one owned RNG = identical decisions in every
//! execution mode, which is the whole determinism story on the scoring
//! side.
//!
//! A refresh runs the same steps as one batch iteration (inference →
//! trust → enrichment → reward → selection; training follows in
//! [`AgentCore::train`]). What the core adds is asynchronous: the cadence
//! is watermark-triggered instead of per batch, reward credit for a batch
//! is assigned at the *next* refresh after it, once the newly delivered
//! answers have moved the posteriors, and quarantine, in-flight blocking,
//! annotator slots and pacing against reserved budget shape each
//! decision.
//!
//! [`CrowdRl::run`]: crowdrl_core::CrowdRl::run

use crate::supervisor::{Quarantine, QuarantineConfig, QuarantineEvent, QuarantineStatus};
use crowdrl_core::config::CrowdRlConfig;
use crowdrl_core::outcome::{IterationStats, LabellingOutcome};
use crowdrl_core::run_state::{annotate_enrichment, scoped, PendingBatch, RunSnapshot, RunState};
use crowdrl_inference::InferenceResult;
use crowdrl_obs as obs;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::rng::seeded;
use crowdrl_types::{
    AnnotatorId, AnnotatorProfile, Answer, AnswerSet, Dataset, Error, ObjectId, Result, SimTime,
};
use rand::rngs::StdRng;
use std::borrow::Cow;
use std::collections::HashSet;
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
    /// Free concurrency slots of each annotator, by index, at refresh
    /// time (shared pool brokering): one snapshot per round, shared by
    /// every request of that round. Selection filters out exhausted
    /// annotators the way it filters quarantined ones, and caps how many
    /// times one annotator is reused within a single reply; an annotator
    /// past the end of the slice is unbounded.
    pub slots: Arc<[usize]>,
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

/// Checkpointable state of an [`AgentCore`]: the shared run state plus
/// what only the asynchronous loop keeps.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// Classifier, agent, labels, qualities, confidences, trust, trace
    /// and warm EM state.
    pub run: RunSnapshot,
    /// Batches dispatched but not yet credited with reward.
    pub outstanding: Vec<PendingBatch>,
    /// The per-refresh spending allowance, once fixed.
    pub fixed_allowance: Option<f64>,
    /// Budget charged as of the previous refresh.
    pub last_spent: f64,
    /// Refreshes completed.
    pub refresh_index: usize,
    /// The core's private RNG stream.
    pub rng: [u64; 4],
    /// Annotator circuit-breaker states.
    pub quarantine: Vec<QuarantineStatus>,
}

/// The agent side of the asynchronous runtime (see module docs).
pub struct AgentCore<'a> {
    state: RunState<'a>,
    /// Batches dispatched but not yet credited with reward.
    outstanding: Vec<PendingBatch>,
    /// Per-refresh spending allowance, fixed at the first decision (same
    /// pacing rationale as the batch workflow).
    fixed_allowance: Option<f64>,
    last_spent: f64,
    refresh_index: usize,
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
        let mut rng = seeded(seed);
        let state = RunState::new(config, dataset, pool, &mut rng)?;
        Self::around(state, rng, quarantine)
    }

    /// Wrap `state` with fresh asynchronous bookkeeping.
    fn around(state: RunState<'a>, rng: StdRng, quarantine: QuarantineConfig) -> Result<Self> {
        quarantine.validate()?;
        Ok(Self {
            quorum: if quarantine.min_pool == 0 {
                state.config().assignment_k
            } else {
                quarantine.min_pool
            },
            quarantine: Quarantine::new(quarantine, state.pool().len()),
            state,
            outstanding: Vec::new(),
            fixed_allowance: None,
            last_spent: 0.0,
            refresh_index: 0,
            rng,
            obs_scope: String::new(),
        })
    }

    /// Scope every metric this core emits under `scope` (conventionally
    /// `project.<id>.`). Pass an empty string to restore the unscoped
    /// single-run names.
    pub fn set_obs_scope(&mut self, scope: impl Into<String>) {
        self.obs_scope = scope.into();
    }

    fn scoped(&self, name: &'static str) -> Cow<'static, str> {
        scoped(&self.obs_scope, name)
    }

    /// The initial α·|O| stratified panels, drawn exactly as the batch
    /// workflow draws them, but returned for asynchronous dispatch
    /// instead of being purchased synchronously.
    pub fn initial_panels(&mut self) -> Vec<(ObjectId, Vec<AnnotatorId>)> {
        let mut panels = Vec::new();
        self.state
            .initial_panels(&mut self.rng, |object, panel, _| {
                panels.push((object, panel))
            });
        panels
    }

    /// The answers truth inference should trust. While an annotator sits
    /// in quarantine its past votes are excluded along with its future
    /// assignments — a tripped breaker means the estimates that *would*
    /// down-weight those answers can't be relied on. Returns `None` on
    /// the common path (nobody quarantined, quarantine disabled) so the
    /// caller keeps the original set untouched and bit-identical.
    fn trusted_answers(&self, answers: &AnswerSet) -> Result<Option<AnswerSet>> {
        let pool = self.state.pool();
        if !(0..pool.len()).any(|i| self.quarantine.is_quarantined(i)) {
            return Ok(None);
        }
        let n = self.state.dataset().len();
        let mut filtered = AnswerSet::new(n);
        for i in 0..n {
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

    /// Truth inference over `answers` minus quarantined votes.
    fn infer(&mut self, answers: &AnswerSet) -> Result<Arc<InferenceResult>> {
        let trusted = self.trusted_answers(answers)?;
        self.state
            .infer(trusted.as_ref().unwrap_or(answers), &mut self.rng)
    }

    /// One refresh: ingest the answers, credit outstanding batches, and
    /// decide the next panels. Mirrors one iteration of the batch loop.
    pub fn refresh(&mut self, req: &RefreshRequest) -> Result<RefreshReply> {
        let refresh_span = obs::span(&self.scoped("serve.refresh"));
        let pool = self.state.pool();

        // (a) Truth inference over everything delivered so far, minus
        // votes from quarantined annotators.
        let inference_span = obs::span(&self.scoped("serve.inference"));
        let result = if req.answers.total_answers() > 0 {
            let result = self.infer(&req.answers)?;
            self.state.apply_inference(&result)?;
            self.state.record_confidences(&result);
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
                &req.answers.answer_counts(pool.len()),
                self.state.dataset().num_classes(),
                pool.profiles(),
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

        // (b) Trust update from every outstanding batch's pre-answer
        // guesses; (c) retrain (non-joint models, once answers exist) and
        // enrich behind the gates.
        let guesses = self.outstanding.iter().flat_map(|b| &b.phi_guesses);
        self.state.update_trust(result.as_deref(), guesses);
        if result.is_some() {
            self.state.retrain(&mut self.rng)?;
        }
        let enriched = self.state.enrich()?;

        // (d) Credit every outstanding batch with its confidence gains
        // and store the transitions. The batches were decided one or more
        // refreshes ago; their effect is the posterior movement visible
        // *now*. Enrichment is normalised by the unlabelled count after
        // this refresh's enrichment, and successors are embedded under
        // the live trust.
        let terminal = self.state.labelled().all_labelled() || req.view.usable() < pool.min_cost();
        let successor = (!terminal).then(|| {
            let trust = self.state.phi_trust();
            self.state
                .snapshot(&req.answers, req.view.committed_fraction(), trust)
        });
        let mut reward_sum = 0.0;
        let mut reward_count = 0usize;
        for batch in std::mem::take(&mut self.outstanding) {
            let unlabelled = self.state.labelled().unlabelled_count();
            let next = successor.as_ref().map(|s| (&*req.answers, s));
            let rewards = (self.state).credit(
                &batch,
                result.as_deref(),
                enriched,
                unlabelled,
                next,
                &mut self.rng,
            );
            reward_sum += rewards.iter().sum::<f64>();
            reward_count += rewards.len();
        }

        // (e) Decide the next panels (unless the refresh cap is hit).
        let decide_span = obs::span(&self.scoped("serve.decide"));
        let panels = if self.refresh_index < self.state.config().max_iters
            && !self.state.labelled().all_labelled()
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
        let labelled_total = self.state.labelled().labelled_count();
        self.state.trace_mut().push(IterationStats {
            iteration: self.refresh_index,
            enriched,
            selected: panels.len(),
            answers: req.answers_since,
            spend: req.view.spent - self.last_spent,
            reward,
            labelled_total,
            td_loss: None,
        });
        self.last_spent = req.view.spent;

        if obs::enabled() {
            // Same gauge names as the batch workflow so `crowdrl-trace`
            // draws one accuracy-vs-budget curve for either mode. The
            // semantic step is the refresh index; the simulated clock is
            // recorded alongside so curves can be re-keyed to sim time.
            let step = self.refresh_index as f64;
            let budget_fraction = req.view.committed_fraction();
            self.state
                .record_gauges(&self.obs_scope, step, budget_fraction, reward, None);
            obs::gauge_step(&self.scoped("serve.sim_time_tu"), step, req.now.as_f64());
            let name = self.scoped("serve.enrichment");
            annotate_enrichment(&name, enriched, budget_fraction, ("refresh", step));
        }
        self.refresh_index += 1;
        drop(refresh_span);

        Ok(RefreshReply {
            panels,
            labelled: labelled_total,
            done: self.state.labelled().all_labelled(),
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
        let td = self.state.train(&mut self.rng);
        drop(train_span);
        if obs::enabled() {
            // Cumulative scratch-buffer accounting for the Q-network's
            // reused forward/backward buffers (alloc traffic saved).
            let (reuses, bytes) = self.state.agent().dqn().online_network().scratch_stats();
            obs::gauge(&self.scoped("serve.scratch.reuses"), reuses as f64);
            obs::gauge(&self.scoped("serve.scratch.bytes"), bytes as f64);
        }
        if let Some(last) = self.state.trace_mut().last_mut() {
            last.td_loss = td;
        }
    }

    /// Close the run with the batch workflow's closing sequence, so
    /// outcomes are comparable. The final inference runs only when
    /// answers exist; a warm engine reuses the last refresh's result when
    /// no new answers arrived since, so it then costs a reference count.
    pub fn finalize(&mut self, req: &FinalizeRequest) -> Result<LabellingOutcome> {
        let final_result =
            if !self.state.labelled().all_labelled() && req.answers.total_answers() > 0 {
                Some(self.infer(&req.answers)?)
            } else {
                None
            };
        self.state.finish(
            final_result.as_deref(),
            req.budget_spent,
            req.answers.total_answers(),
            &mut self.rng,
        )
    }

    /// Unified task selection + assignment over the selectable objects.
    fn decide(&mut self, req: &RefreshRequest) -> Result<Vec<(ObjectId, Vec<AnnotatorId>)>> {
        // Candidates: unlabelled, not in flight, not abandoned.
        let selectable: Vec<ObjectId> = self
            .state
            .labelled()
            .unlabelled_objects()
            .filter(|o| !req.blocked.contains(o))
            .collect();
        if selectable.is_empty() {
            return Ok(Vec::new());
        }
        let feat_span = obs::span("decide.features");
        let candidates = self
            .state
            .candidates(selectable, &req.answers, &mut self.rng);
        drop(feat_span);

        // Pacing: the per-refresh allowance is fixed at the first
        // decision, like the batch workflow's per-iteration allowance.
        let allowance = *self
            .fixed_allowance
            .get_or_insert_with(|| self.state.allowance(req.view.usable()));
        let allowance = allowance.min(req.view.usable());

        // Quarantined and slot-exhausted annotators are filtered out of
        // the selectable pool. Selection identifies annotators by
        // `profile.id`, not position, so handing it a subset is safe;
        // when every breaker is closed and every slot free the original
        // slice is used and the run is bit-identical.
        let all_profiles = self.state.pool().profiles();
        let free = |id: AnnotatorId| req.slots.get(id.index()).copied().unwrap_or(usize::MAX) > 0;
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
        let stats_before = self.state.agent().decide_stats();
        let batch = self.state.select(
            &candidates,
            profiles,
            Some(&req.slots),
            &req.answers,
            req.view.committed_fraction(),
            allowance,
            &mut self.rng,
        );
        if obs::enabled() {
            let d = self.state.agent().decide_stats().delta_since(&stats_before);
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
        if batch.assignments.is_empty() {
            return Ok(Vec::new());
        }
        // The batch's pre-answer beliefs wait for reward credit and the
        // trust estimate at a later refresh.
        let panels = batch
            .assignments
            .iter()
            .map(|a| (a.object, a.annotators.clone()))
            .collect();
        self.outstanding.push(batch);
        Ok(panels)
    }

    /// Export everything the constructor does not re-derive, for a
    /// crash-consistent checkpoint.
    pub fn export_state(&self) -> CoreState {
        CoreState {
            run: self.state.export(),
            outstanding: self.outstanding.clone(),
            fixed_allowance: self.fixed_allowance,
            last_spent: self.last_spent,
            refresh_index: self.refresh_index,
            rng: self.rng.state(),
            quarantine: self.quarantine.states().to_vec(),
        }
    }

    /// Rebuild a core from a [`CoreState`]. `config` and `quarantine`
    /// must match the ones the checkpoint was taken under (the runtime
    /// verifies a config fingerprint before calling this). A state that
    /// does not fit the dataset or pool is a typed error.
    pub fn restore(
        config: CrowdRlConfig,
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        quarantine: QuarantineConfig,
        state: CoreState,
    ) -> Result<Self> {
        let run = RunState::restore(config, dataset, pool, state.run)?;
        if state.quarantine.len() != pool.len() {
            return Err(Error::DimensionMismatch {
                expected: pool.len(),
                actual: state.quarantine.len(),
                context: "checkpointed quarantine states".into(),
            });
        }
        for batch in &state.outstanding {
            batch.check_fits(dataset.len(), pool.len())?;
        }
        let quarantine_config = quarantine.clone();
        let mut core = Self::around(run, StdRng::from_state(state.rng), quarantine)?;
        core.outstanding = state.outstanding;
        core.fixed_allowance = state.fixed_allowance;
        core.last_spent = state.last_spent;
        core.refresh_index = state.refresh_index;
        core.quarantine = Quarantine::restore(quarantine_config, state.quarantine);
        Ok(core)
    }
}
