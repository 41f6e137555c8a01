//! The CrowdRL labelling workflow (Algorithm 1), driven synchronously.
//!
//! ```text
//! 1  initialize state; sample α·|O| objects, ask annotators to label them
//! 2  while some objects are unlabelled and budget remains:
//! 3      select a batch of objects and assign annotators   (Agent, §IV)
//! 4      purchase the answers on the platform
//! 5      infer true labels jointly with the classifier     (Env, §V)
//! 6      update the classifier trust; retrain φ; enrich where φ is confident
//! 7      compute r(t), store transitions, train the DQN
//! 8  label any remainder with φ
//! ```
//!
//! Every step is a method of [`RunState`], which the asynchronous engine
//! in `crowdrl-serve` drives too. This loop keeps only the [`Platform`]
//! (each panel is bought the moment it is chosen, with answers drawn from
//! the caller's RNG) and the iteration loop: the budget pacing, the spans
//! and the per-iteration trace.

use crate::config::CrowdRlConfig;
use crate::outcome::{IterationStats, LabellingOutcome};
use crate::run_state::{annotate_enrichment, RunState};
use crowdrl_obs as obs;
use crowdrl_sim::{AnnotatorPool, Platform};
use crowdrl_types::{Budget, Dataset, Result};
use rand::Rng;

/// The CrowdRL framework, configured and ready to label datasets.
#[derive(Debug, Clone)]
pub struct CrowdRl {
    config: CrowdRlConfig,
}

impl CrowdRl {
    /// Wrap a validated configuration.
    pub fn new(config: CrowdRlConfig) -> Self {
        Self { config }
    }

    /// The configuration (read-only).
    pub fn config(&self) -> &CrowdRlConfig {
        &self.config
    }

    /// Label `dataset` using `pool` under the configured budget.
    pub fn run<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<LabellingOutcome> {
        self.run_detailed(dataset, pool, rng)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`CrowdRl::run`], additionally returning the trained Q-network
    /// parameters — the artifact the paper's offline "cross-training"
    /// methodology transfers between datasets (§VI-A.4): train on the other
    /// datasets, then seed a fresh run via
    /// [`CrowdRlConfigBuilder::pretrained_dqn`](crate::config::CrowdRlConfigBuilder::pretrained_dqn).
    pub fn run_detailed<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<(LabellingOutcome, Vec<f32>)> {
        obs::init_from_env();
        let run_span = obs::span("workflow.run");
        let config = &self.config;
        // The platform is allocated before the run state: with the
        // opposite order the `paper` benchmark measured about 3% slower
        // (the heap placement of the hot matrices moves).
        let mut platform = Platform::new(dataset, pool, Budget::new(config.budget)?);
        let mut state = RunState::new(config.clone(), dataset, pool, rng)?;

        // --- Initial sampling: α·|O| stratified panels, each bought before
        // the next is drawn. ---
        let initial_span = obs::span("workflow.initial");
        state.initial_panels(rng, |object, panel, rng| {
            platform.ask_many(object, &panel, rng);
        });
        if platform.answers().total_answers() > 0 {
            // The initial posteriors are not recorded as confidence
            // baselines: the first iteration's rewards measure gains
            // against the classifier's view instead. No enrichment before
            // the loop either: the classifier has not yet been validated
            // against any out-of-sample human labels.
            let result = state.infer(platform.answers(), rng)?;
            state.apply_inference(&result)?;
            state.retrain(rng)?;
        }
        drop(initial_span);

        // Budget pacing: this run's per-iteration allowance, fixed once.
        let fixed_allowance = state.allowance(platform.budget().remaining());

        // --- Main loop. ---
        for t in 0..config.max_iters {
            if state.labelled().all_labelled() || platform.exhausted() {
                break;
            }
            let iter_span = obs::span("workflow.iter");
            let unlabelled_before = state.labelled().unlabelled_count();
            let spent_before = platform.budget().spent();

            // (a) Unified task selection + assignment, paced so the budget
            // lasts across the remaining unlabelled objects. Pacing is what
            // lets a mixed-cost pool spread experts over the run instead of
            // front-loading them.
            let select_span = obs::span("workflow.select");
            let unlabelled = state.labelled().unlabelled_objects().collect();
            let candidates = state.candidates(unlabelled, platform.answers(), rng);
            let batch = state.select(
                &candidates,
                pool.profiles(),
                None,
                platform.answers(),
                platform.budget().fraction_spent(),
                fixed_allowance.min(platform.budget().remaining()),
                rng,
            );
            drop(select_span);
            if batch.assignments.is_empty() {
                break;
            }

            // (b) Purchase answers.
            let purchase_span = obs::span("workflow.purchase");
            let mut answers_bought = 0;
            for a in &batch.assignments {
                answers_bought += platform.ask_many(a.object, &a.annotators, rng).len();
            }
            let spend = platform.budget().spent() - spent_before;
            drop(purchase_span);

            // (c) Truth inference over all answers so far, then the trust
            // update from this batch's pre-answer guesses.
            let inference_span = obs::span("workflow.inference");
            let result = state.infer(platform.answers(), rng)?;
            state.apply_inference(&result)?;
            drop(inference_span);
            state.record_confidences(&result);
            state.update_trust(Some(&result), &batch.phi_guesses);

            // (d) Retrain (non-joint models) and enrich.
            let enrich_span = obs::span("workflow.enrich");
            state.retrain(rng)?;
            let enriched = state.enrich()?;
            drop(enrich_span);
            annotate_enrichment(
                "workflow.enrichment",
                enriched,
                platform.budget().fraction_spent(),
                ("iteration", t as f64),
            );

            // (e) Reward, replay, learning. Enrichment is normalised by the
            // unlabelled count from the start of the iteration, and the
            // successor actions are embedded without the trust feature.
            let reward_span = obs::span("workflow.reward_train");
            let terminal = state.labelled().all_labelled() || platform.exhausted();
            let successor = (!terminal).then(|| {
                state.snapshot(platform.answers(), platform.budget().fraction_spent(), 0.0)
            });
            let next = successor.as_ref().map(|s| (platform.answers(), s));
            let rewards = state.credit(
                &batch,
                Some(&result),
                enriched,
                unlabelled_before,
                next,
                rng,
            );
            let reward = if rewards.is_empty() {
                0.0
            } else {
                rewards.iter().sum::<f64>() / rewards.len() as f64
            };
            let td_loss = state.train(rng);
            drop(reward_span);

            let labelled_total = state.labelled().labelled_count();
            state.trace_mut().push(IterationStats {
                iteration: t,
                enriched,
                selected: batch.assignments.len(),
                answers: answers_bought,
                spend,
                reward,
                labelled_total,
                td_loss,
            });
            // Keyed by the iteration clock, never the wall clock.
            let fraction = platform.budget().fraction_spent();
            state.record_gauges("", t as f64, fraction, reward, td_loss);
            drop(iter_span);
        }

        // --- Close: with a warm engine the final inference reuses the last
        // iteration's result when no answers arrived since (the common
        // case), so it costs a reference count instead of one full EM
        // run. ---
        let finalize_span = obs::span("workflow.finalize");
        let final_result = if state.labelled().all_labelled() {
            None
        } else {
            Some(state.infer(platform.answers(), rng)?)
        };
        let outcome = state.finish(
            final_result.as_deref(),
            platform.budget().spent(),
            platform.answers().total_answers(),
            rng,
        )?;
        drop(finalize_span);
        drop(run_span);
        // Flush aggregate snapshots so a `CROWDRL_TRACE`-driven process
        // that exits right after the run still leaves a complete trace.
        obs::checkpoint();
        Ok((outcome, state.agent().dqn().export_params()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SelectionAgent;
    use crate::config::{Ablation, Exploration, InferenceModel};
    use crowdrl_sim::{DatasetSpec, PoolSpec};
    use crowdrl_types::rng::seeded;
    use crowdrl_types::LabelState;

    fn quick_config(budget: f64) -> CrowdRlConfig {
        CrowdRlConfig::builder()
            .budget(budget)
            .initial_ratio(0.1)
            .batch_per_iter(4)
            .candidate_cap(32)
            .build()
            .unwrap()
    }

    fn setup(n: usize, seed: u64) -> (Dataset, AnnotatorPool) {
        let mut rng = seeded(seed);
        // Separation is the total centroid distance: 3.5 ⇒ Bayes ≈ 0.96,
        // an easy task where the full pipeline should score well.
        let dataset = DatasetSpec::gaussian("t", n, 4, 2)
            .with_separation(3.5)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
        (dataset, pool)
    }

    fn accuracy(outcome: &LabellingOutcome, dataset: &Dataset) -> f64 {
        outcome
            .labels
            .iter()
            .enumerate()
            .filter(|(i, l)| **l == Some(dataset.truth(*i)))
            .count() as f64
            / dataset.len() as f64
    }

    #[test]
    fn end_to_end_labels_everything_within_budget() {
        let (dataset, pool) = setup(80, 1);
        let mut rng = seeded(2);
        let outcome = CrowdRl::new(quick_config(250.0))
            .run(&dataset, &pool, &mut rng)
            .unwrap();
        assert_eq!(outcome.coverage(), 1.0);
        assert!(outcome.budget_spent <= 250.0 + 1e-9);
        let acc = accuracy(&outcome, &dataset);
        assert!(acc > 0.8, "accuracy {acc}");
        assert!(outcome.total_answers > 0);
    }

    #[test]
    fn zero_budget_yields_no_answers() {
        let (dataset, pool) = setup(20, 3);
        let mut rng = seeded(4);
        let outcome = CrowdRl::new(quick_config(0.0))
            .run(&dataset, &pool, &mut rng)
            .unwrap();
        assert_eq!(outcome.total_answers, 0);
        assert_eq!(outcome.budget_spent, 0.0);
        // Classifier can never train: nothing gets labelled.
        assert_eq!(outcome.coverage(), 0.0);
    }

    #[test]
    fn tiny_budget_still_terminates_and_spends_at_most_budget() {
        let (dataset, pool) = setup(40, 5);
        let mut rng = seeded(6);
        let outcome = CrowdRl::new(quick_config(12.0))
            .run(&dataset, &pool, &mut rng)
            .unwrap();
        assert!(outcome.budget_spent <= 12.0 + 1e-9);
        // Fallback labels everything once the classifier has two classes.
        assert!(outcome.coverage() > 0.0);
    }

    #[test]
    fn run_is_deterministic_given_seed() {
        let (dataset, pool) = setup(40, 7);
        let run = || {
            let mut rng = seeded(8);
            CrowdRl::new(quick_config(120.0))
                .run(&dataset, &pool, &mut rng)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.budget_spent, b.budget_spent);
        assert_eq!(a.total_answers, b.total_answers);
    }

    #[test]
    fn ablations_and_alternative_inference_complete() {
        let (dataset, pool) = setup(40, 9);
        for (name, config) in [
            (
                "m1",
                CrowdRlConfig::builder()
                    .budget(120.0)
                    .ablation(Ablation {
                        random_task_selection: true,
                        ..Default::default()
                    })
                    .build()
                    .unwrap(),
            ),
            (
                "m2",
                CrowdRlConfig::builder()
                    .budget(120.0)
                    .ablation(Ablation {
                        random_task_assignment: true,
                        ..Default::default()
                    })
                    .build()
                    .unwrap(),
            ),
            (
                "m3-pm",
                CrowdRlConfig::builder()
                    .budget(120.0)
                    .inference(InferenceModel::Pm)
                    .build()
                    .unwrap(),
            ),
            (
                "ds",
                CrowdRlConfig::builder()
                    .budget(120.0)
                    .inference(InferenceModel::DawidSkene)
                    .build()
                    .unwrap(),
            ),
            (
                "mv",
                CrowdRlConfig::builder()
                    .budget(120.0)
                    .inference(InferenceModel::MajorityVote)
                    .build()
                    .unwrap(),
            ),
            (
                "eps",
                CrowdRlConfig::builder()
                    .budget(120.0)
                    .exploration(Exploration::EpsilonGreedy {
                        start: 0.5,
                        end: 0.05,
                        decay_steps: 20,
                    })
                    .build()
                    .unwrap(),
            ),
        ] {
            let mut rng = seeded(10);
            let outcome = CrowdRl::new(config).run(&dataset, &pool, &mut rng).unwrap();
            assert!(outcome.budget_spent <= 120.0 + 1e-9, "{name} overspent");
            assert!(
                outcome.coverage() > 0.5,
                "{name} coverage {}",
                outcome.coverage()
            );
        }
    }

    #[test]
    fn trace_records_iterations() {
        let (dataset, pool) = setup(60, 11);
        let mut rng = seeded(12);
        let outcome = CrowdRl::new(quick_config(150.0))
            .run(&dataset, &pool, &mut rng)
            .unwrap();
        assert_eq!(outcome.trace.len(), outcome.iterations);
        for (i, s) in outcome.trace.iter().enumerate() {
            assert_eq!(s.iteration, i);
            assert!(s.spend >= 0.0);
            assert!(s.reward.is_finite());
        }
        // labelled_total generally grows, but confidence gating may
        // temporarily un-label an object whose posterior dropped; the run
        // must still finish with most objects labelled.
        let last = outcome.trace.last().unwrap();
        assert!(last.labelled_total >= outcome.trace[0].labelled_total);
    }

    #[test]
    fn cross_training_params_transfer() {
        let (dataset, pool) = setup(40, 13);
        // "Offline" training run on one dataset...
        let mut rng = seeded(14);
        let donor_outcome_config = quick_config(100.0);
        let donor = CrowdRl::new(donor_outcome_config);
        let _ = donor.run(&dataset, &pool, &mut rng).unwrap();
        // We can't extract the agent from run(); instead verify the config
        // path: a pretrained parameter vector loads and runs.
        let mut probe_rng = seeded(15);
        let probe_agent = SelectionAgent::new(
            crowdrl_rl::DqnConfig::default(),
            &Exploration::Ucb { scale: 1.0 },
            crate::decide::DecideMode::default(),
            None,
            &mut probe_rng,
        )
        .unwrap();
        let params = probe_agent.dqn().export_params();
        let config = CrowdRlConfig::builder()
            .budget(80.0)
            .pretrained_dqn(params)
            .build()
            .unwrap();
        let mut rng = seeded(16);
        let outcome = CrowdRl::new(config).run(&dataset, &pool, &mut rng).unwrap();
        assert!(outcome.coverage() > 0.0);
    }

    #[test]
    fn enriched_plus_inferred_accounts_for_all_labels() {
        let (dataset, pool) = setup(50, 17);
        let mut rng = seeded(18);
        let outcome = CrowdRl::new(quick_config(150.0))
            .run(&dataset, &pool, &mut rng)
            .unwrap();
        let inferred = outcome
            .label_states
            .iter()
            .filter(|s| matches!(s, LabelState::Inferred(_)))
            .count();
        let labelled = outcome.labels.iter().filter(|l| l.is_some()).count();
        assert_eq!(inferred + outcome.enriched_count, labelled);
    }
}
