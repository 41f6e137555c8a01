//! The Agent: unified task selection + assignment (§IV).
//!
//! Given the candidate unlabelled objects and the annotator pool, the agent
//! embeds every feasible (object, annotator) pair, scores it with the DQN,
//! applies the exploration policy, masks infeasible pairs with `-inf`
//! (already answered / unaffordable — the paper's invalid-action masking,
//! §IV-B), sums each object's top-`k` scores with the bounded min-heap, and
//! selects the `batch` objects with the largest sums together with their
//! top-`k` annotators.
//!
//! The paper's ablations degrade exactly one side: `M1` replaces the object
//! ranking with a uniform-random choice, `M2` replaces the annotator
//! ranking with uniform-random feasible annotators.

use crate::config::{Ablation, Exploration};
use crate::decide::{self, ClassScores, DecideMode, DecideStats, Panel};
use crate::features::{
    embed_annotator_specific, embed_object_part, embed_run_part, ObjectFeatures, StateSnapshot,
    ANNOTATOR_SPECIFIC_DIM, FEATURE_DIM,
};
use crowdrl_rl::{topk, DqnAgent, DqnConfig, DqnSnapshot, EpsilonGreedy, Transition, UcbExplorer};
use crowdrl_types::rng::sample_indices;
use crowdrl_types::{
    AnnotatorId, AnnotatorProfile, AnswerSet, Error, LabelledSet, ObjectId, Result,
};
use rand::Rng;

/// One chosen assignment: an object and the annotators to ask, plus the
/// embeddings used (needed to build replay transitions afterwards).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The selected object.
    pub object: ObjectId,
    /// The annotators to ask, best first.
    pub annotators: Vec<AnnotatorId>,
    /// State-action embedding per chosen annotator (parallel to
    /// `annotators`).
    pub embeddings: Vec<Vec<f32>>,
}

/// The RL selection agent: Q-network plus exploration state.
#[derive(Debug, Clone)]
pub struct SelectionAgent {
    dqn: DqnAgent,
    ucb: Option<UcbExplorer>,
    eps: Option<EpsilonGreedy>,
    decide: DecideMode,
    stats: DecideStats,
}

/// Checkpointable state of a [`SelectionAgent`]: the Q-network (weights,
/// optimizer, replay buffer) plus whichever exploration state is active.
#[derive(Debug, Clone)]
pub struct AgentState {
    /// Q-network, optimizer and replay snapshot.
    pub dqn: DqnSnapshot,
    /// UCB per-annotator pick counts, when UCB exploration is configured.
    pub ucb_counts: Option<Vec<(u64, u64)>>,
    /// ε-greedy decay clock, when ε-greedy exploration is configured.
    pub eps_steps: Option<u64>,
}

impl SelectionAgent {
    /// Build the agent. `dqn.input_dim` is forced to [`FEATURE_DIM`].
    pub fn new<R: Rng + ?Sized>(
        mut dqn: DqnConfig,
        exploration: &Exploration,
        decide: DecideMode,
        pretrained: Option<&[f32]>,
        rng: &mut R,
    ) -> Result<Self> {
        dqn.input_dim = FEATURE_DIM;
        let mut dqn = DqnAgent::new(dqn, rng)?;
        if let Some(params) = pretrained {
            dqn.import_params(params)?;
        }
        let (ucb, eps) = match exploration {
            Exploration::Ucb { scale } => (Some(UcbExplorer::new(*scale)), None),
            Exploration::EpsilonGreedy {
                start,
                end,
                decay_steps,
            } => (None, Some(EpsilonGreedy::new(*start, *end, *decay_steps))),
        };
        Ok(Self {
            dqn,
            ucb,
            eps,
            decide,
            stats: DecideStats::default(),
        })
    }

    /// The underlying DQN (for parameter export in cross-training).
    pub fn dqn(&self) -> &DqnAgent {
        &self.dqn
    }

    /// Cumulative decide-path counters (monotone; snapshot and
    /// [`DecideStats::delta_since`] to scope them to one call).
    pub fn decide_stats(&self) -> DecideStats {
        self.stats
    }

    /// Export the full learning state for a checkpoint.
    pub fn export_state(&self) -> AgentState {
        AgentState {
            dqn: self.dqn.snapshot(),
            ucb_counts: self.ucb.as_ref().map(UcbExplorer::export_counts),
            eps_steps: self.eps.as_ref().map(EpsilonGreedy::steps),
        }
    }

    /// Restore a state exported by [`export_state`](Self::export_state).
    /// The agent must have been built with the same configuration (same
    /// network shape and exploration kind).
    pub fn restore_state(&mut self, state: AgentState) -> Result<()> {
        if state.ucb_counts.is_some() != self.ucb.is_some()
            || state.eps_steps.is_some() != self.eps.is_some()
        {
            return Err(Error::InvalidParameter(
                "agent checkpoint uses a different exploration policy".into(),
            ));
        }
        self.dqn.restore(state.dqn)?;
        if let (Some(ucb), Some(counts)) = (&mut self.ucb, state.ucb_counts) {
            ucb.restore_counts(&counts);
        }
        if let (Some(eps), Some(steps)) = (&mut self.eps, state.eps_steps) {
            eps.set_steps(steps);
        }
        Ok(())
    }

    /// Select up to `batch` objects and `k` annotators each, spending at
    /// most `iteration_allowance` budget units.
    ///
    /// `candidates` pairs each candidate object with the classifier's
    /// current class distribution for it. Pairs where the annotator already
    /// answered the object or costs more than the remaining allowance are
    /// masked. Two allocation rules keep the spend paced (see the module
    /// docs): panels contain **at most one expert** (the paper's own worked
    /// assignment, w1/w3/w5, has exactly one), and annotators that no
    /// longer fit the running allowance are skipped in favor of cheaper
    /// ones.
    ///
    /// `slots`, when given, caps how many assignments each annotator may
    /// take across this whole batch (a shared pool's free concurrency
    /// slots, by annotator index; an annotator past its end is
    /// unbounded). Without it the top-scored annotator would be proposed
    /// for every object, and a brokered service could grant only a
    /// slot's worth of them. `None` means unbounded, the single-run
    /// behaviour.
    #[allow(clippy::too_many_arguments)]
    pub fn select<R: Rng + ?Sized>(
        &mut self,
        candidates: &[(ObjectId, Vec<f64>)],
        profiles: &[AnnotatorProfile],
        slots: Option<&[usize]>,
        answers: &AnswerSet,
        labelled: &LabelledSet,
        snapshot: &StateSnapshot,
        iteration_allowance: f64,
        k: usize,
        batch: usize,
        ablation: Ablation,
        rng: &mut R,
    ) -> Vec<Assignment> {
        if candidates.is_empty() || profiles.is_empty() || k == 0 || batch == 0 {
            return Vec::new();
        }
        let c = candidates.len();
        self.stats.total_pairs += (c * profiles.len()) as u64;

        // Annotator-level feasibility pre-filter: annotators whose cost
        // exceeds the iteration allowance, or whose free concurrency
        // slots are exhausted, can never be picked — drop them *before*
        // any embedding or forward is built. (Slot-exhausted annotators
        // used to be scored anyway, inflating object top-k sums with
        // picks the fill loop then rejected.)
        let active: Vec<&AnnotatorProfile> = profiles
            .iter()
            .filter(|p| {
                let free = slots
                    .and_then(|s| s.get(p.id.index()).copied())
                    .unwrap_or(usize::MAX);
                p.cost <= iteration_allowance && free > 0
            })
            .collect();
        self.stats.forwarded_annotators += active.len() as u64;
        self.stats.filtered_annotators += (profiles.len() - active.len()) as u64;
        if active.is_empty() {
            return Vec::new();
        }
        let w = active.len();

        // The embedding splits into an object-dependent prefix and an
        // annotator/run-level suffix (`features::OBJECT_PART_DIM`), so the
        // Q-network's first layer is evaluated once per object part and
        // once per annotator part instead of once per pair. The suffix
        // splits again into an annotator-specific block and a run-level
        // block shared by the whole pool.
        let embed_span = crowdrl_obs::span("decide.embed");
        let num_classes = candidates[0].1.len();
        debug_assert!(candidates.iter().all(|(_, p)| p.len() == num_classes));
        let object_parts: Vec<Vec<f32>> = candidates
            .iter()
            .map(|(object, probs)| {
                let object_features = ObjectFeatures::compute(*object, probs, answers);
                embed_object_part(&object_features, *object, labelled, k)
            })
            .collect();
        let run_part = embed_run_part(snapshot);
        let specifics: Vec<[f32; ANNOTATOR_SPECIFIC_DIM]> = active
            .iter()
            .map(|profile| embed_annotator_specific(profile, snapshot, num_classes))
            .collect();

        // Pair-level mask: already-answered pairs (§IV-B), from each
        // object's answer list. Cost and slot infeasibility were already
        // removed at the annotator level. `position` maps an annotator
        // index to its active position.
        let mut position = vec![None; active.iter().map(|p| p.id.index() + 1).max().unwrap_or(0)];
        for (ai, p) in active.iter().enumerate() {
            position[p.id.index()] = Some(ai);
        }
        let mut masked = vec![false; c * w];
        for (ci, (object, _)) in candidates.iter().enumerate() {
            for (annotator, _) in answers.answers_for(*object) {
                if let Some(&Some(ai)) = position.get(annotator.index()) {
                    masked[ci * w + ai] = true;
                }
            }
        }

        drop(embed_span);

        // ε-greedy: one coin per iteration decides explore-vs-exploit.
        let explore_all = match &mut self.eps {
            Some(eps) => {
                if crowdrl_obs::enabled() {
                    // Sample ε *before* the coin advances the decay clock:
                    // this is the value the decision below actually uses.
                    crowdrl_obs::gauge_step(
                        "dqn.epsilon",
                        self.dqn.train_steps() as f64,
                        eps.epsilon(),
                    );
                }
                eps.should_explore(rng)
            }
            None => false,
        };
        let random_selection = ablation.random_task_selection || explore_all;
        let random_assignment = ablation.random_task_assignment || explore_all;

        // When both rankings are random (M1+M2 or an exploration step),
        // feasibility alone decides — skip the Q-network entirely. The
        // RNG draw sequence and the outputs are identical to the scored
        // paths: masked pairs are the only exclusions either way.
        let skip_scoring = random_selection && random_assignment;

        // UCB counts are tracked per *annotator*, not per pair: a pair is
        // masked after one answer, so pair-level counts never
        // differentiate anything. What exploration must cover is the
        // annotator dimension — "have we tried routing work to w_j
        // lately?".
        let mut dense: Option<Vec<f64>> = None;
        let mut classes: Option<ClassScores> = None;
        if !skip_scoring {
            let _grid_span = crowdrl_obs::span("decide.grid");
            // One factored batched forward of every candidate against
            // annotator suffixes (specific block ++ run block).
            let forward = |blocks: &[[f32; ANNOTATOR_SPECIFIC_DIM]]| {
                let annotator_parts: Vec<Vec<f32>> = blocks
                    .iter()
                    .map(|s| {
                        let mut part = s.to_vec();
                        part.extend_from_slice(&run_part);
                        part
                    })
                    .collect();
                self.dqn.q_values_outer(&object_parts, &annotator_parts)
            };
            match self.decide {
                // Forward the distinct blocks only, rank by class (see
                // `decide`).
                DecideMode::Pruned => {
                    let (column_of, blocks) = decide::columns(&specifics);
                    let q = forward(&blocks);
                    self.stats.scored_pairs += q.len() as u64;
                    classes = Some(ClassScores::new(
                        &q,
                        blocks.len(),
                        &column_of,
                        &active,
                        self.ucb.as_ref(),
                    ));
                }
                // Every (candidate, active annotator) pair, UCB-adjusted,
                // masked.
                DecideMode::Exhaustive => {
                    let q_raw = forward(&specifics);
                    self.stats.scored_pairs += q_raw.len() as u64;
                    let mut scores = vec![f64::NEG_INFINITY; c * w];
                    for ci in 0..c {
                        for (ai, profile) in active.iter().enumerate() {
                            let idx = ci * w + ai;
                            if masked[idx] {
                                continue; // masked: Q = -inf (§IV-B)
                            }
                            let q = q_raw[idx] as f64;
                            scores[idx] = match &self.ucb {
                                Some(ucb) => ucb.score_soft(q, profile.id.index() as u64),
                                None => q,
                            };
                        }
                    }
                    dense = Some(scores);
                }
            }
        }

        let _rank_span = crowdrl_obs::span("decide.rank");
        let row = |ci: usize| ci * w..(ci + 1) * w;
        // Rank objects by top-k score sums.
        let chosen_objects: Vec<usize> = if random_selection {
            // M1 / exploration: uniform-random among candidates with at
            // least one feasible pair.
            let feasible: Vec<usize> = (0..c)
                .filter(|&ci| masked[row(ci)].iter().any(|&m| !m))
                .collect();
            sample_indices(rng, feasible.len(), batch)
                .into_iter()
                .map(|i| feasible[i])
                .collect()
        } else {
            let sums: Vec<f64> = match (&dense, &classes) {
                (Some(scores), _) => (0..c)
                    .map(|ci| topk::top_k_sum(&scores[row(ci)], k))
                    .collect(),
                (None, Some(classes)) => (0..c)
                    .map(|ci| classes.top_k_sum(ci, &masked[row(ci)], k))
                    .collect(),
                (None, None) => unreachable!("scored selection requires scores"),
            };
            topk::top_k_indices(&sums, batch)
        };

        let mut out = Vec::with_capacity(chosen_objects.len());
        let mut allowance = iteration_allowance;
        // Batch-wide concurrency bookkeeping: how many times each active
        // annotator (by position) has been picked so far this batch.
        let mut picked = vec![0usize; w];
        for ci in chosen_objects {
            // Greedy panel fill: best-scored first, at most one expert,
            // each pick charged against the iteration allowance and the
            // annotator's free concurrency slots.
            let mut panel = Panel::new(&active, slots, &picked, allowance, k);
            if random_assignment {
                // M2 / exploration: uniform-random feasible annotators.
                let feasible: Vec<usize> = (0..w).filter(|&ai| !masked[ci * w + ai]).collect();
                let ranked: Vec<usize> = sample_indices(rng, feasible.len(), feasible.len())
                    .into_iter()
                    .map(|i| feasible[i])
                    .collect();
                panel.fill_ranked(&ranked);
            } else if let Some(scores) = &dense {
                panel.fill_ranked(&topk::top_k_indices(&scores[row(ci)], w));
            } else if let Some(classes) = &classes {
                panel.fill_walk(classes.walk(ci, &masked[row(ci)]));
            }
            let Panel {
                picks,
                allowance: left,
                ..
            } = panel;
            if picks.is_empty() {
                continue;
            }
            allowance = left;
            for &ai in &picks {
                picked[ai] += 1;
            }
            let annotators: Vec<AnnotatorId> = picks.iter().map(|&ai| active[ai].id).collect();
            // Reassemble the full replay embeddings for the few chosen
            // pairs only — the concatenation is exactly `embed_with`.
            let chosen_embeddings: Vec<Vec<f32>> = picks
                .iter()
                .map(|&ai| {
                    let mut e = object_parts[ci].clone();
                    e.extend_from_slice(&specifics[ai]);
                    e.extend_from_slice(&run_part);
                    debug_assert_eq!(e.len(), FEATURE_DIM);
                    e
                })
                .collect();
            if let Some(ucb) = &mut self.ucb {
                for a in &annotators {
                    ucb.record(a.index() as u64);
                }
            }
            out.push(Assignment {
                object: candidates[ci].0,
                annotators,
                embeddings: chosen_embeddings,
            });
        }
        out
    }

    /// Store transitions for the executed assignments with one reward per
    /// assignment (`rewards` parallel to `assignments`). Sharper
    /// per-object credit makes "this expert answer made this object's label
    /// confident" learnable far faster than a single batch-wide reward.
    pub fn remember(
        &mut self,
        assignments: &[Assignment],
        rewards: &[f64],
        next_candidates: &[Vec<f32>],
        terminal: bool,
    ) {
        debug_assert_eq!(assignments.len(), rewards.len());
        // One shared copy of the successor candidate set for the whole
        // batch; each transition takes a refcount, not a deep clone.
        let next_candidates: std::sync::Arc<[Vec<f32>]> = next_candidates.to_vec().into();
        for (assignment, &reward) in assignments.iter().zip(rewards) {
            for embedding in &assignment.embeddings {
                self.dqn.remember(Transition {
                    state_action: embedding.clone(),
                    reward: reward as f32,
                    next_candidates: next_candidates.clone(),
                    terminal,
                });
            }
        }
    }

    /// Run `steps` minibatch TD updates; returns the mean loss if any ran.
    pub fn train<R: Rng + ?Sized>(&mut self, steps: usize, rng: &mut R) -> Option<f32> {
        let mut total = 0.0;
        let mut ran = 0;
        for _ in 0..steps {
            if let Some(l) = self.dqn.train_step(rng) {
                total += l;
                ran += 1;
            }
        }
        (ran > 0).then(|| total / ran as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;
    use crowdrl_types::{AnnotatorKind, Answer, ClassId};

    fn profiles(workers: usize, experts: usize) -> Vec<AnnotatorProfile> {
        let mut out = Vec::new();
        for i in 0..workers + experts {
            let expert = i >= workers;
            out.push(
                AnnotatorProfile::new(
                    AnnotatorId(i),
                    if expert {
                        AnnotatorKind::Expert
                    } else {
                        AnnotatorKind::Worker
                    },
                    if expert { 10.0 } else { 1.0 },
                )
                .unwrap(),
            );
        }
        out
    }

    fn snapshot(w: usize) -> StateSnapshot {
        StateSnapshot {
            qualities: vec![0.7; w],
            annotator_load: vec![0; w],
            budget_spent_fraction: 0.0,
            labelled_fraction: 0.0,
            enriched_fraction: 0.0,
            max_cost: 10.0,
            phi_trust: 0.0,
        }
    }

    fn agent(seed: u64) -> SelectionAgent {
        agent_with(seed, DecideMode::default())
    }

    fn agent_with(seed: u64, decide: DecideMode) -> SelectionAgent {
        let mut rng = seeded(seed);
        SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::Ucb { scale: 0.1 },
            decide,
            None,
            &mut rng,
        )
        .unwrap()
    }

    fn candidates(n: usize) -> Vec<(ObjectId, Vec<f64>)> {
        (0..n).map(|i| (ObjectId(i), vec![0.6, 0.4])).collect()
    }

    #[test]
    fn selects_requested_batch_and_k() {
        let mut agent = agent(1);
        let profiles = profiles(3, 1);
        let answers = AnswerSet::new(10);
        let labelled = LabelledSet::new(10);
        let mut rng = seeded(2);
        let picks = agent.select(
            &candidates(10),
            &profiles,
            None,
            &answers,
            &labelled,
            &snapshot(4),
            1000.0,
            3,
            2,
            Ablation::default(),
            &mut rng,
        );
        assert_eq!(picks.len(), 2);
        for p in &picks {
            assert_eq!(p.annotators.len(), 3);
            assert_eq!(p.embeddings.len(), 3);
            assert_eq!(p.embeddings[0].len(), FEATURE_DIM);
            // No duplicate annotators within an assignment.
            let mut a = p.annotators.clone();
            a.sort();
            a.dedup();
            assert_eq!(a.len(), 3);
        }
        // Distinct objects.
        assert_ne!(picks[0].object, picks[1].object);
    }

    #[test]
    fn masks_already_answered_pairs() {
        let mut agent = agent(3);
        let profiles = profiles(2, 0);
        let mut answers = AnswerSet::new(2);
        // Object 0 already answered by both annotators: unselectable.
        for a in 0..2 {
            answers
                .record(Answer {
                    object: ObjectId(0),
                    annotator: AnnotatorId(a),
                    label: ClassId(0),
                })
                .unwrap();
        }
        let labelled = LabelledSet::new(2);
        let mut rng = seeded(4);
        let picks = agent.select(
            &candidates(2),
            &profiles,
            None,
            &answers,
            &labelled,
            &snapshot(2),
            1000.0,
            2,
            2,
            Ablation::default(),
            &mut rng,
        );
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].object, ObjectId(1));
    }

    #[test]
    fn masks_unaffordable_annotators() {
        let mut agent = agent(5);
        let profiles = profiles(1, 1); // worker cost 1, expert cost 10
        let answers = AnswerSet::new(3);
        let labelled = LabelledSet::new(3);
        let mut rng = seeded(6);
        let picks = agent.select(
            &candidates(3),
            &profiles,
            None,
            &answers,
            &labelled,
            &snapshot(2),
            5.0, // can't afford the expert
            2,
            1,
            Ablation::default(),
            &mut rng,
        );
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].annotators, vec![AnnotatorId(0)]);
    }

    #[test]
    fn returns_empty_when_nothing_feasible() {
        let mut agent = agent(7);
        let profiles = profiles(2, 0);
        let answers = AnswerSet::new(1);
        let labelled = LabelledSet::new(1);
        let mut rng = seeded(8);
        let picks = agent.select(
            &candidates(1),
            &profiles,
            None,
            &answers,
            &labelled,
            &snapshot(2),
            0.5, // below every cost
            2,
            1,
            Ablation::default(),
            &mut rng,
        );
        assert!(picks.is_empty());
        assert!(agent
            .select(
                &[],
                &profiles,
                None,
                &answers,
                &labelled,
                &snapshot(2),
                10.0,
                2,
                1,
                Ablation::default(),
                &mut rng
            )
            .is_empty());
    }

    #[test]
    fn random_ablations_still_respect_masks() {
        let mut agent = agent(9);
        let profiles = profiles(1, 1);
        let answers = AnswerSet::new(4);
        let labelled = LabelledSet::new(4);
        let mut rng = seeded(10);
        let ablation = Ablation {
            random_task_selection: true,
            random_task_assignment: true,
        };
        for _ in 0..20 {
            let picks = agent.select(
                &candidates(4),
                &profiles,
                None,
                &answers,
                &labelled,
                &snapshot(2),
                5.0, // expert unaffordable
                1,
                2,
                ablation,
                &mut rng,
            );
            for p in &picks {
                assert_eq!(
                    p.annotators,
                    vec![AnnotatorId(0)],
                    "must avoid unaffordable expert"
                );
            }
        }
    }

    #[test]
    fn remember_and_train_flow() {
        let mut rng = seeded(11);
        let config = DqnConfig {
            min_replay: 4,
            batch_size: 4,
            ..Default::default()
        };
        let mut agent = SelectionAgent::new(
            config,
            &Exploration::Ucb { scale: 0.1 },
            DecideMode::default(),
            None,
            &mut rng,
        )
        .unwrap();
        let assignment = Assignment {
            object: ObjectId(0),
            annotators: vec![AnnotatorId(0), AnnotatorId(1)],
            embeddings: vec![vec![0.1; FEATURE_DIM], vec![0.2; FEATURE_DIM]],
        };
        for _ in 0..4 {
            agent.remember(std::slice::from_ref(&assignment), &[0.5], &[], true);
        }
        assert!(agent.train(3, &mut rng).is_some());
        assert!(agent.dqn().train_steps() >= 1);
    }

    #[test]
    fn export_restore_roundtrips_learning_state() {
        let mut rng = seeded(21);
        let config = DqnConfig {
            min_replay: 4,
            batch_size: 4,
            ..Default::default()
        };
        let mut agent = SelectionAgent::new(
            config.clone(),
            &Exploration::Ucb { scale: 0.1 },
            DecideMode::default(),
            None,
            &mut rng,
        )
        .unwrap();
        let assignment = Assignment {
            object: ObjectId(0),
            annotators: vec![AnnotatorId(0)],
            embeddings: vec![vec![0.3; FEATURE_DIM]],
        };
        for _ in 0..6 {
            agent.remember(std::slice::from_ref(&assignment), &[1.0], &[], true);
        }
        agent.train(2, &mut rng);
        let state = agent.export_state();
        let mut other = SelectionAgent::new(
            config,
            &Exploration::Ucb { scale: 0.1 },
            DecideMode::default(),
            None,
            &mut rng,
        )
        .unwrap();
        other.restore_state(state).unwrap();
        let probe = vec![0.5; FEATURE_DIM];
        assert_eq!(agent.dqn().q_value(&probe), other.dqn().q_value(&probe));
        assert_eq!(agent.dqn().train_steps(), other.dqn().train_steps());
        // Mismatched exploration kinds are rejected.
        let mut eps_agent = SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::EpsilonGreedy {
                start: 0.5,
                end: 0.1,
                decay_steps: 100,
            },
            DecideMode::default(),
            None,
            &mut rng,
        )
        .unwrap();
        assert!(eps_agent.restore_state(agent.export_state()).is_err());
    }

    #[test]
    fn pretrained_params_load() {
        let mut rng = seeded(12);
        let donor = SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::Ucb { scale: 0.0 },
            DecideMode::default(),
            None,
            &mut rng,
        )
        .unwrap();
        let params = donor.dqn().export_params();
        let recipient = SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::Ucb { scale: 0.0 },
            DecideMode::default(),
            Some(&params),
            &mut rng,
        )
        .unwrap();
        let probe = vec![0.3; FEATURE_DIM];
        assert!((donor.dqn().q_value(&probe) - recipient.dqn().q_value(&probe)).abs() < 1e-6);
    }

    #[test]
    fn pruned_and_exhaustive_selections_are_bit_identical() {
        // 20 workers and 3 experts at one quality collapse to two
        // columns, so the pruned twin scores a fraction of the pairs.
        for seed in [31u64, 32, 33] {
            let mut pruned = agent_with(seed, DecideMode::Pruned);
            let mut exhaustive = agent_with(seed, DecideMode::Exhaustive);
            let profiles = profiles(20, 3);
            let mut answers = AnswerSet::new(12);
            answers
                .record(Answer {
                    object: ObjectId(0),
                    annotator: AnnotatorId(2),
                    label: ClassId(0),
                })
                .unwrap();
            let labelled = LabelledSet::new(12);
            // Annotator 1 exhausted (must be pre-filtered), 4 with one
            // slot left, the rest unbounded.
            let slots = [usize::MAX, 0, usize::MAX, usize::MAX, 1];
            for round in 0..4 {
                let mut rng_a = seeded(seed * 100 + round);
                let mut rng_b = seeded(seed * 100 + round);
                let a = pruned.select(
                    &candidates(12),
                    &profiles,
                    Some(&slots),
                    &answers,
                    &labelled,
                    &snapshot(23),
                    60.0,
                    3,
                    4,
                    Ablation::default(),
                    &mut rng_a,
                );
                let b = exhaustive.select(
                    &candidates(12),
                    &profiles,
                    Some(&slots),
                    &answers,
                    &labelled,
                    &snapshot(23),
                    60.0,
                    3,
                    4,
                    Ablation::default(),
                    &mut rng_b,
                );
                assert_eq!(a, b, "seed {seed} round {round}");
                assert_eq!(rng_a.state(), rng_b.state(), "RNG streams diverged");
            }
            let stats = pruned.decide_stats();
            assert!(
                stats.scored_pairs < stats.total_pairs,
                "pruning never engaged: {stats:?}"
            );
        }
    }

    #[test]
    fn prefiltered_annotators_are_never_forwarded() {
        // Slot-exhausted and over-allowance annotators must be dropped
        // *before* embedding/scoring, not merely skipped at panel fill.
        let mut agent = agent(41);
        let profiles = profiles(4, 1); // worker cost 1, expert cost 10
        let answers = AnswerSet::new(6);
        let labelled = LabelledSet::new(6);
        let slots = [0, 2];
        let mut rng = seeded(42);
        let picks = agent.select(
            &candidates(6),
            &profiles,
            Some(&slots),
            &answers,
            &labelled,
            &snapshot(5),
            5.0, // expert (cost 10) unaffordable
            2,
            3,
            Ablation::default(),
            &mut rng,
        );
        let stats = agent.decide_stats();
        // Pool of 5: annotator 0 (no slots) and the expert (unaffordable)
        // are filtered, three workers forwarded.
        assert_eq!(stats.forwarded_annotators, 3);
        assert_eq!(stats.filtered_annotators, 2);
        assert_eq!(stats.total_pairs, 6 * 5);
        for p in &picks {
            assert!(!p.annotators.contains(&AnnotatorId(0)));
            assert!(!p.annotators.contains(&AnnotatorId(4)));
        }
        // Exhausting annotator 1's two slots across the batch is still
        // enforced by the fill loop.
        let uses = picks
            .iter()
            .flat_map(|p| &p.annotators)
            .filter(|a| **a == AnnotatorId(1))
            .count();
        assert!(uses <= 2);
    }

    #[test]
    fn nan_q_values_fail_the_same_way_in_both_modes() {
        // A parameter vector with a NaN output bias makes every Q-value
        // NaN; both modes must reject it as `topk` does, rather than the
        // pruned path dropping the pairs.
        let mut rng = seeded(61);
        let mut params = agent(61).dqn().export_params();
        *params.last_mut().unwrap() = f32::NAN;
        for mode in [DecideMode::Pruned, DecideMode::Exhaustive] {
            let mut agent = SelectionAgent::new(
                DqnConfig::default(),
                &Exploration::Ucb { scale: 0.1 },
                mode,
                Some(&params),
                &mut rng,
            )
            .unwrap();
            let profiles = profiles(6, 1);
            let answers = AnswerSet::new(4);
            let labelled = LabelledSet::new(4);
            let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                agent.select(
                    &candidates(4),
                    &profiles,
                    None,
                    &answers,
                    &labelled,
                    &snapshot(7),
                    100.0,
                    2,
                    2,
                    Ablation::default(),
                    &mut seeded(62),
                )
            }))
            .expect_err("a NaN Q-value must not be selected around");
            let message = failure
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| failure.downcast_ref::<String>().cloned());
            assert_eq!(message.as_deref(), Some("NaN score in top-k"), "{mode:?}");
        }
    }
}
