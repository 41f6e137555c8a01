//! Deep Q-Network over state-action feature vectors.
//!
//! The paper's Q-function `Q(S(t), A(t); θ)` (Eq. 4) is approximated by an
//! MLP that maps a fixed-length embedding of (state, action) to a scalar
//! Q-value. Training minimizes the TD loss `L(θ)` (§IV-A) on minibatches
//! from the experience pool, against a periodically-synced *target*
//! network `θ⁻` (the classical DQN stabilizer):
//!
//! ```text
//! target = r + γ · max_{a'} Q(s', a'; θ⁻)        (0 if terminal)
//! L(θ)   = Huber(Q(s, a; θ) − target)
//! ```

use crate::replay::{ReplayBuffer, Transition};
use crowdrl_linalg::{Matrix, NumericMode};
use crowdrl_nn::{loss, Activation, Adam, Network};
use crowdrl_obs as obs;
use crowdrl_types::{Error, Result};
use rand::Rng;

/// DQN hyperparameters.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Width of the state-action feature embedding.
    pub input_dim: usize,
    /// Hidden-layer sizes of the Q-network.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Discount factor γ ∈ (0, 1].
    pub gamma: f32,
    /// Minibatch size for replay updates.
    pub batch_size: usize,
    /// Replay-pool capacity.
    pub replay_capacity: usize,
    /// Minimum pool size before training starts.
    pub min_replay: usize,
    /// Hard-sync the target network every this-many train steps.
    pub target_sync_every: usize,
    /// Huber loss threshold.
    pub huber_delta: f32,
    /// Per-tensor gradient clip (infinity norm).
    pub grad_clip: f32,
    /// Double-DQN targets (van Hasselt et al., the paper's \[38\], which
    /// §IV-B notes "can also be integrated into our framework"): the
    /// *online* network selects the best successor action and the *target*
    /// network evaluates it, removing the max-operator's overestimation
    /// bias. `false` uses classical DQN targets.
    pub double_dqn: bool,
    /// Inert: [`NumericMode`] has only the bit-pinned `Reference` mode and
    /// nothing reads this field. It stays because the run config's
    /// fingerprint hashes it, so removing it would change the fingerprint
    /// every existing checkpoint was cut under.
    pub numeric: NumericMode,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            input_dim: 16,
            hidden: vec![64, 32],
            learning_rate: 1e-3,
            gamma: 0.99,
            batch_size: 32,
            replay_capacity: 10_000,
            min_replay: 64,
            target_sync_every: 100,
            huber_delta: 1.0,
            grad_clip: 5.0,
            double_dqn: false,
            numeric: NumericMode::default(),
        }
    }
}

impl DqnConfig {
    /// Validate hyperparameter domains. Every float must be finite, so a
    /// NaN fails here rather than deep inside a training step.
    pub fn validate(&self) -> Result<()> {
        if self.input_dim == 0 {
            return Err(Error::InvalidParameter("input_dim must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.gamma) || self.gamma == 0.0 {
            return Err(Error::InvalidParameter("gamma must be in (0,1]".into()));
        }
        if self.batch_size == 0 || self.replay_capacity == 0 || self.target_sync_every == 0 {
            return Err(Error::InvalidParameter(
                "batch_size, replay_capacity and target_sync_every must be positive".into(),
            ));
        }
        let positive = |x: f32| x > 0.0 && x.is_finite();
        if !(positive(self.learning_rate) && positive(self.huber_delta) && positive(self.grad_clip))
        {
            return Err(Error::InvalidParameter(
                "learning_rate, huber_delta and grad_clip must be finite and positive".into(),
            ));
        }
        if self.hidden.contains(&0) {
            return Err(Error::InvalidParameter(
                "hidden sizes must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// A DQN agent: online network, target network, replay pool.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    config: DqnConfig,
    online: Network,
    target: Network,
    replay: ReplayBuffer,
    opt: Adam,
    train_steps: usize,
    /// Bumped whenever the *online* network's parameters change (gradient
    /// step, parameter import, snapshot restore). External caches keyed on
    /// this generation can never serve activations from stale weights.
    params_generation: u64,
    /// Bumped whenever the *target* network's parameters change (hard
    /// sync, parameter import, snapshot restore). Keys the per-slot
    /// bootstrap cache below.
    target_generation: u64,
    /// Per-replay-slot cached TD bootstrap `max_a' Q(s', a'; θ⁻)`, tagged
    /// with the target generation it was computed under. Classical-DQN
    /// bootstraps depend only on the stored successor candidates and the
    /// target parameters — both fixed between hard syncs — so a cached
    /// value is *bitwise* the value a fresh forward would produce (row
    /// independence of the forward kernels). Entries are invalidated by
    /// slot overwrite and by any target-generation bump; double-DQN
    /// bypasses the cache entirely (its argmax tracks the online network,
    /// which moves every step). This removes the dominant cost of
    /// `train_step`: the stacked successor forward, which profiles ~5-10×
    /// larger than the minibatch forward+backward itself.
    bootstrap_cache: Vec<Option<(u64, f32)>>,
    /// Reused minibatch buffers for [`train_step`](DqnAgent::train_step) —
    /// pure scratch (fully rewritten every step), excluded from snapshots.
    scratch_inputs: Option<Matrix>,
    scratch_targets: Option<Matrix>,
    scratch_bootstraps: Vec<f32>,
}

/// Reuse `slot` as an `rows x cols` scratch matrix when the shape already
/// matches; otherwise reallocate. Contents are unspecified on return — the
/// caller overwrites every element it reads.
fn ensure_shape(slot: &mut Option<Matrix>, rows: usize, cols: usize) -> &mut Matrix {
    match slot {
        Some(m) if m.rows() == rows && m.cols() == cols => {}
        _ => *slot = Some(Matrix::zeros(rows, cols)),
    }
    slot.as_mut().expect("scratch just ensured")
}

impl DqnAgent {
    /// Create an agent with freshly-initialized networks.
    pub fn new<R: Rng + ?Sized>(config: DqnConfig, rng: &mut R) -> Result<Self> {
        config.validate()?;
        let mut sizes = vec![config.input_dim];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(1);
        let online = Network::mlp(&sizes, Activation::Relu, rng);
        let mut target = online.clone();
        target.copy_params_from(&online);
        let replay = ReplayBuffer::new(config.replay_capacity);
        let opt = Adam::new(config.learning_rate);
        Ok(Self {
            config,
            online,
            target,
            replay,
            opt,
            train_steps: 0,
            params_generation: 0,
            target_generation: 0,
            bootstrap_cache: Vec::new(),
            scratch_inputs: None,
            scratch_targets: None,
            scratch_bootstraps: Vec::new(),
        })
    }

    /// The configuration (read-only).
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Number of gradient steps taken so far.
    pub fn train_steps(&self) -> usize {
        self.train_steps
    }

    /// Current replay-pool size.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Generation counter of the online network's parameters — bumped on
    /// every gradient step, [`import_params`](DqnAgent::import_params) and
    /// [`restore`](DqnAgent::restore). Cache activation partials keyed on
    /// this value.
    pub fn params_generation(&self) -> u64 {
        self.params_generation
    }

    /// The online network (read-only).
    pub fn online_network(&self) -> &Network {
        &self.online
    }

    /// Q-value of one state-action embedding under the *online* network.
    pub fn q_value(&self, state_action: &[f32]) -> f32 {
        debug_assert_eq!(state_action.len(), self.config.input_dim);
        let x = Matrix::from_vec(1, state_action.len(), state_action.to_vec());
        self.online.forward_inference(&x).get(0, 0)
    }

    /// Q-values for a batch of embeddings under the online network.
    pub fn q_values(&self, state_actions: &[Vec<f32>]) -> Vec<f32> {
        if state_actions.is_empty() {
            return Vec::new();
        }
        let x = stack(state_actions, self.config.input_dim);
        let out = self.online.forward_inference(&x);
        (0..out.rows()).map(|i| out.get(i, 0)).collect()
    }

    /// Q-values for every pair of partial embeddings, where the full
    /// state-action vector of pair `(i, j)` is `concat(left[i], right[j])`.
    ///
    /// Returns pairs in row-major order: `result[i * right.len() + j]`.
    /// One factored forward (per-part first-layer partials summed per
    /// pair, then a single batched pass through the remaining layers)
    /// replaces `left.len() * right.len()` per-pair forwards; values
    /// match [`DqnAgent::q_value`] on the concatenated vector up to f32
    /// rounding (see `Network::forward_inference_outer`).
    pub fn q_values_outer(&self, left: &[Vec<f32>], right: &[Vec<f32>]) -> Vec<f32> {
        if left.is_empty() || right.is_empty() {
            return Vec::new();
        }
        let (dl, dr) = (left[0].len(), right[0].len());
        debug_assert_eq!(dl + dr, self.config.input_dim);
        let out = self
            .online
            .forward_inference_outer(&stack(left, dl), &stack(right, dr));
        (0..out.rows()).map(|i| out.get(i, 0)).collect()
    }

    /// Store a transition in the replay pool.
    pub fn remember(&mut self, t: Transition) {
        debug_assert_eq!(t.state_action.len(), self.config.input_dim);
        let slot = self.replay.push(t);
        if let Some(entry) = self.bootstrap_cache.get_mut(slot) {
            *entry = None;
        }
    }

    /// One minibatch TD update. Returns the Huber loss, or `None` when the
    /// pool is still below `min_replay`. Syncs the target network every
    /// `target_sync_every` steps.
    pub fn train_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f32> {
        if self.replay.len() < self.config.min_replay.max(1) {
            return None;
        }
        let batch = self.replay.sample_slots(self.config.batch_size, rng);
        let n = batch.len();
        let inputs = ensure_shape(&mut self.scratch_inputs, n, self.config.input_dim);
        for (i, (_, t)) in batch.iter().enumerate() {
            inputs.row_mut(i).copy_from_slice(&t.state_action);
        }

        // TD bootstraps. Classical DQN: per-slot cache keyed on the target
        // generation — a hit is bitwise the value a fresh forward would
        // produce (forwards are row-independent), so only cache misses are
        // stacked into one target forward. Double DQN: the online argmax
        // moves every gradient step, so every transition is recomputed via
        // the original stacked path.
        self.scratch_bootstraps.clear();
        self.scratch_bootstraps.resize(n, 0.0);
        let bootstraps = &mut self.scratch_bootstraps;
        if self.config.double_dqn {
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0usize);
            let mut successors: Vec<&[f32]> = Vec::new();
            for (_, t) in &batch {
                if !t.terminal {
                    successors.extend(t.next_candidates.iter().map(Vec::as_slice));
                }
                offsets.push(successors.len());
            }
            let (target_q, online_q) = if successors.is_empty() {
                (Vec::new(), Vec::new())
            } else {
                let stacked = stack_refs(&successors, self.config.input_dim);
                (
                    column0(&self.target.forward_inference(&stacked)),
                    column0(&self.online.forward_inference(&stacked)),
                )
            };
            for (i, _) in batch.iter().enumerate() {
                let (s, e) = (offsets[i], offsets[i + 1]);
                if s == e {
                    continue; // terminal, or no successor candidates
                }
                // Argmax under the online network, value under the target
                // network. `max_by` keeps the last maximum, matching the
                // per-transition scan.
                let best = online_q[s..e]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0);
                bootstraps[i] = target_q[s + best];
            }
        } else {
            let generation = self.target_generation;
            let mut misses: Vec<usize> = Vec::new(); // positions in `batch`
            let mut miss_group: Vec<usize> = Vec::new(); // parallel to `misses`
                                                         // Transitions remembered from one assignment batch share one
                                                         // `Arc` of successor candidates, and the bootstrap is a pure
                                                         // function of that candidate set (row-independent forwards, max
                                                         // folded in candidate order) — so misses are grouped by Arc
                                                         // identity and each distinct set is forwarded once. After a
                                                         // target sync invalidates the whole cache this collapses the
                                                         // recompute storm by the sharing factor, without changing any
                                                         // bit of any bootstrap.
            let mut group_ptrs: Vec<*const Vec<f32>> = Vec::new();
            let mut offsets: Vec<usize> = Vec::new(); // per group
            let mut successors: Vec<&[f32]> = Vec::new();
            let mut hits = 0usize;
            for (i, (slot, t)) in batch.iter().enumerate() {
                if let Some(Some((cached_gen, value))) = self.bootstrap_cache.get(*slot) {
                    if *cached_gen == generation {
                        bootstraps[i] = *value;
                        hits += 1;
                        continue;
                    }
                }
                if t.terminal || t.next_candidates.is_empty() {
                    // Bootstrap is identically 0 — cache that too so the
                    // slot never re-enters the miss scan.
                    if self.bootstrap_cache.len() <= *slot {
                        self.bootstrap_cache.resize(*slot + 1, None);
                    }
                    self.bootstrap_cache[*slot] = Some((generation, 0.0));
                    continue;
                }
                let ptr = t.next_candidates.as_ptr();
                let group = group_ptrs.iter().position(|&p| std::ptr::eq(p, ptr));
                misses.push(i);
                miss_group.push(group.unwrap_or_else(|| {
                    group_ptrs.push(ptr);
                    offsets.push(successors.len());
                    successors.extend(t.next_candidates.iter().map(Vec::as_slice));
                    group_ptrs.len() - 1
                }));
            }
            offsets.push(successors.len());
            if !successors.is_empty() {
                let stacked = stack_refs(&successors, self.config.input_dim);
                let target_q = column0(&self.target.forward_inference(&stacked));
                let group_values: Vec<f32> = (0..group_ptrs.len())
                    .map(|g| {
                        target_q[offsets[g]..offsets[g + 1]]
                            .iter()
                            .copied()
                            .fold(f32::NEG_INFINITY, f32::max)
                    })
                    .collect();
                for (m, &i) in misses.iter().enumerate() {
                    let value = group_values[miss_group[m]];
                    bootstraps[i] = value;
                    let slot = batch[i].0;
                    if self.bootstrap_cache.len() <= slot {
                        self.bootstrap_cache.resize(slot + 1, None);
                    }
                    self.bootstrap_cache[slot] = Some((generation, value));
                }
            }
            if obs::enabled() {
                obs::counter_add("dqn.bootstrap.cache_hits", hits as u64);
                obs::counter_add("dqn.bootstrap.cache_misses", (n - hits) as u64);
            }
        }

        let targets = ensure_shape(&mut self.scratch_targets, n, 1);
        for (i, (_, t)) in batch.iter().enumerate() {
            targets.set(i, 0, t.reward + self.config.gamma * bootstraps[i]);
        }

        let fwd_span = obs::span("dqn.fwd");
        self.online.zero_grad();
        let pred = self.online.forward(&*inputs);
        let (l, d) = loss::huber(&pred, &*targets, self.config.huber_delta);
        drop(fwd_span);
        let bwd_span = obs::span("dqn.bwd");
        self.online.backward(&d);
        drop(bwd_span);
        let step_span = obs::span("dqn.step");
        self.online.step(&mut self.opt, Some(self.config.grad_clip));
        drop(step_span);
        self.train_steps += 1;
        self.params_generation += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target.copy_params_from(&self.online);
            self.target_generation += 1;
        }
        if obs::enabled() {
            // Pure reads into the trace: loss, predicted-Q spread, and
            // replay size, keyed by the training-step clock.
            let step = self.train_steps as f64;
            let mut q_sum = 0.0f64;
            let mut q_max = f64::NEG_INFINITY;
            for i in 0..pred.rows() {
                let q = pred.get(i, 0) as f64;
                q_sum += q;
                q_max = q_max.max(q);
            }
            obs::gauge_step("dqn.loss", step, l as f64);
            obs::gauge_step("dqn.q_mean", step, q_sum / n as f64);
            obs::gauge_step("dqn.q_max", step, q_max);
            obs::gauge_step("dqn.replay_size", step, self.replay.len() as f64);
        }
        Some(l)
    }

    /// Serialize the online network's parameters (for cross-training: train
    /// offline on other datasets, load here — §VI-A.4).
    pub fn export_params(&self) -> Vec<f32> {
        self.online.flatten_params()
    }

    /// Load parameters into both online and target networks.
    pub fn import_params(&mut self, params: &[f32]) -> Result<()> {
        if params.len() != self.online.param_count() {
            return Err(Error::DimensionMismatch {
                expected: self.online.param_count(),
                actual: params.len(),
                context: "DQN parameter import".into(),
            });
        }
        self.online.load_params(params);
        self.target.load_params(params);
        self.params_generation += 1;
        self.target_generation += 1;
        Ok(())
    }

    /// Capture the full training state — online and target weights, Adam
    /// moments, replay contents, step count — for checkpointing.
    pub fn snapshot(&self) -> DqnSnapshot {
        let (buf, head) = self.replay.contents();
        DqnSnapshot {
            online: self.online.flatten_params(),
            target: self.target.flatten_params(),
            opt_state: self.opt.state().to_vec(),
            replay: buf.to_vec(),
            replay_head: head,
            replay_pushed: self.replay.total_pushed(),
            train_steps: self.train_steps,
        }
    }

    /// Restore a state captured by [`DqnAgent::snapshot`] into an agent
    /// constructed with the same config. Training after a restore continues
    /// bit-identically to never having stopped.
    pub fn restore(&mut self, snap: DqnSnapshot) -> Result<()> {
        if snap.online.len() != self.online.param_count()
            || snap.target.len() != self.online.param_count()
        {
            return Err(Error::DimensionMismatch {
                expected: self.online.param_count(),
                actual: snap.online.len(),
                context: "DQN snapshot params".into(),
            });
        }
        if snap.replay.len() > self.config.replay_capacity {
            return Err(Error::InvalidParameter(format!(
                "restored replay ({}) exceeds capacity ({})",
                snap.replay.len(),
                self.config.replay_capacity
            )));
        }
        if snap.replay_head >= self.config.replay_capacity {
            return Err(Error::InvalidParameter(format!(
                "restored replay head ({}) is outside capacity ({})",
                snap.replay_head, self.config.replay_capacity
            )));
        }
        // Training stacks every embedding into `input_dim`-wide rows.
        let dim = self.config.input_dim;
        if let Some(width) = snap
            .replay
            .iter()
            .flat_map(|t| std::iter::once(&t.state_action).chain(t.next_candidates.iter()))
            .map(Vec::len)
            .find(|&width| width != dim)
        {
            return Err(Error::DimensionMismatch {
                expected: dim,
                actual: width,
                context: "DQN snapshot replay embedding".into(),
            });
        }
        self.online.load_params(&snap.online);
        self.target.load_params(&snap.target);
        self.opt.restore_state(snap.opt_state);
        self.replay = ReplayBuffer::restore(
            self.config.replay_capacity,
            snap.replay,
            snap.replay_head,
            snap.replay_pushed,
        );
        self.train_steps = snap.train_steps;
        self.params_generation += 1;
        // The restored target weights and replay slots need not match
        // whatever this agent held before: discard every cached bootstrap.
        // (A resumed run recomputes values bitwise-identical to the warm
        // cache an uninterrupted run carries, so resume stays bit-exact.)
        self.target_generation += 1;
        self.bootstrap_cache.clear();
        Ok(())
    }
}

/// Serializable training state of a [`DqnAgent`].
#[derive(Debug, Clone)]
pub struct DqnSnapshot {
    /// Online-network parameters.
    pub online: Vec<f32>,
    /// Target-network parameters.
    pub target: Vec<f32>,
    /// Adam per-slot (first moment, second moment, step count).
    pub opt_state: Vec<(Vec<f32>, Vec<f32>, u64)>,
    /// Replay-pool transitions in physical (ring) order.
    pub replay: Vec<Transition>,
    /// Ring write head.
    pub replay_head: usize,
    /// Total transitions ever pushed.
    pub replay_pushed: usize,
    /// Gradient steps taken.
    pub train_steps: usize,
}

fn stack(rows: &[Vec<f32>], dim: usize) -> Matrix {
    let mut m = Matrix::zeros(rows.len(), dim);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.len(), dim, "embedding width mismatch");
        m.row_mut(i).copy_from_slice(r);
    }
    m
}

fn stack_refs(rows: &[&[f32]], dim: usize) -> Matrix {
    let mut m = Matrix::zeros(rows.len(), dim);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.len(), dim, "embedding width mismatch");
        m.row_mut(i).copy_from_slice(r);
    }
    m
}

fn column0(m: &Matrix) -> Vec<f32> {
    (0..m.rows()).map(|i| m.get(i, 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;

    fn small_config() -> DqnConfig {
        DqnConfig {
            input_dim: 2,
            hidden: vec![16],
            learning_rate: 5e-3,
            gamma: 0.9,
            batch_size: 16,
            replay_capacity: 500,
            min_replay: 16,
            target_sync_every: 20,
            ..Default::default()
        }
    }

    #[test]
    fn config_validation() {
        let mut rng = seeded(1);
        for mutate in [
            |c: &mut DqnConfig| c.input_dim = 0,
            |c: &mut DqnConfig| c.gamma = 0.0,
            |c: &mut DqnConfig| c.gamma = 1.5,
            |c: &mut DqnConfig| c.batch_size = 0,
            |c: &mut DqnConfig| c.learning_rate = -1.0,
            |c: &mut DqnConfig| c.hidden = vec![0],
            |c: &mut DqnConfig| c.target_sync_every = 0,
        ] {
            let mut c = small_config();
            mutate(&mut c);
            assert!(DqnAgent::new(c, &mut rng).is_err());
        }
    }

    #[test]
    fn q_values_outer_matches_per_pair_q_value() {
        let mut rng = seeded(12);
        let config = DqnConfig {
            input_dim: 5,
            hidden: vec![8, 4],
            ..Default::default()
        };
        let agent = DqnAgent::new(config, &mut rng).unwrap();
        let left = vec![vec![0.3, -0.1, 0.8], vec![1.0, 0.2, -0.5]];
        let right = vec![vec![0.7, -0.3], vec![0.0, 0.9], vec![-0.4, 0.1]];
        let outer = agent.q_values_outer(&left, &right);
        assert_eq!(outer.len(), left.len() * right.len());
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                let mut full = l.clone();
                full.extend_from_slice(r);
                let want = agent.q_value(&full);
                let got = outer[i * right.len() + j];
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "pair ({i},{j}): {got} vs {want}"
                );
            }
        }
        assert!(agent.q_values_outer(&[], &right).is_empty());
        assert!(agent.q_values_outer(&left, &[]).is_empty());
    }

    #[test]
    fn no_training_below_min_replay() {
        let mut rng = seeded(2);
        let mut agent = DqnAgent::new(small_config(), &mut rng).unwrap();
        for _ in 0..10 {
            agent.remember(Transition {
                state_action: vec![0.0, 0.0],
                reward: 1.0,
                next_candidates: vec![].into(),
                terminal: true,
            });
        }
        assert!(agent.train_step(&mut rng).is_none());
        assert_eq!(agent.train_steps(), 0);
    }

    /// Contextual bandit: reward = 1 for action embedding [1,0], 0 for
    /// [0,1]. After training, Q([1,0]) should clearly exceed Q([0,1]).
    #[test]
    fn learns_bandit_preferences() {
        let mut rng = seeded(3);
        let mut agent = DqnAgent::new(small_config(), &mut rng).unwrap();
        for _ in 0..200 {
            agent.remember(Transition {
                state_action: vec![1.0, 0.0],
                reward: 1.0,
                next_candidates: vec![].into(),
                terminal: true,
            });
            agent.remember(Transition {
                state_action: vec![0.0, 1.0],
                reward: 0.0,
                next_candidates: vec![].into(),
                terminal: true,
            });
        }
        for _ in 0..400 {
            agent.train_step(&mut rng);
        }
        let good = agent.q_value(&[1.0, 0.0]);
        let bad = agent.q_value(&[0.0, 1.0]);
        assert!(good > bad + 0.5, "good={good} bad={bad}");
        assert!(
            (good - 1.0).abs() < 0.3,
            "good should approach 1, got {good}"
        );
    }

    /// Two-step chain: action A leads to a state where a further action
    /// earns 1; action B ends with 0. With γ=0.9, Q(A) → 0.9.
    #[test]
    fn bootstraps_through_next_candidates() {
        let mut rng = seeded(4);
        let mut agent = DqnAgent::new(small_config(), &mut rng).unwrap();
        for _ in 0..200 {
            // First step: reward 0 now, successor candidate worth 1.
            agent.remember(Transition {
                state_action: vec![1.0, 0.0],
                reward: 0.0,
                next_candidates: vec![vec![0.0, 1.0]].into(),
                terminal: false,
            });
            // Successor action: terminal reward 1.
            agent.remember(Transition {
                state_action: vec![0.0, 1.0],
                reward: 1.0,
                next_candidates: vec![].into(),
                terminal: true,
            });
        }
        for _ in 0..600 {
            agent.train_step(&mut rng);
        }
        let q_first = agent.q_value(&[1.0, 0.0]);
        assert!(
            (q_first - 0.9).abs() < 0.25,
            "Q(first) should approach γ*1=0.9, got {q_first}"
        );
    }

    /// Double DQN learns the same bandit and bounds Q closer to the true
    /// value than classical DQN's optimistic max under noise.
    #[test]
    fn double_dqn_learns_bandit() {
        let mut rng = seeded(9);
        let mut config = small_config();
        config.double_dqn = true;
        let mut agent = DqnAgent::new(config, &mut rng).unwrap();
        for _ in 0..200 {
            agent.remember(Transition {
                state_action: vec![1.0, 0.0],
                reward: 1.0,
                next_candidates: vec![].into(),
                terminal: true,
            });
            agent.remember(Transition {
                state_action: vec![0.0, 1.0],
                reward: 0.0,
                next_candidates: vec![].into(),
                terminal: true,
            });
        }
        for _ in 0..400 {
            agent.train_step(&mut rng);
        }
        assert!(agent.q_value(&[1.0, 0.0]) > agent.q_value(&[0.0, 1.0]) + 0.5);
    }

    /// Double-DQN bootstrapping uses online-argmax + target-eval and still
    /// converges on the two-step chain.
    #[test]
    fn double_dqn_bootstraps_chain() {
        let mut rng = seeded(10);
        let mut config = small_config();
        config.double_dqn = true;
        let mut agent = DqnAgent::new(config, &mut rng).unwrap();
        for _ in 0..200 {
            agent.remember(Transition {
                state_action: vec![1.0, 0.0],
                reward: 0.0,
                next_candidates: vec![vec![0.0, 1.0]].into(),
                terminal: false,
            });
            agent.remember(Transition {
                state_action: vec![0.0, 1.0],
                reward: 1.0,
                next_candidates: vec![].into(),
                terminal: true,
            });
        }
        for _ in 0..600 {
            agent.train_step(&mut rng);
        }
        let q_first = agent.q_value(&[1.0, 0.0]);
        assert!((q_first - 0.9).abs() < 0.3, "Q(first) ≈ γ·1, got {q_first}");
    }

    /// The pre-batching train step: per-transition target-network
    /// forwards. Kept as the ground truth the stacked implementation must
    /// reproduce bit-for-bit.
    fn reference_train_step<R: Rng + ?Sized>(agent: &mut DqnAgent, rng: &mut R) -> Option<f32> {
        if agent.replay.len() < agent.config.min_replay.max(1) {
            return None;
        }
        let batch = agent.replay.sample(agent.config.batch_size, rng);
        let n = batch.len();
        let mut targets = Matrix::zeros(n, 1);
        let mut inputs = Matrix::zeros(n, agent.config.input_dim);
        for (i, t) in batch.iter().enumerate() {
            inputs.row_mut(i).copy_from_slice(&t.state_action);
            let bootstrap = if t.terminal || t.next_candidates.is_empty() {
                0.0
            } else if agent.config.double_dqn {
                let online = agent.q_values(&t.next_candidates);
                let best = online
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let x = stack(&t.next_candidates[best..best + 1], agent.config.input_dim);
                agent.target.forward_inference(&x).get(0, 0)
            } else {
                let x = stack(&t.next_candidates, agent.config.input_dim);
                column0(&agent.target.forward_inference(&x))
                    .into_iter()
                    .fold(f32::NEG_INFINITY, f32::max)
            };
            targets.set(i, 0, t.reward + agent.config.gamma * bootstrap);
        }
        agent.online.zero_grad();
        let pred = agent.online.forward(&inputs);
        let (l, d) = loss::huber(&pred, &targets, agent.config.huber_delta);
        agent.online.backward(&d);
        agent
            .online
            .step(&mut agent.opt, Some(agent.config.grad_clip));
        agent.train_steps += 1;
        Some(l)
    }

    #[test]
    fn batched_targets_match_per_transition_reference() {
        for double in [false, true] {
            let mut rng = seeded(21);
            let mut config = small_config();
            config.double_dqn = double;
            config.min_replay = 8;
            config.batch_size = 8;
            let mut agent = DqnAgent::new(config, &mut rng).unwrap();
            // Mix terminal, empty-candidate, and multi-candidate
            // transitions, including exact Q-value ties for the argmax.
            for i in 0..32 {
                let terminal = i % 3 == 0;
                let cands = match i % 4 {
                    0 => vec![],
                    1 => vec![vec![0.1 * i as f32, -0.2]],
                    2 => vec![vec![0.4, 0.1], vec![0.4, 0.1]], // tied rows
                    _ => vec![vec![0.3, 0.1], vec![-0.5, 0.9], vec![0.2, 0.2]],
                };
                agent.remember(Transition {
                    state_action: vec![i as f32 / 32.0, 1.0 - i as f32 / 32.0],
                    reward: (i % 5) as f32 / 5.0,
                    next_candidates: cands.into(),
                    terminal,
                });
            }
            let mut reference = agent.clone();
            let mut rng_a = seeded(22);
            let mut rng_b = seeded(22);
            let loss_new = agent.train_step(&mut rng_a).unwrap();
            let loss_ref = reference_train_step(&mut reference, &mut rng_b).unwrap();
            assert_eq!(loss_new.to_bits(), loss_ref.to_bits(), "double={double}");
            assert_eq!(
                agent.export_params(),
                reference.export_params(),
                "double={double}"
            );
        }
    }

    /// The bootstrap cache must be value-transparent: many steps of the
    /// cached `train_step` — across target syncs (cache invalidation by
    /// generation), ring evictions (invalidation by slot overwrite) and
    /// fresh pushes — produce bitwise the same parameters as the
    /// per-transition reference recomputing every bootstrap from scratch.
    #[test]
    fn bootstrap_cache_is_bitwise_transparent_across_steps() {
        let mut rng = seeded(51);
        let mut config = small_config();
        config.min_replay = 8;
        config.batch_size = 8;
        config.replay_capacity = 24; // small ring: pushes below overwrite slots
        config.target_sync_every = 5; // several generation bumps in 30 steps
        let mut agent = DqnAgent::new(config, &mut rng).unwrap();
        let make = |i: usize| Transition {
            state_action: vec![(i % 7) as f32 / 7.0, ((i * 3) % 5) as f32 / 5.0],
            reward: (i % 4) as f32 / 4.0,
            next_candidates: match i % 3 {
                0 => vec![],
                1 => vec![vec![0.2, 0.5]],
                _ => vec![vec![0.1, -0.3], vec![0.9, 0.4]],
            }
            .into(),
            terminal: i.is_multiple_of(5),
        };
        for i in 0..24 {
            agent.remember(make(i));
        }
        let mut reference = agent.clone();
        reference.bootstrap_cache.clear(); // reference never reuses
        let mut rng_a = seeded(52);
        let mut rng_b = seeded(52);
        for step in 0..30 {
            let la = agent.train_step(&mut rng_a).unwrap();
            let lb = reference_train_step(&mut reference, &mut rng_b).unwrap();
            // Mirror train_step's target sync in the reference (the helper
            // predates syncing) and keep its cache permanently cold.
            if reference
                .train_steps
                .is_multiple_of(reference.config.target_sync_every)
            {
                reference.target.copy_params_from(&reference.online);
            }
            reference.bootstrap_cache.clear();
            assert_eq!(la.to_bits(), lb.to_bits(), "loss diverged at step {step}");
            assert_eq!(
                agent.export_params(),
                reference.export_params(),
                "params diverged at step {step}"
            );
            // Interleave pushes so ring slots get overwritten mid-stream.
            if step % 3 == 0 {
                agent.remember(make(24 + step));
                reference.remember(make(24 + step));
            }
        }
    }

    #[test]
    fn batch_q_values_match_single() {
        let mut rng = seeded(5);
        let agent = DqnAgent::new(small_config(), &mut rng).unwrap();
        let embeddings = vec![vec![0.1, 0.2], vec![-0.3, 0.4]];
        let batch = agent.q_values(&embeddings);
        assert_eq!(batch.len(), 2);
        for (e, &q) in embeddings.iter().zip(&batch) {
            assert!((agent.q_value(e) - q).abs() < 1e-6);
        }
        assert!(agent.q_values(&[]).is_empty());
    }

    #[test]
    fn param_export_import_round_trips() {
        let mut rng = seeded(6);
        let src = DqnAgent::new(small_config(), &mut rng).unwrap();
        let mut dst = DqnAgent::new(small_config(), &mut rng).unwrap();
        let params = src.export_params();
        dst.import_params(&params).unwrap();
        assert!((src.q_value(&[0.5, -0.5]) - dst.q_value(&[0.5, -0.5])).abs() < 1e-6);
        assert!(dst.import_params(&params[..3]).is_err());
    }

    #[test]
    fn snapshot_restore_resumes_training_bit_identically() {
        let mut rng = seeded(31);
        let mut config = small_config();
        config.min_replay = 8;
        let mut full = DqnAgent::new(config.clone(), &mut rng).unwrap();
        for i in 0..24 {
            full.remember(Transition {
                state_action: vec![i as f32 / 24.0, 1.0 - i as f32 / 24.0],
                reward: (i % 3) as f32,
                next_candidates: if i % 2 == 0 {
                    vec![vec![0.2, 0.8]]
                } else {
                    vec![]
                }
                .into(),
                terminal: i % 2 == 1,
            });
        }
        let mut train_rng = seeded(32);
        full.train_step(&mut train_rng).unwrap();
        let snap = full.snapshot();
        let rng_state = train_rng.state();
        full.train_step(&mut train_rng).unwrap();

        // Resume: fresh agent, restore, continue from the same rng point.
        let mut rng2 = seeded(99);
        let mut resumed = DqnAgent::new(config, &mut rng2).unwrap();
        resumed.restore(snap).unwrap();
        let mut train_rng2 = rand::rngs::StdRng::from_state(rng_state);
        resumed.train_step(&mut train_rng2).unwrap();

        assert_eq!(full.export_params(), resumed.export_params());
        assert_eq!(full.train_steps(), resumed.train_steps());
        assert_eq!(full.replay_len(), resumed.replay_len());
    }

    #[test]
    fn params_generation_tracks_every_weight_change() {
        let mut rng = seeded(41);
        let mut config = small_config();
        config.min_replay = 4;
        let mut agent = DqnAgent::new(config, &mut rng).unwrap();
        assert_eq!(agent.params_generation(), 0);

        // A failed train step (pool below min_replay) must not bump.
        assert!(agent.train_step(&mut rng).is_none());
        assert_eq!(agent.params_generation(), 0);

        for i in 0..6 {
            agent.remember(Transition {
                state_action: vec![i as f32, 0.0],
                reward: 0.1,
                next_candidates: vec![].into(),
                terminal: true,
            });
        }
        assert!(agent.train_step(&mut rng).is_some());
        assert_eq!(agent.params_generation(), 1);

        let params = agent.export_params();
        agent.import_params(&params).unwrap();
        assert_eq!(agent.params_generation(), 2);
        assert!(agent.import_params(&params[..3]).is_err());
        assert_eq!(agent.params_generation(), 2, "failed import must not bump");

        let snap = agent.snapshot();
        agent.restore(snap).unwrap();
        assert_eq!(agent.params_generation(), 3);
    }

    #[test]
    fn target_sync_counts_steps() {
        let mut rng = seeded(7);
        let mut config = small_config();
        config.min_replay = 4;
        config.target_sync_every = 5;
        let mut agent = DqnAgent::new(config, &mut rng).unwrap();
        for i in 0..8 {
            agent.remember(Transition {
                state_action: vec![i as f32 / 8.0, 0.0],
                reward: 0.5,
                next_candidates: vec![].into(),
                terminal: true,
            });
        }
        for _ in 0..7 {
            assert!(agent.train_step(&mut rng).is_some());
        }
        assert_eq!(agent.train_steps(), 7);
        assert_eq!(agent.replay_len(), 8);
    }
}
