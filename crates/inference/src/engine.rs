//! Incremental truth inference: persistent EM state across workflow
//! iterations.
//!
//! The workflow (Algorithm 1) re-runs truth inference every iteration over
//! *all* answers purchased so far, and every call used to start cold:
//! majority-vote posterior init, a fresh gather of the answered-object
//! feature matrix, re-estimated confusions, and a full classifier retrain
//! per EM sweep. Per-call cost is `O(total answers)`, so a run is
//! `O(iterations x answers)` — superlinear in the labels bought.
//!
//! [`InferenceEngine`] replaces the cold restart with a carried state:
//!
//! * **Warm-start EM** — the previous call's posteriors, confusion
//!   matrices, and class prior seed the next call, so EM needs only
//!   `warm_max_iters` (1–2) sweeps on mostly-unchanged data instead of
//!   re-converging from majority vote.
//! * **Dirty-set E-steps** — the engine records per-object answer counts;
//!   a warm sweep recomputes only the objects that gained answers since
//!   the last call ("dirty") plus any object whose posterior still moved
//!   noticeably in the last sweep ("moved"). Every `full_sweep_every`-th warm call
//!   sweeps all answered objects so confusion-matrix drift still
//!   propagates globally. The M-step always uses *all* posteriors, so the
//!   confusions stay consistent with the full answer set.
//! * **Append-only feature matrix** — the gathered `x` grows in place
//!   ([`Matrix::push_row`]) as objects receive their first answer, instead
//!   of being re-gathered from the dataset each call.
//! * **Classifier warm-start** — the warm retrain continues from the
//!   current weights (and persistent Adam state) with `warm_epochs`
//!   epochs; the cold path keeps the configured epoch count.
//!
//! Determinism contract (DESIGN.md §9 and §11): warm sweeps chunk the
//! *active* object list over fixed 256-object ranges and merge partials in
//! chunk-index order, exactly like the cold E-steps, so a warm-started run
//! is bit-identical run-to-run for a fixed seed and at every worker-pool
//! width. The engine falls back to a cold start whenever its carried state
//! cannot be trusted: first call, a differently-shaped answer set, or an
//! answer count that *decreased* (a different run's answers).
//!
//! The `em.joint.dirty_fraction` / `em.joint.warm_iters` gauges (and their
//! `em.ds.*` twins) expose the dirty-set win to `crowdrl-trace`.

use crate::dawid_skene::{estimate_one_coin, DawidSkene};
use crate::joint::{soft_targets, JointInference};
use crate::result::InferenceResult;
use crowdrl_linalg::{pool, Matrix};
use crowdrl_nn::SoftmaxClassifier;
use crowdrl_obs as obs;
use crowdrl_types::prob;
use crowdrl_types::{AnnotatorProfile, AnswerSet, Dataset, Error, ObjectId, Result};
use rand::Rng;
use std::sync::Arc;

/// Row sentinel for objects that have no feature row yet.
const NO_ROW: usize = usize::MAX;

/// An object stays in the active set while its posterior moves more than
/// this multiple of the model's convergence `tol` per sweep. Convergence
/// still uses `tol` itself; the looser retention bound only bounds how
/// long a nearly-settled object keeps getting re-swept (anything it
/// under-tracks is corrected by the periodic full sweeps).
const MOVED_TOL_FACTOR: f64 = 10.0;

/// Knobs of the incremental engine. The cold path (every call a full
/// inference from scratch) stays available behind `warm_start = false`,
/// so ablations and baselines are unaffected.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Carry EM state across calls. `false` restores the pre-engine
    /// behaviour exactly: every call is a cold, stateless inference.
    pub warm_start: bool,
    /// Every this-many warm calls, the E-step sweeps *all* answered
    /// objects (still warm-started) instead of just the dirty/moved set,
    /// so global confusion-matrix drift reaches every posterior.
    pub full_sweep_every: usize,
    /// Maximum EM sweeps per warm call (cold calls use the model's own
    /// `max_iters`).
    pub warm_max_iters: usize,
    /// Classifier epochs per warm retrain (cold fits use the classifier's
    /// configured epoch count).
    pub warm_epochs: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            warm_start: true,
            full_sweep_every: 8,
            warm_max_iters: 3,
            warm_epochs: 4,
        }
    }
}

impl EngineConfig {
    /// Validate parameter domains.
    pub fn validate(&self) -> Result<()> {
        if self.full_sweep_every == 0 {
            return Err(Error::InvalidParameter(
                "full_sweep_every must be positive".into(),
            ));
        }
        if self.warm_max_iters == 0 {
            return Err(Error::InvalidParameter(
                "warm_max_iters must be positive".into(),
            ));
        }
        if self.warm_epochs == 0 {
            return Err(Error::InvalidParameter(
                "warm_epochs must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The EM model the engine runs incrementally. Majority vote and PM are
/// single-pass algorithms with nothing to warm-start, so the engine only
/// wraps the iterative models.
#[derive(Debug, Clone)]
enum EngineModel {
    Joint(JointInference),
    DawidSkene(DawidSkene),
}

/// Carried state between calls.
#[derive(Debug, Clone)]
struct EngineState {
    /// The previous call's full result (posteriors, confusions, prior) —
    /// both the warm seed for the next call and the cached reply when no
    /// answers arrived in between (the finalize path). Shared with the
    /// caller, who gets it back from the call; once the caller has dropped
    /// its handle, the next warm call rewrites it in place.
    last: Arc<InferenceResult>,
    /// Per-object answer counts at the last call; a count increase marks
    /// the object dirty.
    answer_counts: Vec<usize>,
    /// Total answers at the last call.
    total_answers: usize,
    /// Objects whose posterior moved ≥ [`MOVED_TOL_FACTOR`] · `tol` in the
    /// last sweep — they stay in the active set until they settle.
    moved: Vec<bool>,
    /// Append-only feature matrix over `answered` (joint model only; empty
    /// for Dawid–Skene, which never reads features).
    x: Matrix,
    /// Object index per `x` row, in row order.
    answered: Vec<usize>,
    /// `x` row per object ([`NO_ROW`] when unanswered).
    row_of: Vec<usize>,
    /// Warm calls since the last full-coverage sweep (a cold start counts
    /// as full coverage).
    warm_calls_since_full: usize,
}

/// Portable image of the engine's carried state, for crash-consistent
/// checkpointing. Holds exactly the fields that cannot be re-derived:
/// the derived structures (`row_of`, the gathered feature matrix `x`) are
/// rebuilt from `answered` and the dataset on restore, so the snapshot
/// stays small and dataset-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// The previous call's full result (warm seed).
    pub last: InferenceResult,
    /// Per-object answer counts at the last call.
    pub answer_counts: Vec<usize>,
    /// Total answers at the last call.
    pub total_answers: usize,
    /// Per-object "posterior still moving" flags.
    pub moved: Vec<bool>,
    /// Objects with at least one answer, in feature-row order.
    pub answered: Vec<usize>,
    /// Warm calls since the last full-coverage sweep.
    pub warm_calls_since_full: usize,
    /// Monotonic call counter.
    pub calls: u64,
}

/// A persistent truth-inference engine (see module docs). Owned by the
/// batch workflow and by `crowdrl-serve`'s agent core; one engine per run,
/// paired with the run's classifier.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    model: EngineModel,
    config: EngineConfig,
    state: Option<EngineState>,
    /// Monotonic call index — the x-axis of the engine gauges.
    calls: u64,
}

impl InferenceEngine {
    /// An engine running the joint model incrementally.
    pub fn joint(model: JointInference, config: EngineConfig) -> Self {
        Self {
            model: EngineModel::Joint(model),
            config,
            state: None,
            calls: 0,
        }
    }

    /// An engine running Dawid–Skene incrementally.
    pub fn dawid_skene(model: DawidSkene, config: EngineConfig) -> Self {
        Self {
            model: EngineModel::DawidSkene(model),
            config,
            state: None,
            calls: 0,
        }
    }

    /// The engine's configuration (read-only).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Override the configuration (tests and ablations; the carried state
    /// is kept).
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// Drop the carried state: the next call is a cold start.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Capture the carried state for checkpointing. `None` when the engine
    /// has no state yet (no call made, or `warm_start` off) — restoring
    /// `None` is simply a fresh engine, which is already equivalent.
    pub fn export_state(&self) -> Option<EngineSnapshot> {
        self.state.as_ref().map(|s| EngineSnapshot {
            last: InferenceResult::clone(&s.last),
            answer_counts: s.answer_counts.clone(),
            total_answers: s.total_answers,
            moved: s.moved.clone(),
            answered: s.answered.clone(),
            warm_calls_since_full: s.warm_calls_since_full,
            calls: self.calls,
        })
    }

    /// Reinstate state captured by [`InferenceEngine::export_state`],
    /// rebuilding the derived row map and feature matrix from `dataset`.
    /// After this, the next `infer` continues exactly where the
    /// checkpointed engine would have.
    ///
    /// A snapshot whose shape does not fit `dataset` is rejected with a
    /// typed error naming the mismatched field, and the engine is left
    /// unchanged. The carried confusions are checked against the class
    /// count here and against the pool size by the next warm call, which
    /// is the first point that knows it.
    pub fn restore_state(&mut self, snap: EngineSnapshot, dataset: &Dataset) -> Result<()> {
        let n = dataset.len();
        let k = dataset.num_classes();
        let expect = |actual: usize, expected: usize, context: &str| {
            if actual == expected {
                Ok(())
            } else {
                Err(Error::DimensionMismatch {
                    expected,
                    actual,
                    context: format!("engine snapshot {context}"),
                })
            }
        };
        expect(snap.answer_counts.len(), n, "answer counts")?;
        expect(snap.moved.len(), n, "moved flags")?;
        expect(snap.last.posteriors.len(), n, "posteriors")?;
        for posterior in snap.last.posteriors.iter().flatten() {
            expect(posterior.len(), k, "posterior classes")?;
        }
        for confusion in &snap.last.confusions {
            expect(confusion.num_classes(), k, "confusion classes")?;
        }
        expect(snap.last.class_prior.len(), k, "class prior")?;
        let mut row_of = vec![NO_ROW; n];
        for (r, &i) in snap.answered.iter().enumerate() {
            if i >= n {
                return Err(Error::IndexOutOfBounds {
                    index: i,
                    len: n,
                    context: "engine snapshot answered object".into(),
                });
            }
            if row_of[i] != NO_ROW || snap.answer_counts[i] == 0 {
                return Err(Error::InvalidParameter(format!(
                    "engine snapshot lists object {i} as answered {}",
                    if row_of[i] != NO_ROW {
                        "twice"
                    } else {
                        "with no answers"
                    }
                )));
            }
            row_of[i] = r;
        }
        let with_answers = snap.answer_counts.iter().filter(|&&c| c > 0).count();
        expect(snap.answered.len(), with_answers, "answered objects")?;
        let mut x = Matrix::zeros(0, dataset.dim());
        if matches!(self.model, EngineModel::Joint(_)) {
            x = Matrix::zeros(snap.answered.len(), dataset.dim());
            for (r, &i) in snap.answered.iter().enumerate() {
                x.row_mut(r).copy_from_slice(dataset.features(i));
            }
        }
        self.calls = snap.calls;
        self.state = Some(EngineState {
            last: Arc::new(snap.last),
            answer_counts: snap.answer_counts,
            total_answers: snap.total_answers,
            moved: snap.moved,
            x,
            answered: snap.answered,
            row_of,
            warm_calls_since_full: snap.warm_calls_since_full,
        });
        Ok(())
    }

    /// Run one inference over `answers`, reusing the carried state when
    /// possible. Semantics match the wrapped model's `infer` up to EM
    /// scheduling: same E/M formulas, warm-seeded instead of
    /// majority-vote-seeded, and the E-step restricted to the active set
    /// on incremental calls. When no answers arrived since the previous
    /// call, the cached result is returned without touching the RNG.
    ///
    /// The result is shared with the engine, which warms the next call
    /// from it: drop it before that call and the engine reuses it in place
    /// instead of copying every posterior and confusion matrix.
    pub fn infer<R: Rng + ?Sized>(
        &mut self,
        dataset: &Dataset,
        answers: &AnswerSet,
        profiles: &[AnnotatorProfile],
        classifier: &mut SoftmaxClassifier,
        rng: &mut R,
    ) -> Result<Arc<InferenceResult>> {
        self.config.validate()?;
        let n = dataset.len();
        let reusable = self.config.warm_start
            && match &self.state {
                Some(state) => {
                    state.answer_counts.len() == n
                        && state.total_answers <= answers.total_answers()
                        && (0..n).all(|i| {
                            answers.answers_for(ObjectId(i)).len() >= state.answer_counts[i]
                        })
                }
                None => false,
            };
        if !reusable {
            self.state = None;
            return self.cold_call(dataset, answers, profiles, classifier, rng);
        }
        // Unchanged answer set: the previous result is still the answer.
        // The finalize paths hit this when the last loop iteration already
        // inferred over every purchased answer.
        if self.state.as_ref().map(|s| s.total_answers) == Some(answers.total_answers()) {
            return Ok(Arc::clone(
                &self.state.as_ref().expect("state checked above").last,
            ));
        }
        self.warm_call(dataset, answers, profiles, classifier, rng)
    }

    /// Cold path: delegate to the wrapped model's full inference, then
    /// capture the state the next call warms from.
    fn cold_call<R: Rng + ?Sized>(
        &mut self,
        dataset: &Dataset,
        answers: &AnswerSet,
        profiles: &[AnnotatorProfile],
        classifier: &mut SoftmaxClassifier,
        rng: &mut R,
    ) -> Result<Arc<InferenceResult>> {
        self.calls += 1;
        let result = Arc::new(match &self.model {
            EngineModel::Joint(m) => m.infer(dataset, answers, profiles, classifier, rng)?,
            EngineModel::DawidSkene(m) => {
                m.infer(answers, dataset.num_classes(), profiles.len())?
            }
        });
        let n = dataset.len();
        let answered: Vec<usize> = (0..n)
            .filter(|&i| !answers.answers_for(ObjectId(i)).is_empty())
            .collect();
        if !self.config.warm_start || answered.is_empty() {
            // Nothing worth carrying (and with warm_start off, carrying
            // state would change behaviour on shrunk answer sets).
            return Ok(result);
        }
        let mut row_of = vec![NO_ROW; n];
        let mut x = Matrix::zeros(0, dataset.dim());
        if matches!(self.model, EngineModel::Joint(_)) {
            x = Matrix::zeros(answered.len(), dataset.dim());
            for (r, &i) in answered.iter().enumerate() {
                x.row_mut(r).copy_from_slice(dataset.features(i));
                row_of[i] = r;
            }
        } else {
            for (r, &i) in answered.iter().enumerate() {
                row_of[i] = r;
            }
        }
        // A cold EM may have stopped at max_iters with posteriors still in
        // motion, so every answered object starts "moved": the first warm
        // sweep revisits all of them and the flags settle per object.
        let mut moved = vec![false; n];
        for &i in &answered {
            moved[i] = true;
        }
        self.state = Some(EngineState {
            last: Arc::clone(&result),
            answer_counts: (0..n)
                .map(|i| answers.answers_for(ObjectId(i)).len())
                .collect(),
            total_answers: answers.total_answers(),
            moved,
            x,
            answered,
            row_of,
            warm_calls_since_full: 0,
        });
        Ok(result)
    }

    /// Warm path: seed from the carried state and sweep only the active
    /// (dirty ∪ moved) objects, or everything on a full-sweep call.
    fn warm_call<R: Rng + ?Sized>(
        &mut self,
        dataset: &Dataset,
        answers: &AnswerSet,
        profiles: &[AnnotatorProfile],
        classifier: &mut SoftmaxClassifier,
        rng: &mut R,
    ) -> Result<Arc<InferenceResult>> {
        let _span = obs::span("em.engine.warm");
        // The joint E-step reads one carried confusion per annotator; a
        // restored snapshot from a different pool must fail here, before
        // any state is touched, rather than index past the tables.
        let carried = self.state.as_ref().map_or(0, |s| s.last.confusions.len());
        if matches!(self.model, EngineModel::Joint(_)) && carried != profiles.len() {
            return Err(Error::DimensionMismatch {
                expected: profiles.len(),
                actual: carried,
                context: "engine carried confusions".into(),
            });
        }
        self.calls += 1;
        let call = self.calls as f64;
        let n = dataset.len();
        let k = dataset.num_classes();
        let num_annotators = profiles.len();
        let state = self.state.as_mut().expect("warm_call requires state");

        // Dirty objects: answer count increased since the last call. New
        // objects additionally get a feature row appended to `x`.
        let mut dirty: Vec<usize> = Vec::new();
        for i in 0..n {
            let count = answers.answers_for(ObjectId(i)).len();
            if count > state.answer_counts[i] {
                dirty.push(i);
                if state.row_of[i] == NO_ROW {
                    state.row_of[i] = state.answered.len();
                    state.answered.push(i);
                    if matches!(self.model, EngineModel::Joint(_)) {
                        state.x.push_row(dataset.features(i));
                    }
                }
            }
            state.answer_counts[i] = count;
        }
        state.total_answers = answers.total_answers();

        // Active set for the first sweep: everything on a full-sweep call,
        // else dirty ∪ moved (ascending object order — deterministic).
        let full_sweep = state.warm_calls_since_full + 1 >= self.config.full_sweep_every;
        let active: Vec<usize> = if full_sweep {
            state.warm_calls_since_full = 0;
            state.answered.clone()
        } else {
            state.warm_calls_since_full += 1;
            let mut is_active = vec![false; n];
            for &i in &dirty {
                is_active[i] = true;
            }
            for (i, flag) in is_active.iter_mut().enumerate() {
                *flag = *flag || state.moved[i];
            }
            (0..n).filter(|&i| is_active[i]).collect()
        };

        // Unshared once the caller dropped the previous call's result, so
        // the carried result is reused in place; copied only if it is not.
        let last = Arc::make_mut(&mut state.last);
        let mut posteriors = std::mem::take(&mut last.posteriors);
        if posteriors.len() != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                actual: posteriors.len(),
                context: "engine carried posteriors".into(),
            });
        }
        let mut confusions = std::mem::take(&mut last.confusions);
        let mut iterations = 0;
        let mut log_likelihood = last.log_likelihood;

        match &self.model {
            EngineModel::Joint(model) => {
                let cfg = &model.config;
                if classifier.num_classes() != k || !classifier.is_trained() {
                    return Err(Error::InvalidParameter(
                        "engine warm call requires a trained classifier of matching width".into(),
                    ));
                }
                // Gather the active rows of the carried feature matrix
                // once; φ is re-evaluated on them each sweep (the
                // classifier retrains in the M-step).
                let mut ax = Matrix::zeros(active.len(), dataset.dim());
                for (r, &i) in active.iter().enumerate() {
                    ax.row_mut(r).copy_from_slice(state.x.row(state.row_of[i]));
                }
                let lo = cfg.phi_clamp.max(1e-12);
                let hi = 1.0 - cfg.phi_clamp;
                let cw = cfg.classifier_weight;
                // φ is evaluated once per call: the warm retrain runs once,
                // *after* the sweeps, so within a call the classifier term
                // is fixed. Keeping φ stable across the sweeps also keeps
                // the `moved` flags meaningful — they measure EM settling,
                // not classifier drift, so the active set actually shrinks
                // between calls (the retrained φ reaches every posterior on
                // the periodic full sweeps).
                let phi = classifier.predict_proba(&ax);
                let answering = crate::par::answering_annotators(
                    answers,
                    active.iter().copied(),
                    num_annotators,
                );
                for _ in 0..self.config.warm_max_iters {
                    iterations += 1;
                    // E-step over the active set only — same formula as the
                    // cold joint E-step, chunked with partials merged in
                    // chunk-index order (bit-identical at any pool width).
                    let log_conf = crate::par::log_confusion_tables(&confusions, k, &answering);
                    let active_ref = &active;
                    let posts_ref = &posteriors;
                    let _kind = pool::task_kind("em_estep");
                    let chunks =
                        pool::map_chunks(active_ref.len(), crate::par::OBJECT_CHUNK, |range| {
                            let mut out: Vec<(Vec<f64>, f64)> = Vec::with_capacity(range.len());
                            let mut ll = 0.0f64;
                            let mut logp = vec![0.0f64; k];
                            for r in range {
                                let i = active_ref[r];
                                for (c, lp) in logp.iter_mut().enumerate() {
                                    *lp = cw * (phi.get(r, c) as f64).clamp(lo, hi).ln();
                                }
                                for &(a, label) in answers.answers_for(ObjectId(i)) {
                                    let table =
                                        &log_conf[a.index() * k * k..(a.index() + 1) * k * k];
                                    for (c, lp) in logp.iter_mut().enumerate() {
                                        *lp += table[c * k + label.index()];
                                    }
                                }
                                let mut q = Vec::with_capacity(k);
                                let lse = prob::softmax_from_logs(&logp, &mut q);
                                ll += lse;
                                let delta = match &posts_ref[i] {
                                    Some(old) => old
                                        .iter()
                                        .zip(&q)
                                        .map(|(o, n)| (o - n).abs())
                                        .fold(0.0f64, f64::max),
                                    // First posterior for a new object.
                                    None => 1.0,
                                };
                                out.push((q, delta));
                            }
                            (out, ll)
                        });
                    let mut max_delta = 0.0f64;
                    let mut ll = 0.0f64;
                    for (ci, (out, ll_part)) in chunks.into_iter().enumerate() {
                        ll += ll_part;
                        let range = pool::chunk_range(active.len(), crate::par::OBJECT_CHUNK, ci);
                        for (offset, (q, delta)) in out.into_iter().enumerate() {
                            let i = active[range.start + offset];
                            max_delta = max_delta.max(delta);
                            state.moved[i] = delta >= MOVED_TOL_FACTOR * cfg.tol;
                            posteriors[i] = Some(q);
                        }
                    }
                    if !ll.is_finite() {
                        return Err(Error::NumericalFailure(
                            "joint warm likelihood diverged".into(),
                        ));
                    }
                    // The warm log-likelihood covers the swept set only —
                    // a per-call progress signal, not comparable across
                    // calls with different active sets.
                    log_likelihood = ll;

                    // M-step over *all* posteriors, exactly as the cold
                    // path: confusions, expert bounding, classifier
                    // retrain (short warm epoch budget, continuing from
                    // the current weights and Adam state).
                    if cfg.one_coin {
                        estimate_one_coin(
                            answers,
                            &posteriors,
                            k,
                            num_annotators,
                            &mut confusions,
                        )?;
                    } else {
                        confusions =
                            model.soft_confusions(answers, &posteriors, k, num_annotators)?;
                    }
                    model.bound_experts(&mut confusions, profiles)?;
                    if max_delta < cfg.tol {
                        break;
                    }
                }
                // One warm retrain per call, continuing from the current
                // weights and Adam state with the short epoch budget; the
                // next call's E-step picks up the refreshed φ.
                let (targets, weights) =
                    soft_targets(cfg.hard_labels, k, &state.answered, &posteriors)?;
                classifier.fit_with_epochs(
                    &state.x,
                    &targets,
                    Some(&weights),
                    self.config.warm_epochs,
                    rng,
                )?;
                if obs::enabled() {
                    let denom = state.answered.len().max(1) as f64;
                    obs::gauge_step("em.joint.dirty_fraction", call, active.len() as f64 / denom);
                    obs::gauge_step("em.joint.warm_iters", call, iterations as f64);
                }
            }
            EngineModel::DawidSkene(model) => {
                if model.max_iters == 0 {
                    return Err(Error::InvalidParameter("max_iters must be positive".into()));
                }
                let mut class_prior = std::mem::take(&mut last.class_prior);
                let answering = crate::par::answering_annotators(
                    answers,
                    active.iter().copied(),
                    num_annotators,
                );
                for _ in 0..self.config.warm_max_iters {
                    iterations += 1;
                    // M-step first, over all posteriors — DS order.
                    model.m_step(answers, &posteriors, k, num_annotators, &mut confusions)?;
                    if model.estimate_prior {
                        let mut prior = vec![1e-9f64; k];
                        for post in posteriors.iter().flatten() {
                            for (pr, &q) in prior.iter_mut().zip(post) {
                                *pr += q;
                            }
                        }
                        prob::normalize(&mut prior);
                        class_prior = prior;
                    } else {
                        class_prior = vec![1.0 / k as f64; k];
                    }
                    let log_prior: Vec<f64> =
                        class_prior.iter().map(|&p| p.max(1e-12).ln()).collect();
                    let log_conf = crate::par::log_confusion_tables(&confusions, k, &answering);
                    let active_ref = &active;
                    let posts_ref = &posteriors;
                    let _kind = pool::task_kind("em_estep");
                    let chunks =
                        pool::map_chunks(active_ref.len(), crate::par::OBJECT_CHUNK, |range| {
                            let mut out: Vec<(Vec<f64>, f64)> = Vec::with_capacity(range.len());
                            let mut ll = 0.0f64;
                            let mut logp = vec![0.0f64; k];
                            for r in range {
                                let i = active_ref[r];
                                logp.copy_from_slice(&log_prior);
                                for &(a, label) in answers.answers_for(ObjectId(i)) {
                                    let table =
                                        &log_conf[a.index() * k * k..(a.index() + 1) * k * k];
                                    for (c, lp) in logp.iter_mut().enumerate() {
                                        *lp += table[c * k + label.index()];
                                    }
                                }
                                let mut q = Vec::with_capacity(k);
                                let lse = prob::softmax_from_logs(&logp, &mut q);
                                ll += lse;
                                let delta = match &posts_ref[i] {
                                    Some(old) => old
                                        .iter()
                                        .zip(&q)
                                        .map(|(o, n)| (o - n).abs())
                                        .fold(0.0f64, f64::max),
                                    None => 1.0,
                                };
                                out.push((q, delta));
                            }
                            (out, ll)
                        });
                    let mut max_delta = 0.0f64;
                    let mut ll = 0.0f64;
                    for (ci, (out, ll_part)) in chunks.into_iter().enumerate() {
                        ll += ll_part;
                        let range = pool::chunk_range(active.len(), crate::par::OBJECT_CHUNK, ci);
                        for (offset, (q, delta)) in out.into_iter().enumerate() {
                            let i = active[range.start + offset];
                            max_delta = max_delta.max(delta);
                            state.moved[i] = delta >= MOVED_TOL_FACTOR * model.tol;
                            posteriors[i] = Some(q);
                        }
                    }
                    if !ll.is_finite() {
                        return Err(Error::NumericalFailure(
                            "DS warm likelihood diverged".into(),
                        ));
                    }
                    log_likelihood = ll;
                    if max_delta < model.tol {
                        break;
                    }
                }
                // Final M-step so reported confusions match the final
                // posteriors (mirrors the cold DS path).
                model.m_step(answers, &posteriors, k, num_annotators, &mut confusions)?;
                last.class_prior = class_prior;
                if obs::enabled() {
                    let denom = state.answered.len().max(1) as f64;
                    obs::gauge_step("em.ds.dirty_fraction", call, active.len() as f64 / denom);
                    obs::gauge_step("em.ds.warm_iters", call, iterations as f64);
                }
            }
        }

        let class_prior = match &self.model {
            // Joint reports the posterior-mass prior, like its cold path.
            EngineModel::Joint(_) => {
                let mut prior = vec![1e-9f64; k];
                for p in posteriors.iter().flatten() {
                    for (pr, &q) in prior.iter_mut().zip(p) {
                        *pr += q;
                    }
                }
                prob::normalize(&mut prior);
                prior
            }
            EngineModel::DawidSkene(_) => std::mem::take(&mut last.class_prior),
        };

        *last = InferenceResult {
            posteriors,
            confusions,
            class_prior,
            iterations,
            log_likelihood,
        };
        Ok(Arc::clone(&state.last))
    }
}
