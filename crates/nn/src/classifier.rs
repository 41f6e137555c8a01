//! The paper's classifier `φ`: an MLP with a probabilistic (softmax) head.
//!
//! `φ_{c_j}(o_i) = p(y_i = c_j | φ)` rates each object (Algorithm 1, line 6)
//! and feeds both labelled-set enrichment and the joint truth-inference
//! model. The joint EM retrains `φ` each iteration on the current
//! posteriors `q(y_i)` — *soft* targets with per-object weights — which
//! [`SoftmaxClassifier::fit`] supports directly.

use crate::activation::Activation;
use crate::loss;
use crate::network::Network;
use crate::optimizer::Adam;
use crowdrl_linalg::{ops, Matrix, NumericMode};
use crowdrl_types::rng::permutation;
use crowdrl_types::{ClassId, Error, Result};
use rand::Rng;

/// Training hyperparameters for [`SoftmaxClassifier`].
#[derive(Debug, Clone)]
pub struct ClassifierConfig {
    /// Hidden-layer sizes (empty = multinomial logistic regression).
    pub hidden: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Epochs per `fit` call.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Decoupled weight decay: before each Adam step every parameter,
    /// biases included, is multiplied by `1 - weight_decay`.
    pub weight_decay: f32,
    /// Inert: [`NumericMode`] has only the bit-pinned `Reference` mode and
    /// nothing reads this field. It stays because the run config's
    /// fingerprint hashes it, so removing it would change the fingerprint
    /// every existing checkpoint was cut under.
    pub numeric: NumericMode,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self {
            // Multinomial logistic regression by default: in the
            // few-labels/high-dimension regime a labelling loop lives in,
            // a linear probabilistic model generalizes far better than an
            // MLP, and it is the Bayes-optimal form for
            // class-conditional-Gaussian features. Add hidden layers for
            // nonlinear feature spaces.
            hidden: vec![],
            activation: Activation::Relu,
            learning_rate: 1e-2,
            epochs: 30,
            batch_size: 32,
            weight_decay: 2e-2,
            numeric: NumericMode::default(),
        }
    }
}

impl ClassifierConfig {
    /// Validate hyperparameter domains.
    pub fn validate(&self) -> Result<()> {
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(Error::InvalidParameter(
                "learning_rate must be positive".into(),
            ));
        }
        if self.epochs == 0 {
            return Err(Error::InvalidParameter("epochs must be positive".into()));
        }
        if self.batch_size == 0 {
            return Err(Error::InvalidParameter(
                "batch_size must be positive".into(),
            ));
        }
        if self.weight_decay < 0.0 || !self.weight_decay.is_finite() {
            return Err(Error::InvalidParameter(
                "weight_decay must be non-negative".into(),
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

/// A multi-class probabilistic classifier (MLP + softmax head).
#[derive(Debug, Clone)]
pub struct SoftmaxClassifier {
    net: Network,
    opt: Adam,
    config: ClassifierConfig,
    num_classes: usize,
    trained: bool,
    generation: u64,
}

impl SoftmaxClassifier {
    /// Create an untrained classifier for `input_dim` features and
    /// `num_classes` classes.
    pub fn new<R: Rng + ?Sized>(
        config: ClassifierConfig,
        input_dim: usize,
        num_classes: usize,
        rng: &mut R,
    ) -> Result<Self> {
        config.validate()?;
        if input_dim == 0 {
            return Err(Error::InvalidParameter("input_dim must be positive".into()));
        }
        if num_classes < 2 {
            return Err(Error::InvalidParameter("need at least two classes".into()));
        }
        let mut sizes = vec![input_dim];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(num_classes);
        let net = Network::mlp(&sizes, config.activation, rng);
        let opt = Adam::new(config.learning_rate);
        Ok(Self {
            net,
            opt,
            config,
            num_classes,
            trained: false,
            generation: 0,
        })
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Whether `fit` has been called at least once with data.
    #[inline]
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Parameter generation: incremented after every successful [`fit`],
    /// so caches of predictions (e.g. `crowdrl-core`'s feature cache) can
    /// detect that the classifier changed without hashing its weights.
    ///
    /// [`fit`]: SoftmaxClassifier::fit
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Train on a batch of rows with *soft* targets and optional per-sample
    /// weights, running `config.epochs` epochs of minibatch Adam.
    ///
    /// `x`: `[n x input_dim]`; `targets`: `[n x num_classes]` rows summing
    /// to one; `weights`: length-`n` non-negative, defaults to all-ones.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        x: &Matrix,
        targets: &Matrix,
        weights: Option<&[f32]>,
        rng: &mut R,
    ) -> Result<f32> {
        self.fit_with_epochs(x, targets, weights, self.config.epochs, rng)
    }

    /// [`fit`](SoftmaxClassifier::fit) with an explicit epoch count in
    /// place of `config.epochs` — the warm-start path of the incremental
    /// inference engine continues training from the current weights (and
    /// the persistent Adam state) with a short epoch budget, while cold
    /// fits keep using the configured count.
    pub fn fit_with_epochs<R: Rng + ?Sized>(
        &mut self,
        x: &Matrix,
        targets: &Matrix,
        weights: Option<&[f32]>,
        epochs: usize,
        rng: &mut R,
    ) -> Result<f32> {
        if epochs == 0 {
            return Err(Error::InvalidParameter("epochs must be positive".into()));
        }
        if x.rows() == 0 {
            return Err(Error::InvalidParameter("cannot fit on zero samples".into()));
        }
        if x.rows() != targets.rows() {
            return Err(Error::DimensionMismatch {
                expected: x.rows(),
                actual: targets.rows(),
                context: "classifier targets".into(),
            });
        }
        if targets.cols() != self.num_classes {
            return Err(Error::DimensionMismatch {
                expected: self.num_classes,
                actual: targets.cols(),
                context: "classifier target classes".into(),
            });
        }
        if let Some(w) = weights {
            if w.len() != x.rows() {
                return Err(Error::DimensionMismatch {
                    expected: x.rows(),
                    actual: w.len(),
                    context: "classifier sample weights".into(),
                });
            }
        }

        let n = x.rows();
        let bs = self.config.batch_size.min(n);
        // Minibatch buffers shared by every batch of the call.
        let mut bx = Matrix::zeros(bs, x.cols());
        let mut bt = Matrix::zeros(bs, targets.cols());
        let mut bw_buf: Vec<f32> = Vec::with_capacity(bs);
        let mut last_loss = 0.0;
        for _ in 0..epochs {
            let order = permutation(rng, n);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0;
            for chunk in order.chunks(bs) {
                gather_rows_into(x, chunk, &mut bx);
                gather_rows_into(targets, chunk, &mut bt);
                let bw = weights.map(|w| {
                    bw_buf.clear();
                    bw_buf.extend(chunk.iter().map(|&i| w[i]));
                    bw_buf.as_slice()
                });
                self.net.zero_grad();
                let out = self.net.forward(&bx);
                let (l, d) = loss::softmax_cross_entropy(&out, &bt, bw);
                self.net.backward(&d);
                self.apply_weight_decay();
                self.net.step(&mut self.opt, Some(5.0));
                epoch_loss += l;
                batches += 1;
            }
            last_loss = epoch_loss / batches.max(1) as f32;
            if !last_loss.is_finite() {
                return Err(Error::NumericalFailure("classifier loss diverged".into()));
            }
        }
        self.trained = true;
        self.generation += 1;
        Ok(last_loss)
    }

    /// Convenience: train on hard labels (converted to one-hot targets).
    pub fn fit_hard<R: Rng + ?Sized>(
        &mut self,
        x: &Matrix,
        labels: &[ClassId],
        rng: &mut R,
    ) -> Result<f32> {
        if labels.len() != x.rows() {
            return Err(Error::DimensionMismatch {
                expected: x.rows(),
                actual: labels.len(),
                context: "classifier hard labels".into(),
            });
        }
        let mut targets = Matrix::zeros(labels.len(), self.num_classes);
        for (i, c) in labels.iter().enumerate() {
            if c.index() >= self.num_classes {
                return Err(Error::InvalidParameter(format!(
                    "label {c} out of range for {} classes",
                    self.num_classes
                )));
            }
            targets.set(i, c.index(), 1.0);
        }
        self.fit(x, &targets, None, rng)
    }

    fn apply_weight_decay(&mut self) {
        if self.config.weight_decay > 0.0 {
            // Decoupled weight decay: shrink parameters directly.
            self.net.scale_params(1.0 - self.config.weight_decay);
        }
    }

    /// Class-probability rows for a feature matrix: `[n x num_classes]`,
    /// each row a distribution.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut out = self.net.forward_inference(x);
        ops::softmax_rows_inplace(&mut out);
        out
    }

    /// Class probabilities for one object's features.
    pub fn predict_proba_one(&self, features: &[f32]) -> Vec<f64> {
        let x = Matrix::from_vec(1, features.len(), features.to_vec());
        let p = self.predict_proba(&x);
        p.row(0).iter().map(|&v| v as f64).collect()
    }

    /// Hard prediction (argmax class) for one object's features.
    pub fn predict_one(&self, features: &[f32]) -> ClassId {
        let x = Matrix::from_vec(1, features.len(), features.to_vec());
        let p = self.net.forward_inference(&x);
        ClassId(ops::argmax(p.row(0)))
    }

    /// Hard predictions for a feature matrix.
    pub fn predict(&self, x: &Matrix) -> Vec<ClassId> {
        let p = self.net.forward_inference(x);
        (0..p.rows())
            .map(|i| ClassId(ops::argmax(p.row(i))))
            .collect()
    }

    /// Access the underlying network (e.g. for parameter inspection).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Capture the full training state — weights, Adam moments, trained
    /// flag and cache generation — for checkpointing.
    pub fn snapshot(&self) -> ClassifierSnapshot {
        ClassifierSnapshot {
            params: self.net.flatten_params(),
            opt_state: self.opt.state().to_vec(),
            trained: self.trained,
            generation: self.generation,
        }
    }

    /// Restore a state captured by [`SoftmaxClassifier::snapshot`] into a
    /// classifier constructed with the same config/shape. Training after a
    /// restore continues bit-identically to never having stopped.
    pub fn restore(&mut self, snap: ClassifierSnapshot) -> Result<()> {
        if snap.params.len() != self.net.param_count() {
            return Err(Error::DimensionMismatch {
                expected: self.net.param_count(),
                actual: snap.params.len(),
                context: "classifier snapshot params".into(),
            });
        }
        self.net.load_params(&snap.params);
        self.opt.restore_state(snap.opt_state);
        self.trained = snap.trained;
        self.generation = snap.generation;
        Ok(())
    }
}

/// Serializable training state of a [`SoftmaxClassifier`].
#[derive(Debug, Clone)]
pub struct ClassifierSnapshot {
    /// Flattened network parameters.
    pub params: Vec<f32>,
    /// Adam per-slot (first moment, second moment, step count).
    pub opt_state: Vec<(Vec<f32>, Vec<f32>, u64)>,
    /// Whether `fit` has succeeded at least once.
    pub trained: bool,
    /// Prediction-cache generation counter.
    pub generation: u64,
}

/// Gather rows of `m` at `idx` into `out`, keeping its buffer whenever the
/// batch size repeats (all but an epoch's short last batch).
fn gather_rows_into(m: &Matrix, idx: &[usize], out: &mut Matrix) {
    if out.rows() != idx.len() {
        *out = Matrix::zeros(idx.len(), m.cols());
    }
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(m.row(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;

    /// Two well-separated Gaussian blobs.
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<ClassId>) {
        let mut rng = seeded(seed);
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let (mx, my) = if c == 0 { (-2.0, -2.0) } else { (2.0, 2.0) };
            xs.push((crowdrl_types::rng::normal(&mut rng, mx, 0.7)) as f32);
            xs.push((crowdrl_types::rng::normal(&mut rng, my, 0.7)) as f32);
            ys.push(ClassId(c));
        }
        (Matrix::from_vec(n, 2, xs), ys)
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blobs(200, 11);
        let mut rng = seeded(12);
        let mut clf = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
        assert!(!clf.is_trained());
        clf.fit_hard(&x, &y, &mut rng).unwrap();
        assert!(clf.is_trained());
        let preds = clf.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_distributions() {
        let (x, y) = blobs(60, 13);
        let mut rng = seeded(14);
        let mut clf = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
        clf.fit_hard(&x, &y, &mut rng).unwrap();
        let p = clf.predict_proba(&x);
        for i in 0..p.rows() {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
            assert!(p.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let one = clf.predict_proba_one(x.row(0));
        assert_eq!(one.len(), 2);
        assert!((one.iter().sum::<f64>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn soft_targets_and_weights_train() {
        let (x, y) = blobs(100, 15);
        let mut rng = seeded(16);
        let mut clf = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
        let mut targets = Matrix::zeros(x.rows(), 2);
        for (i, c) in y.iter().enumerate() {
            // Soft labels: 0.9 on the true class.
            targets.set(i, c.index(), 0.9);
            targets.set(i, 1 - c.index(), 0.1);
        }
        let weights: Vec<f32> = (0..x.rows())
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.5 })
            .collect();
        let loss = clf.fit(&x, &targets, Some(&weights), &mut rng).unwrap();
        assert!(loss.is_finite());
        let preds = clf.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn rejects_bad_shapes_and_configs() {
        let mut rng = seeded(17);
        assert!(SoftmaxClassifier::new(ClassifierConfig::default(), 0, 2, &mut rng).is_err());
        assert!(SoftmaxClassifier::new(ClassifierConfig::default(), 2, 1, &mut rng).is_err());
        let bad = ClassifierConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(SoftmaxClassifier::new(bad, 2, 2, &mut rng).is_err());
        let bad = ClassifierConfig {
            learning_rate: -1.0,
            ..Default::default()
        };
        assert!(SoftmaxClassifier::new(bad, 2, 2, &mut rng).is_err());
        let bad = ClassifierConfig {
            hidden: vec![0],
            ..Default::default()
        };
        assert!(SoftmaxClassifier::new(bad, 2, 2, &mut rng).is_err());

        let mut clf = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
        let x = Matrix::zeros(3, 2);
        assert!(clf
            .fit(&Matrix::zeros(0, 2), &Matrix::zeros(0, 2), None, &mut rng)
            .is_err());
        assert!(clf.fit(&x, &Matrix::zeros(2, 2), None, &mut rng).is_err());
        assert!(clf.fit(&x, &Matrix::zeros(3, 3), None, &mut rng).is_err());
        assert!(clf
            .fit(&x, &Matrix::zeros(3, 2), Some(&[1.0]), &mut rng)
            .is_err());
        assert!(clf.fit_hard(&x, &[ClassId(0)], &mut rng).is_err());
        assert!(clf.fit_hard(&x, &[ClassId(9); 3], &mut rng).is_err());
    }

    #[test]
    fn logistic_regression_mode_works() {
        // Empty hidden layers = multinomial logistic regression.
        let (x, y) = blobs(150, 18);
        let mut rng = seeded(19);
        let config = ClassifierConfig {
            hidden: vec![],
            epochs: 60,
            ..Default::default()
        };
        let mut clf = SoftmaxClassifier::new(config, 2, 2, &mut rng).unwrap();
        clf.fit_hard(&x, &y, &mut rng).unwrap();
        let preds = clf.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn generation_bumps_only_on_successful_fit() {
        let (x, y) = blobs(30, 22);
        let mut rng = seeded(23);
        let mut clf = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
        assert_eq!(clf.generation(), 0);
        // A rejected fit (shape mismatch) must not bump the generation.
        assert!(clf.fit_hard(&x, &[ClassId(0)], &mut rng).is_err());
        assert_eq!(clf.generation(), 0);
        clf.fit_hard(&x, &y, &mut rng).unwrap();
        assert_eq!(clf.generation(), 1);
        clf.fit_hard(&x, &y, &mut rng).unwrap();
        assert_eq!(clf.generation(), 2);
    }

    #[test]
    fn fit_with_epochs_matches_fit_at_configured_count() {
        let (x, y) = blobs(50, 24);
        let mut targets = Matrix::zeros(x.rows(), 2);
        for (i, c) in y.iter().enumerate() {
            targets.set(i, c.index(), 1.0);
        }
        let run = |explicit: bool| {
            let mut rng = seeded(25);
            let mut clf =
                SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
            if explicit {
                let epochs = ClassifierConfig::default().epochs;
                clf.fit_with_epochs(&x, &targets, None, epochs, &mut rng)
                    .unwrap();
            } else {
                clf.fit(&x, &targets, None, &mut rng).unwrap();
            }
            clf.network().flatten_params()
        };
        assert_eq!(run(true), run(false));
        let mut rng = seeded(26);
        let mut clf = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
        assert!(clf
            .fit_with_epochs(&x, &targets, None, 0, &mut rng)
            .is_err());
    }

    #[test]
    fn snapshot_restore_resumes_training_bit_identically() {
        let (x, y) = blobs(60, 27);
        let mut targets = Matrix::zeros(x.rows(), 2);
        for (i, c) in y.iter().enumerate() {
            targets.set(i, c.index(), 1.0);
        }
        // Uninterrupted: two fits in a row.
        let mut rng = seeded(28);
        let mut full = SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
        full.fit(&x, &targets, None, &mut rng).unwrap();
        let snap = full.snapshot();
        full.fit(&x, &targets, None, &mut rng).unwrap();

        // Interrupted: restore the snapshot into a fresh classifier (same
        // rng point) and run the second fit there.
        let mut rng2 = seeded(28);
        let mut resumed =
            SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng2).unwrap();
        resumed.fit(&x, &targets, None, &mut rng2).unwrap();
        resumed.restore(snap).unwrap();
        resumed.fit(&x, &targets, None, &mut rng2).unwrap();

        assert_eq!(
            full.network().flatten_params(),
            resumed.network().flatten_params()
        );
        assert_eq!(full.generation(), resumed.generation());
        // Shape mismatch is rejected.
        let mut other =
            SoftmaxClassifier::new(ClassifierConfig::default(), 3, 2, &mut rng).unwrap();
        assert!(other.restore(full.snapshot()).is_err());
    }

    #[test]
    fn fit_is_deterministic_given_seed() {
        let (x, y) = blobs(50, 20);
        let run = || {
            let mut rng = seeded(21);
            let mut clf =
                SoftmaxClassifier::new(ClassifierConfig::default(), 2, 2, &mut rng).unwrap();
            clf.fit_hard(&x, &y, &mut rng).unwrap();
            clf.network().flatten_params()
        };
        assert_eq!(run(), run());
    }
}
