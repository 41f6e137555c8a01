//! Synthetic dataset generators.
//!
//! The paper evaluates on three real datasets we cannot redistribute:
//!
//! * **Speech12** — 2344 videos of grade-1/2 oral reports, binary labels,
//!   50-d contextual + 1582-d prosodic features;
//! * **Speech3** — 1898 grade-3 videos, same features;
//! * **Fashion** — 32 398 social images, binary "fashion-related" labels.
//!
//! We substitute class-conditional Gaussian generators that preserve what
//! the evaluation actually exercises (see DESIGN.md §1): a classifier can
//! learn the task imperfectly from features; concatenated feature views
//! beat single views; and the speech tasks are *harder* than fashion
//! (lower class separation, more irreducible label noise), which is what
//! drives the paper's "CrowdRL wins more on hard tasks" observations.

use crowdrl_types::rng::{normal, sample_weighted};
use crowdrl_types::{ClassId, Dataset, Error, Result};
use rand::Rng;

/// Generic class-conditional Gaussian dataset generator.
///
/// Each class `c` gets a centroid placed deterministically on an
/// axis-aligned lattice scaled by `separation`; objects sample their class
/// from `class_balance`, then features `x = centroid_c + N(0, 1)` per
/// dimension. `label_noise` flips the stored ground truth of that
/// fraction of objects to a uniformly random *other* class, modelling
/// irreducible task ambiguity (the videos human graders genuinely
/// disagree on).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    name: String,
    num_objects: usize,
    dim: usize,
    num_classes: usize,
    separation: f64,
    label_noise: f64,
    class_balance: Vec<f64>,
}

impl DatasetSpec {
    /// A balanced Gaussian dataset: `num_objects` objects, `dim`
    /// informative dimensions, `num_classes` classes, separation 2.0 and no
    /// label noise. Customize with the builder methods.
    pub fn gaussian(
        name: impl Into<String>,
        num_objects: usize,
        dim: usize,
        num_classes: usize,
    ) -> Self {
        Self {
            name: name.into(),
            num_objects,
            dim,
            num_classes,
            separation: 2.0,
            label_noise: 0.0,
            class_balance: vec![1.0 / num_classes.max(1) as f64; num_classes],
        }
    }

    /// Distance between class centroids, in noise standard deviations.
    /// Lower = harder task.
    pub fn with_separation(mut self, separation: f64) -> Self {
        self.separation = separation;
        self
    }

    /// Fraction of objects whose ground truth is flipped to a random other
    /// class (irreducible ambiguity).
    pub fn with_label_noise(mut self, noise: f64) -> Self {
        self.label_noise = noise;
        self
    }

    /// Class prior (normalized internally).
    pub fn with_class_balance(mut self, balance: Vec<f64>) -> Self {
        self.class_balance = balance;
        self
    }

    /// Number of objects this spec will generate.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn validate(&self) -> Result<()> {
        if self.num_objects == 0 {
            return Err(Error::InvalidParameter(
                "num_objects must be positive".into(),
            ));
        }
        if self.dim == 0 {
            return Err(Error::InvalidParameter(
                "need at least one informative dim".into(),
            ));
        }
        if self.num_classes < 2 {
            return Err(Error::InvalidParameter("need at least two classes".into()));
        }
        if !(0.0..=1.0).contains(&self.label_noise) {
            return Err(Error::InvalidParameter(format!(
                "label_noise must be in [0,1], got {}",
                self.label_noise
            )));
        }
        if self.separation < 0.0 || !self.separation.is_finite() {
            return Err(Error::InvalidParameter(
                "separation must be non-negative".into(),
            ));
        }
        if self.class_balance.len() != self.num_classes {
            return Err(Error::DimensionMismatch {
                expected: self.num_classes,
                actual: self.class_balance.len(),
                context: "class balance".into(),
            });
        }
        if self
            .class_balance
            .iter()
            .any(|&p| p < 0.0 || !p.is_finite())
            || self.class_balance.iter().sum::<f64>() <= 0.0
        {
            return Err(Error::InvalidParameter(
                "class balance must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Class centroids: class `c` displaces dimension `d` by
    /// `±separation / (2·√dims)` following a deterministic sign pattern.
    ///
    /// The scaling makes `separation` the **total** Euclidean distance
    /// between class centroids regardless of dimensionality, so the
    /// Bayes-optimal accuracy of a two-class dataset is `Φ(separation/2)`
    /// (before label noise) whether the signal is spread over 2 dims or
    /// 200. That lets presets dial task hardness directly.
    fn centroid(&self, class: usize, dim: usize) -> f64 {
        // Two classes get exactly-antipodal sign patterns so the centroid
        // distance is exactly `separation`; more classes fall back to a
        // deterministic hash pattern (distinct, roughly sep/√2 apart).
        let bit = if self.num_classes == 2 {
            (class + dim) % 2
        } else {
            let pattern = (class + 1).wrapping_mul(0x9E37);
            (pattern >> (dim % 16)) & 1
        };
        let half = self.separation / (2.0 * (self.dim as f64).sqrt());
        if bit == 1 {
            half
        } else {
            -half
        }
    }

    /// Generate the dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Dataset> {
        self.validate()?;
        let dim = self.dim();
        let mut features = Vec::with_capacity(self.num_objects * dim);
        let mut truth = Vec::with_capacity(self.num_objects);
        for _ in 0..self.num_objects {
            let class = sample_weighted(rng, &self.class_balance)
                .ok_or_else(|| Error::NumericalFailure("class sampling failed".into()))?;
            for d in 0..self.dim {
                features.push(normal(rng, self.centroid(class, d), 1.0) as f32);
            }
            // Irreducible ambiguity: flip a fraction of ground truths.
            let final_class = if self.label_noise > 0.0 && rng.random::<f64>() < self.label_noise {
                let other = rng.random_range(0..self.num_classes - 1);
                if other >= class {
                    other + 1
                } else {
                    other
                }
            } else {
                class
            };
            truth.push(ClassId(final_class));
        }
        Dataset::new(self.name.clone(), features, dim, truth, self.num_classes)
    }
}

/// The three feature views of a speech dataset (§VI-A.1): contextual only
/// (`C`), prosodic only (`P`), and concatenated (`CP`).
#[derive(Debug, Clone)]
pub struct SpeechViews {
    /// Contextual features only (e.g. `S12C`).
    pub c: Dataset,
    /// Prosodic features only (e.g. `S12P`).
    pub p: Dataset,
    /// Concatenated features (e.g. `S12CP`).
    pub cp: Dataset,
}

/// Generator for a speech-assessment-style dataset with two feature blocks.
///
/// The paper's contextual features are a 50-d vector and prosodic features
/// a 1582-d vector; we default to 50-d contextual and a scaled-down 150-d
/// prosodic block (full 1582 is supported but slows benches ~10x without
/// changing any comparison — see EXPERIMENTS.md). Each block carries
/// *partial* class signal (separations are total centroid distances, so
/// the per-block Bayes accuracy is `Φ(sep/2)` before label noise); blocks
/// compose orthogonally, giving the CP view distance
/// `√(sep_c² + sep_p²)` — the highest signal-to-noise ratio, reproducing
/// the paper's observation (5) in §VI-B.1 that concatenated features
/// label best. The defaults put the CP classifier ceiling near 0.8,
/// leaving real headroom for annotators — speech assessment is a task
/// where features alone do not suffice, which is the regime the paper
/// evaluates.
#[derive(Debug, Clone)]
pub struct SpeechSpec {
    /// Base name; views are suffixed `c` / `p` / `cp`.
    pub name: String,
    /// Number of video clips.
    pub num_objects: usize,
    /// Contextual block width (paper: 50).
    pub contextual_dim: usize,
    /// Prosodic block width (paper: 1582; default 150 for speed).
    pub prosodic_dim: usize,
    /// Class separation of the contextual block.
    pub contextual_separation: f64,
    /// Class separation of the prosodic block (noisier).
    pub prosodic_separation: f64,
    /// Irreducible label ambiguity.
    pub label_noise: f64,
}

impl SpeechSpec {
    /// Speech12 analogue: 2344 grade-1/2 clips. The paper treats grade-1/2
    /// speakers as *harder* to assess; we encode that as lower separation.
    pub fn speech12() -> Self {
        Self {
            name: "s12".into(),
            num_objects: 2344,
            contextual_dim: 50,
            prosodic_dim: 150,
            contextual_separation: 1.8,
            prosodic_separation: 1.3,
            label_noise: 0.06,
        }
    }

    /// Speech3 analogue: 1898 grade-3 clips, slightly easier than Speech12.
    pub fn speech3() -> Self {
        Self {
            name: "s3".into(),
            num_objects: 1898,
            contextual_dim: 50,
            prosodic_dim: 150,
            contextual_separation: 2.0,
            prosodic_separation: 1.5,
            label_noise: 0.05,
        }
    }

    /// Scale the object count (used by quick tests and the fig5 sampling
    /// sweep).
    pub fn with_num_objects(mut self, n: usize) -> Self {
        self.num_objects = n;
        self
    }

    /// Override the prosodic block width — e.g. the paper's full 1582 dims
    /// (the default 150 keeps benches fast without changing comparisons;
    /// separations are total distances, so block width does not change the
    /// task's information content).
    pub fn with_prosodic_dim(mut self, dim: usize) -> Self {
        self.prosodic_dim = dim;
        self
    }

    /// Generate the three views over a single draw of objects.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SpeechViews> {
        if self.contextual_dim == 0 || self.prosodic_dim == 0 {
            return Err(Error::InvalidParameter(
                "speech blocks must be non-empty".into(),
            ));
        }
        // Build the CP dataset directly: contextual block then prosodic
        // block, each with its own separation. We reuse DatasetSpec's
        // centroid pattern by generating per-block and concatenating.
        let ctx_spec = DatasetSpec::gaussian(
            format!("{}c", self.name),
            self.num_objects,
            self.contextual_dim,
            2,
        )
        .with_separation(self.contextual_separation)
        .with_label_noise(0.0);
        let pro_spec = DatasetSpec::gaussian(
            format!("{}p", self.name),
            self.num_objects,
            self.prosodic_dim,
            2,
        )
        .with_separation(self.prosodic_separation)
        .with_label_noise(0.0);
        ctx_spec.validate()?;
        pro_spec.validate()?;
        if !(0.0..=1.0).contains(&self.label_noise) {
            return Err(Error::InvalidParameter(
                "label_noise must be in [0,1]".into(),
            ));
        }

        let dim = self.contextual_dim + self.prosodic_dim;
        let mut features = Vec::with_capacity(self.num_objects * dim);
        let mut truth = Vec::with_capacity(self.num_objects);
        for _ in 0..self.num_objects {
            let class = if rng.random::<f64>() < 0.5 { 0 } else { 1 };
            for d in 0..self.contextual_dim {
                features.push(normal(rng, ctx_spec.centroid(class, d), 1.0) as f32);
            }
            for d in 0..self.prosodic_dim {
                features.push(normal(rng, pro_spec.centroid(class, d), 1.0) as f32);
            }
            let final_class = if rng.random::<f64>() < self.label_noise {
                1 - class
            } else {
                class
            };
            truth.push(ClassId(final_class));
        }
        let cp = Dataset::new(format!("{}cp", self.name), features, dim, truth, 2)?;
        let ctx_cols: Vec<usize> = (0..self.contextual_dim).collect();
        let pro_cols: Vec<usize> = (self.contextual_dim..dim).collect();
        let c = cp.select_columns(&ctx_cols, format!("{}c", self.name))?;
        let p = cp.select_columns(&pro_cols, format!("{}p", self.name))?;
        Ok(SpeechViews { c, p, cp })
    }
}

/// Generator for a Fashion-10000-style dataset: large, binary, and easier
/// than the speech tasks (the paper notes "labelling an object as
/// fashion-related or not was easier", §VI-B.2).
#[derive(Debug, Clone)]
pub struct FashionSpec {
    /// Number of images (paper: 32 398).
    pub num_objects: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Class separation (high: easy task).
    pub separation: f64,
    /// Irreducible label ambiguity (low).
    pub label_noise: f64,
}

impl FashionSpec {
    /// The full-size Fashion analogue.
    pub fn fashion() -> Self {
        Self {
            num_objects: 32_398,
            dim: 64,
            separation: 3.0,
            label_noise: 0.02,
        }
    }

    /// Scale the object count.
    pub fn with_num_objects(mut self, n: usize) -> Self {
        self.num_objects = n;
        self
    }

    /// Generate the dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Dataset> {
        DatasetSpec::gaussian("fashion", self.num_objects, self.dim, 2)
            .with_separation(self.separation)
            .with_label_noise(self.label_noise)
            .generate(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;

    #[test]
    fn gaussian_generates_requested_shape() {
        let mut rng = seeded(1);
        let d = DatasetSpec::gaussian("t", 100, 5, 3)
            .generate(&mut rng)
            .unwrap();
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 5);
        assert_eq!(d.num_classes(), 3);
        assert!(d.truth_slice().iter().all(|c| c.index() < 3));
    }

    #[test]
    fn separation_controls_class_distance() {
        let mut rng = seeded(2);
        let near = DatasetSpec::gaussian("n", 400, 4, 2)
            .with_separation(0.2)
            .generate(&mut rng)
            .unwrap();
        let far = DatasetSpec::gaussian("f", 400, 4, 2)
            .with_separation(4.0)
            .generate(&mut rng)
            .unwrap();
        // Between-class centroid distance should scale with separation.
        let dist = |d: &Dataset| {
            let mut sums = [[0.0f64; 4]; 2];
            let mut counts = [0usize; 2];
            for i in 0..d.len() {
                let c = d.truth(i).index();
                counts[c] += 1;
                for (s, &f) in sums[c].iter_mut().zip(d.features(i)) {
                    *s += f as f64;
                }
            }
            let mut dd = 0.0;
            for (s0, s1) in sums[0].iter().zip(&sums[1]) {
                let a = s0 / counts[0] as f64;
                let b = s1 / counts[1] as f64;
                dd += (a - b).powi(2);
            }
            dd.sqrt()
        };
        assert!(
            dist(&far) > 4.0 * dist(&near),
            "far={} near={}",
            dist(&far),
            dist(&near)
        );
    }

    #[test]
    fn label_noise_flips_expected_fraction() {
        let mut rng = seeded(3);
        // With huge separation, features identify the sampled class exactly;
        // label noise makes truth disagree with the feature-implied class.
        let d = DatasetSpec::gaussian("t", 4000, 2, 2)
            .with_separation(20.0)
            .with_label_noise(0.2)
            .generate(&mut rng)
            .unwrap();
        // With 20x separation, a sign rule on the first informative dim
        // recovers the *sampled* class exactly, so truth agrees with it for
        // ~80% (or ~20%, depending on sign convention) of objects.
        let agree = (0..d.len())
            .filter(|&i| (d.features(i)[0] > 0.0) == (d.truth(i) == ClassId(1)))
            .count() as f64
            / d.len() as f64;
        let frac = agree.max(1.0 - agree);
        assert!((frac - 0.8).abs() < 0.03, "agreement {frac}");
    }

    #[test]
    fn class_balance_shifts_prior() {
        let mut rng = seeded(4);
        let d = DatasetSpec::gaussian("t", 3000, 2, 2)
            .with_class_balance(vec![0.9, 0.1])
            .generate(&mut rng)
            .unwrap();
        let prior = d.class_prior();
        assert!((prior[0] - 0.9).abs() < 0.03, "prior {prior:?}");
    }

    #[test]
    fn spec_validation_errors() {
        let mut rng = seeded(5);
        assert!(DatasetSpec::gaussian("t", 0, 2, 2)
            .generate(&mut rng)
            .is_err());
        assert!(DatasetSpec::gaussian("t", 10, 0, 2)
            .generate(&mut rng)
            .is_err());
        assert!(DatasetSpec::gaussian("t", 10, 2, 1)
            .generate(&mut rng)
            .is_err());
        assert!(DatasetSpec::gaussian("t", 10, 2, 2)
            .with_label_noise(1.5)
            .generate(&mut rng)
            .is_err());
        assert!(DatasetSpec::gaussian("t", 10, 2, 2)
            .with_separation(-1.0)
            .generate(&mut rng)
            .is_err());
        assert!(DatasetSpec::gaussian("t", 10, 2, 2)
            .with_class_balance(vec![1.0])
            .generate(&mut rng)
            .is_err());
    }

    #[test]
    fn speech_views_share_truth_and_split_dims() {
        let mut rng = seeded(6);
        let spec = SpeechSpec::speech12().with_num_objects(200);
        let views = spec.generate(&mut rng).unwrap();
        assert_eq!(views.cp.len(), 200);
        assert_eq!(views.c.dim(), 50);
        assert_eq!(views.p.dim(), 150);
        assert_eq!(views.cp.dim(), 200);
        assert_eq!(views.c.truth_slice(), views.cp.truth_slice());
        assert_eq!(views.p.truth_slice(), views.cp.truth_slice());
        assert_eq!(views.c.name(), "s12c");
        assert_eq!(views.p.name(), "s12p");
        assert_eq!(views.cp.name(), "s12cp");
        // CP's first block equals C.
        assert_eq!(views.cp.features(0)[..50], *views.c.features(0));
    }

    #[test]
    fn full_paper_prosodic_width_is_supported() {
        let mut rng = seeded(9);
        let views = SpeechSpec::speech12()
            .with_num_objects(20)
            .with_prosodic_dim(1582)
            .generate(&mut rng)
            .unwrap();
        assert_eq!(views.p.dim(), 1582);
        assert_eq!(views.cp.dim(), 50 + 1582);
    }

    #[test]
    fn speech_presets_match_paper_cardinalities() {
        assert_eq!(SpeechSpec::speech12().num_objects, 2344);
        assert_eq!(SpeechSpec::speech3().num_objects, 1898);
        assert_eq!(FashionSpec::fashion().num_objects, 32_398);
    }

    #[test]
    fn speech3_is_easier_than_speech12() {
        let s12 = SpeechSpec::speech12();
        let s3 = SpeechSpec::speech3();
        assert!(s3.contextual_separation > s12.contextual_separation);
        assert!(s3.label_noise <= s12.label_noise);
    }

    #[test]
    fn fashion_generates_binary_easy_task() {
        let mut rng = seeded(7);
        let d = FashionSpec::fashion()
            .with_num_objects(300)
            .generate(&mut rng)
            .unwrap();
        assert_eq!(d.len(), 300);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.name(), "fashion");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = DatasetSpec::gaussian("t", 50, 3, 2);
        let a = spec.generate(&mut seeded(8)).unwrap();
        let b = spec.generate(&mut seeded(8)).unwrap();
        assert_eq!(a, b);
        let c = spec.generate(&mut seeded(9)).unwrap();
        assert_ne!(a, c);
    }
}
