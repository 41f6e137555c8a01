//! Annotator confusion matrices.
//!
//! Following the paper (§II-A, after \[48\], \[49\]), the expertise of annotator
//! `w_j` is a `|C| x |C|` row-stochastic matrix `Π^j = {π^j_{cl}}` where
//! `π^j_{cl}` is the probability that an object whose true label is `c`
//! receives label `l` from `w_j`. The *true* matrix is latent; inference
//! algorithms maintain an estimate `Π̂^j` that is refined each iteration.

use crate::ids::ClassId;
use crate::prob;
use crate::{Error, Result};
use rand::Rng;

/// A row-stochastic `k x k` confusion matrix over `k` classes.
///
/// Row = true class, column = reported class. Rows always sum to one (the
/// constructors normalize and [`ConfusionMatrix::validate`] checks).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionMatrix {
    k: usize,
    /// Row-major `k*k` probabilities.
    p: Vec<f64>,
}

impl ConfusionMatrix {
    /// The identity matrix: a perfect annotator.
    pub fn identity(k: usize) -> Result<Self> {
        Self::check_k(k)?;
        let mut p = vec![0.0; k * k];
        for c in 0..k {
            p[c * k + c] = 1.0;
        }
        Ok(Self { k, p })
    }

    /// The maximally-uninformative annotator: every row uniform.
    pub fn uniform(k: usize) -> Result<Self> {
        Self::check_k(k)?;
        Ok(Self {
            k,
            p: vec![1.0 / k as f64; k * k],
        })
    }

    /// A "diagonal-accuracy" annotator: probability `acc` of reporting the
    /// true class, with the remaining mass spread uniformly over the other
    /// classes. This is the one-parameter annotator model many truth
    /// inference papers use and the shape our simulator samples around.
    pub fn with_accuracy(k: usize, acc: f64) -> Result<Self> {
        let mut m = Self::uniform(k)?;
        m.set_accuracy(acc)?;
        Ok(m)
    }

    /// Overwrite the matrix in place with the
    /// [`with_accuracy`](ConfusionMatrix::with_accuracy) shape: `acc` on
    /// the diagonal, `1 - acc` spread uniformly over each row's other
    /// classes (a one-class matrix stays the identity). The one-coin
    /// M-step rewrites every annotator's matrix this way without
    /// allocating.
    pub fn set_accuracy(&mut self, acc: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&acc) {
            return Err(Error::InvalidParameter(format!(
                "accuracy must be in [0,1], got {acc}"
            )));
        }
        let k = self.k;
        if k == 1 {
            self.p[0] = 1.0;
            return Ok(());
        }
        self.p.fill((1.0 - acc) / (k - 1) as f64);
        for c in 0..k {
            self.p[c * k + c] = acc;
        }
        Ok(())
    }

    /// Build from explicit rows, normalizing each row to sum to one.
    ///
    /// Fails if the shape is not `k x k`, any entry is negative or
    /// non-finite, or a row sums to zero.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let k = rows.len();
        Self::check_k(k)?;
        let mut p = Vec::with_capacity(k * k);
        for (c, row) in rows.iter().enumerate() {
            if row.len() != k {
                return Err(Error::DimensionMismatch {
                    expected: k,
                    actual: row.len(),
                    context: format!("confusion matrix row {c}"),
                });
            }
            if row.iter().any(|&x| !x.is_finite() || x < 0.0) {
                return Err(Error::InvalidParameter(format!(
                    "confusion matrix row {c} has a negative or non-finite entry"
                )));
            }
            let sum: f64 = row.iter().sum();
            if sum <= 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "confusion matrix row {c} sums to zero"
                )));
            }
            p.extend(row.iter().map(|&x| x / sum));
        }
        Ok(Self { k, p })
    }

    fn check_k(k: usize) -> Result<()> {
        if k == 0 {
            return Err(Error::InvalidParameter(
                "class count must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.k
    }

    /// `π_{cl}`: probability of reporting `reported` when the truth is
    /// `truth`.
    #[inline]
    pub fn get(&self, truth: ClassId, reported: ClassId) -> f64 {
        debug_assert!(truth.index() < self.k && reported.index() < self.k);
        self.p[truth.index() * self.k + reported.index()]
    }

    /// One row (fixed true class) of the matrix.
    #[inline]
    pub fn row(&self, truth: ClassId) -> &[f64] {
        let c = truth.index();
        &self.p[c * self.k..(c + 1) * self.k]
    }

    /// Overall estimated quality `tr(Π)/|C|` — the paper's scalar summary of
    /// an annotator, shown in the state's quality column (§III-B).
    pub fn quality(&self) -> f64 {
        let trace: f64 = (0..self.k).map(|c| self.p[c * self.k + c]).sum();
        trace / self.k as f64
    }

    /// Sample the label this annotator reports for an object whose true
    /// class is `truth`.
    pub fn sample_answer<R: Rng + ?Sized>(&self, truth: ClassId, rng: &mut R) -> ClassId {
        let row = self.row(truth);
        match crate::rng::sample_weighted(rng, row) {
            Some(i) => ClassId(i),
            // Degenerate row (all zeros after aggressive mutation): report truth.
            None => truth,
        }
    }

    /// Replace the matrix with soft-count estimates, normalizing rows.
    ///
    /// `counts` is a row-major `k x k` matrix of (possibly fractional)
    /// observation counts from an EM M-step. `smoothing` (Laplace) is added
    /// to every cell so unseen classes keep nonzero probability.
    pub fn set_from_counts(&mut self, counts: &[f64], smoothing: f64) -> Result<()> {
        if counts.len() != self.k * self.k {
            return Err(Error::DimensionMismatch {
                expected: self.k * self.k,
                actual: counts.len(),
                context: "confusion matrix counts".into(),
            });
        }
        if smoothing < 0.0 || !smoothing.is_finite() {
            return Err(Error::InvalidParameter(format!(
                "smoothing must be finite and non-negative, got {smoothing}"
            )));
        }
        for c in 0..self.k {
            let row = &counts[c * self.k..(c + 1) * self.k];
            if row.iter().any(|&x| !x.is_finite() || x < 0.0) {
                return Err(Error::NumericalFailure(format!(
                    "negative or non-finite count in confusion row {c}"
                )));
            }
            let dst = &mut self.p[c * self.k..(c + 1) * self.k];
            for (d, &s) in dst.iter_mut().zip(row) {
                *d = s + smoothing;
            }
            prob::normalize(dst);
        }
        Ok(())
    }

    /// CrowdRL's expert-quality bounding (§V-A): if a diagonal entry of an
    /// *expert's* estimated matrix fell below `1 - epsilon`, clamp it back to
    /// `1 - epsilon` and spread `epsilon` uniformly over the other classes.
    ///
    /// Returns `true` if any row was clamped.
    pub fn bound_diagonal(&mut self, epsilon: f64) -> Result<bool> {
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(Error::InvalidParameter(format!(
                "epsilon must be in [0,1], got {epsilon}"
            )));
        }
        let floor = 1.0 - epsilon;
        let mut clamped = false;
        for c in 0..self.k {
            if self.p[c * self.k + c] < floor {
                clamped = true;
                if self.k == 1 {
                    self.p[0] = 1.0;
                    continue;
                }
                let off = epsilon / (self.k - 1) as f64;
                for l in 0..self.k {
                    self.p[c * self.k + l] = if l == c { floor } else { off };
                }
            }
        }
        Ok(clamped)
    }

    /// Ensure every diagonal entry is at least `floor`, rescaling the
    /// off-diagonal mass of affected rows proportionally.
    ///
    /// EM truth inference can "invert" a weak annotator (estimate their
    /// diagonal below 0.5 and then trust their answers *negated*), which is
    /// catastrophic when most of the panel is weak. Clamping encodes the
    /// standard non-adversarial assumption: annotators are at least as good
    /// as chance. Returns `true` if any row changed.
    pub fn clamp_diagonal_min(&mut self, floor: f64) -> Result<bool> {
        if !(0.0..=1.0).contains(&floor) {
            return Err(Error::InvalidParameter(format!(
                "diagonal floor must be in [0,1], got {floor}"
            )));
        }
        let mut changed = false;
        for c in 0..self.k {
            let diag = self.p[c * self.k + c];
            if diag >= floor {
                continue;
            }
            changed = true;
            let off_mass = 1.0 - diag;
            let new_off_mass = 1.0 - floor;
            let scale = if off_mass > 0.0 {
                new_off_mass / off_mass
            } else {
                0.0
            };
            for l in 0..self.k {
                let v = &mut self.p[c * self.k + l];
                *v = if l == c { floor } else { *v * scale };
            }
            // Guard against an all-zero off-diagonal row when k == 1.
            if self.k == 1 {
                self.p[0] = 1.0;
            }
        }
        Ok(changed)
    }

    /// Check row-stochasticity within `tol`; used by tests and as a debug
    /// assertion after M-steps.
    pub fn validate(&self, tol: f64) -> Result<()> {
        for c in 0..self.k {
            let row = &self.p[c * self.k..(c + 1) * self.k];
            if !prob::is_distribution(row, self.k, tol) {
                return Err(Error::NumericalFailure(format!(
                    "confusion matrix row {c} is not a distribution: {row:?}"
                )));
            }
        }
        Ok(())
    }

    /// Raw row-major probabilities (read-only), handy for featurization.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use proptest::prelude::*;

    #[test]
    fn identity_quality_is_one() {
        let m = ConfusionMatrix::identity(3).unwrap();
        assert_eq!(m.quality(), 1.0);
        m.validate(1e-12).unwrap();
        assert_eq!(m.get(ClassId(1), ClassId(1)), 1.0);
        assert_eq!(m.get(ClassId(1), ClassId(2)), 0.0);
    }

    #[test]
    fn uniform_quality_is_one_over_k() {
        let m = ConfusionMatrix::uniform(4).unwrap();
        assert!((m.quality() - 0.25).abs() < 1e-12);
        m.validate(1e-12).unwrap();
    }

    #[test]
    fn with_accuracy_matches_paper_example() {
        // Table IV: worker w1 with 0.60 / 0.40 rows would be accuracy 0.6/0.7;
        // our one-parameter form uses a shared diagonal.
        let m = ConfusionMatrix::with_accuracy(2, 0.985).unwrap();
        assert!((m.quality() - 0.985).abs() < 1e-12);
        assert!((m.get(ClassId(0), ClassId(1)) - 0.015).abs() < 1e-12);
    }

    #[test]
    fn with_accuracy_rejects_out_of_range() {
        assert!(ConfusionMatrix::with_accuracy(2, 1.5).is_err());
        assert!(ConfusionMatrix::with_accuracy(2, -0.1).is_err());
        assert!(ConfusionMatrix::with_accuracy(0, 0.5).is_err());
    }

    #[test]
    fn single_class_is_always_identity() {
        let m = ConfusionMatrix::with_accuracy(1, 0.3).unwrap();
        assert_eq!(m.quality(), 1.0);
    }

    #[test]
    fn set_accuracy_overwrites_any_matrix_with_the_accuracy_shape() {
        let mut m = ConfusionMatrix::from_rows(&[
            vec![0.1, 0.2, 0.7],
            vec![0.3, 0.3, 0.4],
            vec![0.5, 0.25, 0.25],
        ])
        .unwrap();
        m.set_accuracy(0.8).unwrap();
        assert_eq!(m, ConfusionMatrix::with_accuracy(3, 0.8).unwrap());
        assert!(m.set_accuracy(f64::NAN).is_err());
        assert!(m.set_accuracy(1.5).is_err());
    }

    #[test]
    fn from_rows_normalizes() {
        let m = ConfusionMatrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!((m.get(ClassId(0), ClassId(0)) - 0.75).abs() < 1e-12);
        assert!((m.get(ClassId(1), ClassId(0)) - 0.5).abs() < 1e-12);
        m.validate(1e-12).unwrap();
    }

    #[test]
    fn from_rows_rejects_bad_shapes_and_values() {
        assert!(ConfusionMatrix::from_rows(&[]).is_err());
        assert!(ConfusionMatrix::from_rows(&[vec![1.0], vec![1.0, 0.0]]).is_err());
        assert!(ConfusionMatrix::from_rows(&[vec![1.0, -0.5], vec![0.5, 0.5]]).is_err());
        assert!(ConfusionMatrix::from_rows(&[vec![0.0, 0.0], vec![0.5, 0.5]]).is_err());
        assert!(ConfusionMatrix::from_rows(&[vec![f64::NAN, 1.0], vec![0.5, 0.5]]).is_err());
    }

    #[test]
    fn sample_answer_follows_row_distribution() {
        let m = ConfusionMatrix::with_accuracy(2, 0.9).unwrap();
        let mut rng = seeded(21);
        let n = 20_000;
        let correct = (0..n)
            .filter(|_| m.sample_answer(ClassId(0), &mut rng) == ClassId(0))
            .count();
        let frac = correct as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn set_from_counts_normalizes_with_smoothing() {
        let mut m = ConfusionMatrix::uniform(2).unwrap();
        m.set_from_counts(&[8.0, 2.0, 0.0, 0.0], 1.0).unwrap();
        // Row 0: (9, 3)/12; row 1: (1,1)/2 via smoothing only.
        assert!((m.get(ClassId(0), ClassId(0)) - 0.75).abs() < 1e-12);
        assert!((m.get(ClassId(1), ClassId(0)) - 0.5).abs() < 1e-12);
        m.validate(1e-12).unwrap();
    }

    #[test]
    fn set_from_counts_rejects_bad_input() {
        let mut m = ConfusionMatrix::uniform(2).unwrap();
        assert!(m.set_from_counts(&[1.0; 3], 0.0).is_err());
        assert!(m.set_from_counts(&[1.0, 1.0, 1.0, -1.0], 0.0).is_err());
        assert!(m.set_from_counts(&[1.0; 4], -0.5).is_err());
    }

    #[test]
    fn bound_diagonal_clamps_low_experts() {
        let mut m = ConfusionMatrix::with_accuracy(3, 0.5).unwrap();
        let clamped = m.bound_diagonal(0.05).unwrap();
        assert!(clamped);
        for c in 0..3 {
            assert!((m.get(ClassId(c), ClassId(c)) - 0.95).abs() < 1e-12);
        }
        m.validate(1e-12).unwrap();
        // Already-good matrix is untouched.
        let mut good = ConfusionMatrix::with_accuracy(3, 0.99).unwrap();
        assert!(!good.bound_diagonal(0.05).unwrap());
        assert!((good.quality() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn clamp_diagonal_min_prevents_inversion() {
        let mut m = ConfusionMatrix::from_rows(&[vec![0.3, 0.7], vec![0.2, 0.8]]).unwrap();
        let changed = m.clamp_diagonal_min(0.5).unwrap();
        assert!(changed);
        assert!((m.get(ClassId(0), ClassId(0)) - 0.5).abs() < 1e-12);
        assert!((m.get(ClassId(0), ClassId(1)) - 0.5).abs() < 1e-12);
        // Already-good row untouched.
        assert!((m.get(ClassId(1), ClassId(1)) - 0.8).abs() < 1e-12);
        assert!((m.get(ClassId(1), ClassId(0)) - 0.2).abs() < 1e-12);
        m.validate(1e-9).unwrap();
        // No-op on a good matrix.
        let mut good = ConfusionMatrix::with_accuracy(3, 0.9).unwrap();
        assert!(!good.clamp_diagonal_min(0.5).unwrap());
        assert!(good.clamp_diagonal_min(1.5).is_err());
    }

    #[test]
    fn bound_diagonal_rejects_bad_epsilon() {
        let mut m = ConfusionMatrix::uniform(2).unwrap();
        assert!(m.bound_diagonal(-0.1).is_err());
        assert!(m.bound_diagonal(1.1).is_err());
    }

    proptest! {
        #[test]
        fn prop_from_rows_is_row_stochastic(rows in proptest::collection::vec(
            proptest::collection::vec(0.01f64..10.0, 4), 4)) {
            let m = ConfusionMatrix::from_rows(&rows).unwrap();
            prop_assert!(m.validate(1e-9).is_ok());
        }

        #[test]
        fn prop_bound_diagonal_preserves_stochasticity(
            acc in 0.0f64..1.0, eps in 0.0f64..1.0) {
            let mut m = ConfusionMatrix::with_accuracy(3, acc).unwrap();
            m.bound_diagonal(eps).unwrap();
            prop_assert!(m.validate(1e-9).is_ok());
        }

        #[test]
        fn prop_quality_bounded(acc in 0.0f64..1.0) {
            let m = ConfusionMatrix::with_accuracy(5, acc).unwrap();
            prop_assert!((0.0..=1.0).contains(&m.quality()));
        }

        #[test]
        fn prop_set_from_counts_row_stochastic(counts in proptest::collection::vec(0.0f64..100.0, 9)) {
            let mut m = ConfusionMatrix::uniform(3).unwrap();
            m.set_from_counts(&counts, 0.5).unwrap();
            prop_assert!(m.validate(1e-9).is_ok());
        }
    }
}
