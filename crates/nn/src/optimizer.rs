//! First-order optimizers.
//!
//! An [`Optimizer`] updates one parameter tensor at a time, identified by a
//! stable slot index assigned by the [`Network`](crate::Network) (two slots
//! per layer: weights, bias). The stateful optimizer (Adam) allocates its
//! buffers lazily on first sight of a slot.

/// A first-order parameter-update rule.
pub trait Optimizer {
    /// Apply one update to the parameter tensor in `slot` given its
    /// gradient. `param` and `grad` always have equal length.
    fn update(&mut self, slot: usize, param: &mut [f32], grad: &[f32]);

    /// Reset any accumulated state (e.g. when re-initializing a network).
    fn reset(&mut self);
}

/// Plain stochastic gradient descent: `p -= lr * g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _slot: usize, param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        for (p, &g) in param.iter_mut().zip(grad) {
            *p -= self.lr * g;
        }
    }

    fn reset(&mut self) {}
}

/// Adam (Kingma & Ba) with bias correction — the default for both the
/// classifier and the Q-network.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (default 0.9).
    pub beta1: f32,
    /// Second-moment decay (default 0.999).
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Per-slot (first moment, second moment, step count).
    state: Vec<(Vec<f32>, Vec<f32>, u64)>,
}

impl Adam {
    /// Adam with the standard `(0.9, 0.999, 1e-8)` hyperparameters.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Adam with explicit betas.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            state: Vec::new(),
        }
    }

    /// The per-slot moment buffers and step counts, for checkpointing.
    pub fn state(&self) -> &[(Vec<f32>, Vec<f32>, u64)] {
        &self.state
    }

    /// Restore moment buffers captured by [`Adam::state`]. Training after
    /// a restore continues bit-identically to never having stopped.
    pub fn restore_state(&mut self, state: Vec<(Vec<f32>, Vec<f32>, u64)>) {
        self.state = state;
    }
}

impl Optimizer for Adam {
    fn update(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        if self.state.len() <= slot {
            self.state
                .resize_with(slot + 1, || (Vec::new(), Vec::new(), 0));
        }
        let (m, v, t) = &mut self.state[slot];
        if m.len() != param.len() {
            *m = vec![0.0; param.len()];
            *v = vec![0.0; param.len()];
            *t = 0;
        }
        *t += 1;
        let b1t = 1.0 - self.beta1.powi(*t as i32);
        let b2t = 1.0 - self.beta2.powi(*t as i32);
        // Elementwise, so the 8-lane kernel is bit-identical to the scalar
        // loop (see `crowdrl_linalg::simd::adam_update`).
        crowdrl_linalg::simd::adam_update(
            param, grad, m, v, self.lr, self.beta1, self.beta2, self.eps, b1t, b2t,
        );
    }

    fn reset(&mut self) {
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(p) = (p - 3)^2 with each optimizer; all should converge.
    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = [0.0f32];
        for _ in 0..steps {
            let g = [2.0 * (p[0] - 3.0)];
            opt.update(0, &mut p, &g);
        }
        p[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!((minimize(&mut opt, 100) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!((minimize(&mut opt, 300) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn sgd_update_is_exact() {
        let mut opt = Sgd::new(0.5);
        let mut p = [1.0f32, 2.0];
        opt.update(0, &mut p, &[1.0, -2.0]);
        assert_eq!(p, [0.5, 3.0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ≈ lr * sign(g).
        let mut opt = Adam::new(0.1);
        let mut p = [0.0f32];
        opt.update(0, &mut p, &[5.0]);
        assert!((p[0] + 0.1).abs() < 1e-4, "p={}", p[0]);
    }

    #[test]
    fn optimizers_keep_slots_independent() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0f32];
        let mut b = [0.0f32, 0.0];
        opt.update(0, &mut a, &[1.0]);
        opt.update(1, &mut b, &[1.0, -1.0]);
        opt.update(0, &mut a, &[1.0]);
        assert!(a[0] < 0.0);
        assert!(b[0] < 0.0 && b[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }
}
