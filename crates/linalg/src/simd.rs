//! Runtime AVX2 detection, and the AVX2 Adam update that is
//! bit-identical to the scalar loop it replaces.
//!
//! Every matmul runs the register-tiled kernels in [`crate::matrix`],
//! whose exact per-element f32 operation order keeps parallel
//! decomposition, caching and checkpoint/resume bit-identical. The
//! explicit-SIMD kernels keep that contract: the matrix module's AVX2
//! tile kernels give each output lane the portable element's own
//! sequence, and the Adam update is purely elementwise, so an 8-lane
//! kernel that performs the scalar expression's operations in the scalar
//! expression's order (no FMA, no reassociation) computes the same bits.
//! Both are picked once by runtime detection; [`simd_available`] and
//! [`kernel_name`] report which path runs, for trace annotations.

/// The numeric mode of a run. `Reference`, the bit-pinned kernels, is the
/// only mode, so the type selects nothing. It stays because two config
/// fields carry it (`CrowdRlConfig::fingerprint` hashes them, so removing
/// them would change the fingerprint of every existing checkpoint) and
/// the benchmark sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericMode {
    /// Exact reference kernels with the pinned per-element op order.
    #[default]
    Reference,
}

/// True when the running CPU supports AVX2, and with it the AVX2 Adam
/// update and matmul tile kernels.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Name of the kernels this CPU runs — the Adam update and the matmul
/// tile kernels — for trace annotations (`simd.kernel`): `avx2` or
/// `scalar`.
pub fn kernel_name() -> &'static str {
    if simd_available() {
        "avx2"
    } else {
        "scalar"
    }
}

/// One Adam update over a parameter tensor, vectorized 8 lanes wide.
///
/// **Bit-identical** to the scalar loop it replaces: the update is purely
/// elementwise, each op (`mul`, `add`, `sub`, `div`, `sqrt`) is singly
/// rounded per IEEE 754 in both scalar and AVX2 forms, and the kernel
/// performs exactly the scalar expression's operations in the scalar
/// expression's order — no FMA contraction, no reduction reassociation.
/// It therefore runs unconditionally when AVX2 is present; checkpoints and
/// golden traces are unaffected.
///
/// Per element: `m = b1*m + (1-b1)*g`, `v = b2*v + ((1-b2)*g)*g`,
/// `p -= (lr * (m/b1t)) / (sqrt(v/b2t) + eps)` where `b1t`/`b2t` are the
/// bias-correction denominators for the current step.
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    b1t: f32,
    b2t: f32,
) {
    assert_eq!(param.len(), grad.len());
    assert_eq!(param.len(), m.len());
    assert_eq!(param.len(), v.len());
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 presence checked above; slices share one length.
        unsafe {
            i = avx2::adam_update(param, grad, m, v, lr, beta1, beta2, eps, b1t, b2t);
        }
    }
    // Scalar path / lane tail — the reference expression.
    for j in i..param.len() {
        m[j] = beta1 * m[j] + (1.0 - beta1) * grad[j];
        v[j] = beta2 * v[j] + (1.0 - beta2) * grad[j] * grad[j];
        let m_hat = m[j] / b1t;
        let v_hat = v[j] / b2t;
        param[j] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// 8-lane Adam update body. Uses only singly-rounded lane ops
    /// (`mul`/`add`/`sub`/`div`/`sqrt`, never FMA) in the scalar
    /// expression's order, so each lane computes bit-exactly what the
    /// scalar loop computes for that element. Returns how many elements
    /// were consumed (a multiple of 8); the caller finishes the tail.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_update(
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        b1t: f32,
        b2t: f32,
    ) -> usize {
        let n8 = param.len() - param.len() % 8;
        let pp = param.as_mut_ptr();
        let gp = grad.as_ptr();
        let mp = m.as_mut_ptr();
        let vp = v.as_mut_ptr();
        let b1 = _mm256_set1_ps(beta1);
        let b2 = _mm256_set1_ps(beta2);
        let one_m_b1 = _mm256_set1_ps(1.0 - beta1);
        let one_m_b2 = _mm256_set1_ps(1.0 - beta2);
        let lrv = _mm256_set1_ps(lr);
        let epsv = _mm256_set1_ps(eps);
        let b1tv = _mm256_set1_ps(b1t);
        let b2tv = _mm256_set1_ps(b2t);
        let mut i = 0;
        while i < n8 {
            let g = _mm256_loadu_ps(gp.add(i));
            // m = b1*m + (1-b1)*g
            let mv = _mm256_add_ps(
                _mm256_mul_ps(b1, _mm256_loadu_ps(mp.add(i))),
                _mm256_mul_ps(one_m_b1, g),
            );
            _mm256_storeu_ps(mp.add(i), mv);
            // v = b2*v + ((1-b2)*g)*g  — left-associated like the scalar.
            let vv = _mm256_add_ps(
                _mm256_mul_ps(b2, _mm256_loadu_ps(vp.add(i))),
                _mm256_mul_ps(_mm256_mul_ps(one_m_b2, g), g),
            );
            _mm256_storeu_ps(vp.add(i), vv);
            // p -= (lr*(m/b1t)) / (sqrt(v/b2t) + eps)
            let m_hat = _mm256_div_ps(mv, b1tv);
            let v_hat = _mm256_div_ps(vv, b2tv);
            let step = _mm256_div_ps(
                _mm256_mul_ps(lrv, m_hat),
                _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv),
            );
            _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), step));
            i += 8;
        }
        n8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_update_is_bit_identical_to_scalar() {
        // Lengths straddle the 8-lane boundary; values include exact
        // zeros, negatives and mixed magnitudes. Equality is `to_bits`
        // exact — this kernel carries no tolerance.
        for len in [1usize, 7, 8, 9, 16, 23, 40, 129] {
            let g: Vec<f32> = (0..len)
                .map(|i| {
                    if i % 9 == 4 {
                        0.0
                    } else {
                        ((i as f32) * 0.37 - 3.0) * if i % 2 == 0 { 1.0 } else { -1.3 }
                    }
                })
                .collect();
            let p0: Vec<f32> = (0..len).map(|i| (i as f32) * 0.11 - 1.0).collect();
            let (lr, b1, b2, eps) = (1e-3f32, 0.9f32, 0.999f32, 1e-8f32);

            // Run three steps through both paths, carrying state.
            let mut ps = p0.clone();
            let mut ms = vec![0.0f32; len];
            let mut vs = vec![0.0f32; len];
            let mut pk = p0;
            let mut mk = vec![0.0f32; len];
            let mut vk = vec![0.0f32; len];
            for t in 1..=3i32 {
                let b1t = 1.0 - b1.powi(t);
                let b2t = 1.0 - b2.powi(t);
                for i in 0..len {
                    ms[i] = b1 * ms[i] + (1.0 - b1) * g[i];
                    vs[i] = b2 * vs[i] + (1.0 - b2) * g[i] * g[i];
                    let m_hat = ms[i] / b1t;
                    let v_hat = vs[i] / b2t;
                    ps[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
                adam_update(&mut pk, &g, &mut mk, &mut vk, lr, b1, b2, eps, b1t, b2t);
                for i in 0..len {
                    assert_eq!(
                        ps[i].to_bits(),
                        pk[i].to_bits(),
                        "len {len} t {t} elem {i}: scalar {} vs kernel {}",
                        ps[i],
                        pk[i]
                    );
                    assert_eq!(
                        ms[i].to_bits(),
                        mk[i].to_bits(),
                        "m: len {len} t {t} elem {i}"
                    );
                    assert_eq!(
                        vs[i].to_bits(),
                        vk[i].to_bits(),
                        "v: len {len} t {t} elem {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_introspection_is_consistent() {
        let want = if simd_available() { "avx2" } else { "scalar" };
        assert_eq!(kernel_name(), want);
    }
}
