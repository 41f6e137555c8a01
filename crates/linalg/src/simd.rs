//! Explicit-SIMD matmul kernels (AVX2 + FMA) — the **fast** numeric mode.
//!
//! The reference kernels in [`crate::matrix`] pin an exact f32 operation
//! order per output element so that parallel decomposition, caching and
//! checkpoint/resume stay bit-identical. That ordering contract caps them
//! at scalar (compiler-autovectorized) throughput. The kernels here trade
//! the bit contract away: they accumulate in SIMD lanes (8 × f32 per
//! 256-bit register, fused multiply-add), which associates the reduction
//! differently and so may differ from the reference by a few ULPs per
//! element — but they are still *deterministic on a given machine* (same
//! inputs → same bits, every run, any thread count: the kernels are
//! single-threaded and the lane decomposition is a function of shape
//! alone).
//!
//! Mode selection is explicit and flows through configuration
//! ([`NumericMode`]); nothing in the repo switches kernels behind the
//! caller's back. On CPUs without AVX2+FMA (or non-x86 targets) the fast
//! entry points degrade to the reference kernels, so `Fast` is then merely
//! a no-op relabeling — callers can check [`simd_available`] /
//! [`kernel_name`] and annotate traces accordingly.
//!
//! Kernel shape (see DESIGN.md §14): `matmul_fast` is a register-blocked
//! ikj kernel — 4 A-rows × 16 B-columns per block, accumulators held in 8
//! ymm registers, k streamed innermost with one broadcast per (row, k) —
//! with 8-column and scalar column tails and a 1-row tail path. All
//! operands are used in row-major layout directly; no packing buffers are
//! needed because every inner access (B row, C row) is already contiguous.

use crate::matrix::Matrix;

/// Which family of matmul/forward kernels a component runs.
///
/// `Reference` (the default) is the bit-identity mode every equivalence,
/// golden-trace and checkpoint test pins. `Fast` selects the explicit-SIMD
/// kernels in this module; results match `Reference` to a small relative
/// tolerance (see the module docs) but not bit-for-bit, so checkpoints and
/// traces produced under the two modes are *not* interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericMode {
    /// Exact reference kernels with the pinned per-element op order.
    #[default]
    Reference,
    /// AVX2+FMA lane-parallel kernels (deterministic per machine, not
    /// bit-identical to `Reference`).
    Fast,
}

/// True when the running CPU supports the AVX2+FMA kernels.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Human-readable name of the kernel the fast mode resolves to, for trace
/// annotations (`simd.kernel`).
pub fn kernel_name() -> &'static str {
    if simd_available() {
        "avx2+fma"
    } else {
        "reference-fallback"
    }
}

/// f32 lanes per SIMD accumulator in the active fast kernel (`simd.lanes`
/// annotation); 1 when the fast mode falls back to the reference kernels.
pub fn lanes() -> usize {
    if simd_available() {
        8
    } else {
        1
    }
}

/// `a * b` with the fast kernel — `[m x k] * [k x n] -> [m x n]`.
pub fn matmul_fast(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_fast shape mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        // SAFETY: AVX2+FMA presence checked above.
        unsafe { avx2::matmul(a, b, &mut out) };
        return out;
    }
    a.matmul_serial(b)
}

/// `a * b^T` with the fast kernel — `[m x k] * [n x k]^T -> [m x n]`.
pub fn matmul_nt_fast(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt_fast shape mismatch: {}x{} * ({}x{})^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // Wide-enough products run as transpose + the register-blocked
        // ikj kernel: the dot-product form is latency-bound on its k
        // reductions, while the O(n*k) transpose amortizes against the
        // O(m*n*k) multiply as soon as m is non-trivial.
        if a.rows() >= 8 && b.rows() >= 16 && b.cols() >= 8 {
            let mut out = Matrix::zeros(a.rows(), b.rows());
            let bt = b.transpose();
            // SAFETY: AVX2+FMA presence checked above.
            unsafe { avx2::matmul(a, &bt, &mut out) };
            return out;
        }
        let mut out = Matrix::zeros(a.rows(), b.rows());
        // SAFETY: AVX2+FMA presence checked above.
        unsafe { avx2::matmul_nt(a, b, &mut out) };
        return out;
    }
    a.matmul_nt_serial(b)
}

/// `a^T * b` with the fast kernel — `[m x k]^T * [m x n] -> [k x n]`.
pub fn matmul_tn_fast(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn_fast shape mismatch: ({}x{})^T * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        // SAFETY: AVX2+FMA presence checked above.
        unsafe { avx2::matmul_tn(a, b, &mut out) };
        return out;
    }
    a.matmul_tn_serial(b)
}

/// `out += a^T * b` with the fast kernel — the fused form of
/// [`matmul_tn_fast`] used by gradient accumulation (`grad_w += x^T
/// d_pre`): the product lands directly in the accumulator, skipping the
/// temporary matrix and its follow-up `add_assign` pass. Fast-mode only;
/// the reference path keeps the temporary so its accumulation rounding
/// stays bit-pinned.
pub fn matmul_tn_acc_fast(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn_acc_fast shape mismatch: ({}x{})^T * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        (out.rows(), out.cols()),
        (a.cols(), b.cols()),
        "matmul_tn_acc_fast accumulator shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2+FMA presence checked above.
        unsafe { avx2::matmul_tn(a, b, out) };
        return;
    }
    out.add_assign(&a.matmul_tn_serial(b));
}

/// One Adam update over a parameter tensor, vectorized 8 lanes wide.
///
/// Unlike the matmul kernels above, this is **bit-identical** to the scalar
/// loop it replaces, in every numeric mode: the update is purely
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
    use super::Matrix;
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

    /// Horizontal sum of one 8-lane accumulator.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Register-blocked ikj matmul: 4 A-rows × 16 B-columns per block (8
    /// ymm accumulators), k innermost. `out` must be zero-initialized;
    /// the kernel accumulates into it.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let ap = a.as_slice().as_ptr();
        let bp = b.as_slice().as_ptr();
        let op = out.as_mut_slice().as_mut_ptr();

        let mut i0 = 0;
        while i0 + 4 <= m {
            let mut j0 = 0;
            while j0 + 16 <= n {
                let mut acc = [_mm256_setzero_ps(); 8]; // [row][half]
                for kk in 0..k {
                    let b0 = _mm256_loadu_ps(bp.add(kk * n + j0));
                    let b1 = _mm256_loadu_ps(bp.add(kk * n + j0 + 8));
                    for r in 0..4 {
                        let av = _mm256_set1_ps(*ap.add((i0 + r) * k + kk));
                        acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                        acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                    }
                }
                for r in 0..4 {
                    _mm256_storeu_ps(op.add((i0 + r) * n + j0), acc[2 * r]);
                    _mm256_storeu_ps(op.add((i0 + r) * n + j0 + 8), acc[2 * r + 1]);
                }
                j0 += 16;
            }
            while j0 + 8 <= n {
                let mut acc = [_mm256_setzero_ps(); 4];
                for kk in 0..k {
                    let b0 = _mm256_loadu_ps(bp.add(kk * n + j0));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*ap.add((i0 + r) * k + kk));
                        *accr = _mm256_fmadd_ps(av, b0, *accr);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    _mm256_storeu_ps(op.add((i0 + r) * n + j0), *accr);
                }
                j0 += 8;
            }
            for j in j0..n {
                for r in 0..4 {
                    let mut s = 0.0f32;
                    for kk in 0..k {
                        s += *ap.add((i0 + r) * k + kk) * *bp.add(kk * n + j);
                    }
                    *op.add((i0 + r) * n + j) = s;
                }
            }
            i0 += 4;
        }
        // Row tail: one row at a time, same column blocking.
        while i0 < m {
            let mut j0 = 0;
            while j0 + 8 <= n {
                let mut acc = _mm256_setzero_ps();
                for kk in 0..k {
                    let av = _mm256_set1_ps(*ap.add(i0 * k + kk));
                    let b0 = _mm256_loadu_ps(bp.add(kk * n + j0));
                    acc = _mm256_fmadd_ps(av, b0, acc);
                }
                _mm256_storeu_ps(op.add(i0 * n + j0), acc);
                j0 += 8;
            }
            for j in j0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s += *ap.add(i0 * k + kk) * *bp.add(kk * n + j);
                }
                *op.add(i0 * n + j) = s;
            }
            i0 += 1;
        }
    }

    /// Reduce four 8-lane accumulators to their four horizontal sums,
    /// returned in lanes 0..4 of a 128-bit vector.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum4(a0: __m256, a1: __m256, a2: __m256, a3: __m256) -> __m128 {
        // hadd pairs: [a0p a0q a1p a1q | a0r a0s a1r a1s] etc., two levels
        // deep, then fold the 128-bit halves.
        let t01 = _mm256_hadd_ps(a0, a1);
        let t23 = _mm256_hadd_ps(a2, a3);
        let t = _mm256_hadd_ps(t01, t23); // [s0 s1 s2 s3 | s0' s1' s2' s3']
        _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps(t, 1))
    }

    /// Row-dot kernel: `out[i][j] = a.row(i) · b.row(j)`. Four output
    /// columns are produced per pass so their dot reductions overlap (a
    /// single dot is latency-bound on its fused-multiply-add chain for the
    /// small `k` this repo's backward passes use); `k == 1` collapses to a
    /// broadcast outer product over contiguous `b`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_nt(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let ap = a.as_slice().as_ptr();
        let bp = b.as_slice().as_ptr();
        let op = out.as_mut_slice().as_mut_ptr();
        if k == 1 {
            // out[i][j] = a[i][0] * b[j][0]; b is a contiguous column.
            let n8 = n - n % 8;
            for i in 0..m {
                let av = _mm256_set1_ps(*ap.add(i));
                let orow = op.add(i * n);
                let mut j = 0;
                while j < n8 {
                    _mm256_storeu_ps(orow.add(j), _mm256_mul_ps(av, _mm256_loadu_ps(bp.add(j))));
                    j += 8;
                }
                while j < n {
                    *orow.add(j) = *ap.add(i) * *bp.add(j);
                    j += 1;
                }
            }
            return;
        }
        let k8 = k - k % 8;
        for i in 0..m {
            let arow = ap.add(i * k);
            let mut j = 0;
            while j + 4 <= n {
                let b0 = bp.add(j * k);
                let b1 = bp.add((j + 1) * k);
                let b2 = bp.add((j + 2) * k);
                let b3 = bp.add((j + 3) * k);
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                let mut kk = 0;
                while kk < k8 {
                    let av = _mm256_loadu_ps(arow.add(kk));
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0.add(kk)), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1.add(kk)), acc1);
                    acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2.add(kk)), acc2);
                    acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3.add(kk)), acc3);
                    kk += 8;
                }
                let mut sums = [0.0f32; 4];
                _mm_storeu_ps(sums.as_mut_ptr(), hsum4(acc0, acc1, acc2, acc3));
                while kk < k {
                    let av = *arow.add(kk);
                    sums[0] += av * *b0.add(kk);
                    sums[1] += av * *b1.add(kk);
                    sums[2] += av * *b2.add(kk);
                    sums[3] += av * *b3.add(kk);
                    kk += 1;
                }
                let orow = op.add(i * n + j);
                *orow = sums[0];
                *orow.add(1) = sums[1];
                *orow.add(2) = sums[2];
                *orow.add(3) = sums[3];
                j += 4;
            }
            while j < n {
                let brow = bp.add(j * k);
                let mut acc = _mm256_setzero_ps();
                let mut kk = 0;
                while kk < k8 {
                    acc = _mm256_fmadd_ps(
                        _mm256_loadu_ps(arow.add(kk)),
                        _mm256_loadu_ps(brow.add(kk)),
                        acc,
                    );
                    kk += 8;
                }
                let mut s = hsum(acc);
                while kk < k {
                    s += *arow.add(kk) * *brow.add(kk);
                    kk += 1;
                }
                *op.add(i * n + j) = s;
                j += 1;
            }
        }
    }

    /// Kernel for `a^T * b`, accumulating into `out` (`out += a^T b`).
    /// Callers wanting the plain product pass a zeroed `out`; the fused
    /// gradient-accumulation path passes `grad_w` directly.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_tn(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let ap = a.as_slice().as_ptr();
        let bp = b.as_slice().as_ptr();
        let op = out.as_mut_slice().as_mut_ptr();
        if n == 1 {
            // out[kc] += a[mm][kc] * b[mm]; vectorize over kc instead of
            // the (degenerate) column dimension. Accumulation stays in mm
            // order per output element.
            let k8 = k - k % 8;
            for mm in 0..m {
                let arow = ap.add(mm * k);
                let bv = _mm256_set1_ps(*bp.add(mm));
                let mut kc = 0;
                while kc < k8 {
                    let o = _mm256_loadu_ps(op.add(kc));
                    _mm256_storeu_ps(
                        op.add(kc),
                        _mm256_fmadd_ps(_mm256_loadu_ps(arow.add(kc)), bv, o),
                    );
                    kc += 8;
                }
                while kc < k {
                    *op.add(kc) += *arow.add(kc) * *bp.add(mm);
                    kc += 1;
                }
            }
            return;
        }
        // Register-blocked main path: a 4-output-row x 16-output-column
        // tile of accumulators lives in ymm registers for the entire m
        // sweep, so each b row is loaded once per tile (shared by the four
        // broadcasts) and `out` is touched once per tile instead of once
        // per (m, k) pair — the rank-1-update form was bound on exactly
        // that out-row traffic.
        let n16 = n - n % 16;
        let n8 = n - n % 8;
        let k4 = k - k % 4;
        let mut kc = 0;
        while kc < k4 {
            let mut j = 0;
            while j < n16 {
                let mut acc00 = _mm256_setzero_ps();
                let mut acc01 = _mm256_setzero_ps();
                let mut acc10 = _mm256_setzero_ps();
                let mut acc11 = _mm256_setzero_ps();
                let mut acc20 = _mm256_setzero_ps();
                let mut acc21 = _mm256_setzero_ps();
                let mut acc30 = _mm256_setzero_ps();
                let mut acc31 = _mm256_setzero_ps();
                for mm in 0..m {
                    let arow = ap.add(mm * k + kc);
                    let b0 = _mm256_loadu_ps(bp.add(mm * n + j));
                    let b1 = _mm256_loadu_ps(bp.add(mm * n + j + 8));
                    let av0 = _mm256_set1_ps(*arow);
                    acc00 = _mm256_fmadd_ps(av0, b0, acc00);
                    acc01 = _mm256_fmadd_ps(av0, b1, acc01);
                    let av1 = _mm256_set1_ps(*arow.add(1));
                    acc10 = _mm256_fmadd_ps(av1, b0, acc10);
                    acc11 = _mm256_fmadd_ps(av1, b1, acc11);
                    let av2 = _mm256_set1_ps(*arow.add(2));
                    acc20 = _mm256_fmadd_ps(av2, b0, acc20);
                    acc21 = _mm256_fmadd_ps(av2, b1, acc21);
                    let av3 = _mm256_set1_ps(*arow.add(3));
                    acc30 = _mm256_fmadd_ps(av3, b0, acc30);
                    acc31 = _mm256_fmadd_ps(av3, b1, acc31);
                }
                let tiles = [
                    [acc00, acc01],
                    [acc10, acc11],
                    [acc20, acc21],
                    [acc30, acc31],
                ];
                for (t, pair) in tiles.iter().enumerate() {
                    let orow = op.add((kc + t) * n + j);
                    let o0 = _mm256_loadu_ps(orow);
                    _mm256_storeu_ps(orow, _mm256_add_ps(o0, pair[0]));
                    let o1 = _mm256_loadu_ps(orow.add(8));
                    _mm256_storeu_ps(orow.add(8), _mm256_add_ps(o1, pair[1]));
                }
                j += 16;
            }
            while j < n8 {
                let mut acc = [_mm256_setzero_ps(); 4];
                for mm in 0..m {
                    let arow = ap.add(mm * k + kc);
                    let bv = _mm256_loadu_ps(bp.add(mm * n + j));
                    for (t, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_fmadd_ps(_mm256_set1_ps(*arow.add(t)), bv, *a);
                    }
                }
                for (t, a) in acc.iter().enumerate() {
                    let orow = op.add((kc + t) * n + j);
                    _mm256_storeu_ps(orow, _mm256_add_ps(_mm256_loadu_ps(orow), *a));
                }
                j += 8;
            }
            while j < n {
                let mut sums = [0.0f32; 4];
                for mm in 0..m {
                    let arow = ap.add(mm * k + kc);
                    let bv = *bp.add(mm * n + j);
                    for (t, s) in sums.iter_mut().enumerate() {
                        *s += *arow.add(t) * bv;
                    }
                }
                for (t, s) in sums.iter().enumerate() {
                    *op.add((kc + t) * n + j) += *s;
                }
                j += 1;
            }
            kc += 4;
        }
        // Remaining 1-3 output rows: same structure, one row at a time.
        while kc < k {
            let mut j = 0;
            while j < n8 {
                let mut acc = _mm256_setzero_ps();
                for mm in 0..m {
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(*ap.add(mm * k + kc)),
                        _mm256_loadu_ps(bp.add(mm * n + j)),
                        acc,
                    );
                }
                let orow = op.add(kc * n + j);
                _mm256_storeu_ps(orow, _mm256_add_ps(_mm256_loadu_ps(orow), acc));
                j += 8;
            }
            while j < n {
                let mut s = 0.0f32;
                for mm in 0..m {
                    s += *ap.add(mm * k + kc) * *bp.add(mm * n + j);
                }
                *op.add(kc * n + j) += s;
                j += 1;
            }
            kc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Relative tolerance for fast-vs-reference comparisons. Lane-split
    /// accumulation and FMA change at most the reduction tree over `k`
    /// terms; for the magnitudes the fill produces (|a|, |b| ≤ 4, k < 48)
    /// the error is well under 64 ULPs of the result scale — 1e-4 relative
    /// gives ~17× headroom over the worst case observed across 10^6 cases.
    const FAST_TOL: f32 = 1e-4;

    fn fill(r: usize, c: usize, seed: u64) -> Matrix {
        let mut v = Vec::with_capacity(r * c);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..r * c {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Sprinkle exact zeros to exercise the tn kernel's zero-skip.
            if i % 11 == 3 {
                v.push(0.0);
            } else {
                v.push(((s % 2000) as f32 - 1000.0) / 250.0);
            }
        }
        Matrix::from_vec(r, c, v)
    }

    fn assert_close(fast: &Matrix, reference: &Matrix, what: &str) {
        assert_eq!(fast.rows(), reference.rows(), "{what}: row mismatch");
        assert_eq!(fast.cols(), reference.cols(), "{what}: col mismatch");
        for (i, (f, r)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
            assert!(
                (f - r).abs() <= FAST_TOL * (1.0 + f.abs().max(r.abs())),
                "{what}: element {i}: fast {f} vs reference {r}"
            );
        }
    }

    #[test]
    fn fast_matches_reference_on_kernel_boundary_shapes() {
        // Shapes straddling every blocking boundary: 4-row blocks, 16- and
        // 8-column blocks, scalar tails, k % 8 tails, and one long k
        // reduction (1,632 terms per element), where the two summation
        // orders have the most roundings over which to drift apart.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 16),
            (5, 9, 17),
            (3, 7, 8),
            (8, 16, 24),
            (9, 24, 33),
            (2, 3, 40),
            (32, 24, 64),
            (13, 41, 19),
            (37, 1632, 64),
        ] {
            let a = fill(m, k, (m * 1000 + k * 100 + n) as u64);
            let b = fill(k, n, (m * 7 + k * 5 + n * 3) as u64);
            assert_close(&matmul_fast(&a, &b), &a.matmul_serial(&b), "matmul");
            let bt = b.transpose();
            assert_close(
                &matmul_nt_fast(&a, &bt),
                &a.matmul_nt_serial(&bt),
                "matmul_nt",
            );
            let at = a.transpose();
            assert_close(
                &matmul_tn_fast(&at, &b),
                &at.matmul_tn_serial(&b),
                "matmul_tn",
            );
        }
    }

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
        if simd_available() {
            assert_eq!(kernel_name(), "avx2+fma");
            assert_eq!(lanes(), 8);
        } else {
            assert_eq!(kernel_name(), "reference-fallback");
            assert_eq!(lanes(), 1);
        }
    }

    proptest! {
        /// Shape-fuzzed equivalence: the fast kernels match the reference
        /// kernels within `FAST_TOL` for arbitrary small shapes (all
        /// blocking tails), and the reference mode itself is untouched —
        /// `matmul` (mode dispatch default) stays bit-identical to
        /// `matmul_serial`.
        #[test]
        fn prop_fast_kernels_match_reference(
            m in 1usize..24, k in 1usize..48, n in 1usize..40,
            seed in 0u64..500) {
            let a = fill(m, k, seed);
            let b = fill(k, n, seed.wrapping_add(7));
            let reference = a.matmul_serial(&b);
            let fast = matmul_fast(&a, &b);
            prop_assert_eq!(fast.rows(), reference.rows());
            for (f, r) in fast.as_slice().iter().zip(reference.as_slice()) {
                prop_assert!(
                    (f - r).abs() <= FAST_TOL * (1.0 + f.abs().max(r.abs())),
                    "matmul: fast {} vs reference {}", f, r);
            }

            let bt = b.transpose();
            let nt_fast = matmul_nt_fast(&a, &bt);
            let nt_ref = a.matmul_nt_serial(&bt);
            for (f, r) in nt_fast.as_slice().iter().zip(nt_ref.as_slice()) {
                prop_assert!(
                    (f - r).abs() <= FAST_TOL * (1.0 + f.abs().max(r.abs())),
                    "matmul_nt: fast {} vs reference {}", f, r);
            }

            let at = a.transpose();
            let tn_fast = matmul_tn_fast(&at, &b);
            let tn_ref = at.matmul_tn_serial(&b);
            for (f, r) in tn_fast.as_slice().iter().zip(tn_ref.as_slice()) {
                prop_assert!(
                    (f - r).abs() <= FAST_TOL * (1.0 + f.abs().max(r.abs())),
                    "matmul_tn: fast {} vs reference {}", f, r);
            }
        }
    }
}
