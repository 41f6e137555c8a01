//! Bit pin for the `Reference` matmul kernels: every product must equal a
//! scalar oracle with the documented per-element operation order, compared
//! with `to_bits` so the sign of zero and the zero-skip are pinned too
//! (`f32` equality treats +0.0 and −0.0 as equal).
//!
//! The oracles are the contract:
//! * each output element accumulates from +0.0 in ascending k, with the
//!   multiply and the add rounded separately;
//! * `matmul` and `matmul_tn` skip terms whose A entry `== 0.0` (either
//!   sign), so a zero A entry never meets an infinite B entry;
//! * `matmul_nt` skips nothing.
//!
//! Shapes run m 0..=9, k 0..=9 and n 0..=33, across the kernels' 4-row
//! tile bands with their 2- and 1-row tails, the portable tiles' 4- and
//! 8-column panels and the AVX2 kernels' 16- and 8-column vector panels
//! with every tail of fewer than 8 columns, through the serial entry,
//! the dispatching entry and the pool-chunked entry at several chunk
//! sizes. On a CPU with AVX2 the entries run the AVX2 kernels (and the
//! portable tiles where `matmul` or `matmul_tn` meets ±inf in B), so one
//! oracle pins both.

use crowdrl_linalg::Matrix;

/// Deterministic fill with full 24-bit mantissas (so every product and
/// sum rounds), about a quarter of the entries ±0.0.
fn fill(r: usize, c: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..r * c)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 8 {
                0 => 0.0,
                1 => -0.0,
                _ => ((s >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0,
            }
        })
        .collect()
}

/// A `[m x k]` with every third k index "dead" (all entries ±0.0), and
/// B `[k x n]`. With `inf`, B's dead rows hold ±inf: only the zero-skip
/// keeps 0·inf = NaN out of the `matmul` sums. Without it B is finite,
/// where a skipped zero term and an added one must give the same bits.
fn operands(m: usize, k: usize, n: usize, seed: u64, inf: bool) -> (Matrix, Matrix) {
    let mut a = fill(m, k, seed);
    let mut b = fill(k, n, seed ^ 0x5555);
    for kk in (1..k).step_by(3) {
        for i in 0..m {
            a[i * k + kk] = if (i + kk) % 2 == 0 { 0.0 } else { -0.0 };
        }
        for j in (0..n).filter(|_| inf) {
            b[kk * n + j] = match j % 3 {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                _ => b[kk * n + j],
            };
        }
    }
    (Matrix::from_vec(m, k, a), Matrix::from_vec(k, n, b))
}

/// `a [m x k] * b [k x n]`, zero-skipping `a`.
fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for kk in 0..a.cols() {
                let x = a.get(i, kk);
                if x == 0.0 {
                    continue;
                }
                acc += x * b.get(kk, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `a^T [k x m] * b [m x n]`, zero-skipping `a`, summing over m.
fn oracle_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for kk in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for m in 0..a.rows() {
                let x = a.get(m, kk);
                if x == 0.0 {
                    continue;
                }
                acc += x * b.get(m, j);
            }
            out.set(kk, j, acc);
        }
    }
    out
}

/// `a [m x k] * (b [n x k])^T`, skipping nothing.
fn oracle_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for kk in 0..a.cols() {
                acc += a.get(i, kk) * b.get(j, kk);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn assert_bits(label: &str, want: &Matrix, got: &Matrix) {
    assert_eq!(
        (want.rows(), want.cols()),
        (got.rows(), got.cols()),
        "{label}: shape"
    );
    for (e, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "{label}: element {e} is {g} ({:08x}), oracle {w} ({:08x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Run `check(a, b)` on the operands of every shape in the pinned range,
/// with and without ±inf in B.
fn for_each_shape(mut check: impl FnMut(&Matrix, &Matrix)) {
    for m in 0..=9 {
        for k in 0..=9 {
            for n in 0..=33 {
                for inf in [false, true] {
                    let seed = (m * 400 + k * 20 + n) as u64 * 2 + inf as u64;
                    let (a, b) = operands(m, k, n, seed, inf);
                    check(&a, &b);
                }
            }
        }
    }
}

#[test]
fn matmul_matches_the_scalar_oracle_bit_for_bit() {
    for_each_shape(|a, b| {
        let want = oracle_matmul(a, b);
        let label = format!("matmul {}x{}·{}x{}", a.rows(), a.cols(), b.rows(), b.cols());
        assert_bits(&label, &want, &a.matmul_serial(b));
        assert_bits(&label, &want, &a.matmul(b));
        for chunk in [1, 3, 5] {
            assert_bits(&label, &want, &a.matmul_chunked(b, chunk));
        }
    });
}

#[test]
fn matmul_tn_matches_the_scalar_oracle_bit_for_bit() {
    // `at` is `[k x m]`: its dead rows (all ±0.0) face B's ±inf rows in
    // the sum over the shared dimension.
    for_each_shape(|a, b| {
        let at = a.transpose();
        let want = oracle_tn(&at, b);
        let label = format!(
            "matmul_tn ({}x{})^T·{}x{}",
            at.rows(),
            at.cols(),
            b.rows(),
            b.cols()
        );
        assert_bits(&label, &want, &at.matmul_tn_serial(b));
        assert_bits(&label, &want, &at.matmul_tn(b));
        for chunk in [1, 3, 5] {
            assert_bits(&label, &want, &at.matmul_tn_chunked(b, chunk));
        }
    });
}

#[test]
fn matmul_nt_matches_the_scalar_oracle_bit_for_bit() {
    // No skip: a dead A column meeting a ±inf B entry yields NaN, and a
    // −0.0 product must still land on the +0.0 accumulator.
    for_each_shape(|a, b| {
        let bt = b.transpose();
        let want = oracle_nt(a, &bt);
        let label = format!(
            "matmul_nt {}x{}·({}x{})^T",
            a.rows(),
            a.cols(),
            bt.rows(),
            bt.cols()
        );
        assert_bits(&label, &want, &a.matmul_nt_serial(&bt));
        assert_bits(&label, &want, &a.matmul_nt(&bt));
        for chunk in [1, 3, 5] {
            assert_bits(&label, &want, &a.matmul_nt_chunked(&bt, chunk));
        }
    });
}
