//! Criterion microbenchmarks: the `Reference` matmul kernels at the shapes
//! the benchmark workloads run — the classifier's 200-d, 2-class softmax
//! head, the DQN's 15→64→32→1 network at batch 32 (forward products and
//! the backward `xᵀ·d` and `d·Wᵀ` products), the Q head over a 1,024-row
//! candidate batch, and the paper-scale 2344×1632 · 1632×64 product.
//!
//! Every product runs its forced-serial entry, so the figures are one
//! core's kernel time with no pool hand-off. Operands fed by a ReLU layer
//! have about half their entries at exactly zero, as in training, since
//! `matmul` and `matmul_tn` skip zero terms. The file calls only kernel
//! entries that have been public since the pool landed, so the same file
//! times an older checkout for a before/after table.

use criterion::{criterion_group, criterion_main, Criterion};
use crowdrl_linalg::Matrix;
use std::hint::black_box;

/// Deterministic fill in [-1, 1); `relu` zeroes the negative half.
fn fill(rows: usize, cols: usize, seed: u64, relu: bool) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let v = (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
            if relu {
                v.max(0.0)
            } else {
                v
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");

    // matmul: x [m x k] · W [k x n]; (m, k, n, x fed by a ReLU).
    for (m, k, n, relu) in [
        (32, 200, 2, false),
        (32, 15, 64, false),
        (32, 64, 32, true),
        (32, 32, 1, true),
        (1024, 32, 1, true),
        (2344, 1632, 64, false),
    ] {
        let x = fill(m, k, 1, relu);
        let w = fill(k, n, 2, false);
        group.bench_function(format!("matmul {m}x{k}·{k}x{n}"), |b| {
            b.iter(|| black_box(x.matmul_serial(&w)))
        });
    }

    // matmul_tn: xᵀ · d, x [m x k], d [m x n] -> [k x n] (weight gradient).
    for (m, k, n, relu) in [
        (32, 200, 2, false),
        (32, 15, 64, false),
        (32, 64, 32, true),
        (32, 32, 1, true),
    ] {
        let x = fill(m, k, 3, relu);
        let d = fill(m, n, 4, false);
        group.bench_function(format!("matmul_tn ({m}x{k})ᵀ·{m}x{n}"), |b| {
            b.iter(|| black_box(x.matmul_tn_serial(&d)))
        });
    }

    // matmul_nt: d · Wᵀ, d [m x k], W [n x k] -> [m x n] (input gradient).
    for (m, k, n) in [(32, 1, 32), (32, 32, 64)] {
        let d = fill(m, k, 5, false);
        let w = fill(n, k, 6, false);
        group.bench_function(format!("matmul_nt {m}x{k}·({n}x{k})ᵀ"), |b| {
            b.iter(|| black_box(d.matmul_nt_serial(&w)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
