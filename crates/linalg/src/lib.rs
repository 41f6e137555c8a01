//! # crowdrl-linalg
//!
//! Minimal dense linear algebra backing the CrowdRL neural-network
//! substrate (`crowdrl-nn`): a row-major `f32` [`Matrix`] with the handful
//! of kernels a feed-forward network needs — plain/transposed matrix
//! products as register-tiled kernels, element-wise updates, and the
//! row-wise softmax/argmax used by classifier heads.
//!
//! The crate is deliberately tiny and self-contained — owning the kernels
//! keeps the whole reproduction auditable. Large products are
//! row-partitioned across a small reusable worker [`pool`]
//! whose fixed chunk boundaries and fixed-order reductions make every
//! result **bit-identical for any thread count** (see DESIGN.md §9); small
//! products stay on the single-threaded kernels the dispatch shares with
//! the parallel path. The explicit-SIMD kernels — AVX2 tile kernels for
//! the three products and the optimizer's AVX2 Adam update in [`simd`] —
//! are bit-identical to the portable loops, so every run has one numeric
//! result (DESIGN.md §14).

pub mod matrix;
pub mod ops;
pub mod pool;
pub mod simd;

pub use matrix::Matrix;
pub use simd::NumericMode;
