//! Row-major dense `f32` matrix with the kernels a feed-forward network
//! needs.
//!
//! Shapes are validated with `assert!` rather than `Result`: a shape
//! mismatch inside a training loop is a programming error, not a condition
//! to recover from, and panicking keeps the hot-path signatures clean.

use crate::pool;
#[cfg(target_arch = "x86_64")]
use crate::simd;

/// Row chunk used by the dispatching matmul entries when they go parallel.
/// Fixed — never derived from the thread count — so the decomposition (and
/// with it every floating-point op order) is a function of shape alone.
const ROW_CHUNK: usize = 64;

/// Multiply-add count below which the pool overhead outweighs the win.
const MIN_PAR_MADDS: usize = 1 << 17;

/// True when a product with `dim` partitionable output rows and `madds`
/// multiply-adds should take the pool path.
fn par_worthwhile(dim: usize, madds: usize) -> bool {
    madds >= MIN_PAR_MADDS && dim > ROW_CHUNK && pool::max_threads() > 1
}

/// Run `kernel(rows, block)` on the pool for every fixed `row_chunk`-row
/// block of the row-major `out` (`width` columns); blocks are disjoint
/// slices, so each output row is written by exactly one chunk.
fn par_row_blocks(
    out: &mut [f32],
    rows: usize,
    width: usize,
    row_chunk: usize,
    kernel: impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
) {
    let row_chunk = row_chunk.max(1);
    let mut blocks: Vec<&mut [f32]> = out.chunks_mut((row_chunk * width).max(1)).collect();
    pool::for_each_mut(&mut blocks, |i, block| {
        kernel(pool::chunk_range(rows, row_chunk, i), block)
    });
}

/// Output rows per register tile, in all three products. The `by_shape!`
/// height lists (`[4, 2, 1]`) are this and the tail heights it halves to.
const TILE_ROWS: usize = 4;

/// Widest output panel a `matmul` or `matmul_tn` tile holds in registers.
const TILE_COLS: usize = 8;

/// Output columns per `matmul_nt` tile.
const NT_TILE_COLS: usize = 4;

/// `$tile::<$h, W> $args` for the runtime panel width `$w`, one arm per
/// listed width.
macro_rules! by_width {
    ([$($wl:literal),*], $w:expr, $tile:ident::<$h:tt> $args:tt) => {
        match $w {
            $($wl => $tile::<$h, $wl> $args,)*
            w => unreachable!("tile width {w}"),
        }
    };
}

/// `$tile::<H, W> $args` for the runtime tile height `$rows` and panel
/// width `$w`. Every listed shape is its own monomorphized tile, so a
/// 1- or 2-wide output keeps its accumulators in registers exactly like
/// a full panel.
macro_rules! by_shape {
    ([$($h:literal),*] x $widths:tt, $rows:expr, $w:expr, $tile:ident $args:tt) => {
        match $rows {
            $($h => by_width!($widths, $w, $tile::<$h> $args),)*
            h => unreachable!("tile height {h}"),
        }
    };
}

/// Row bands `(first_row, rows)` covering `rows` output rows: bands of
/// `TILE_ROWS` rows, then the rows below the last full band in bands of
/// 2 and 1.
fn bands(rows: usize) -> impl Iterator<Item = (usize, usize)> {
    let (mut r0, mut h) = (0, TILE_ROWS);
    std::iter::from_fn(move || {
        if r0 >= rows {
            return None;
        }
        while r0 + h > rows {
            h /= 2;
        }
        r0 += h;
        Some((r0 - h, h))
    })
}

/// Cover the row-major `out` block (`width` columns) with register tiles:
/// the [`bands`] of its rows, each cut into panels of up to
/// `cols_per_tile` columns. Calls `tile(first_row, rows, j0, cols, band)`,
/// with `first_row` counted from the start of `out` and `band` the band's
/// slice of `out`. Each output element's value is fixed by its own
/// accumulation sequence, so which tile covers it cannot change a bit.
fn for_each_tile(
    out: &mut [f32],
    width: usize,
    cols_per_tile: usize,
    mut tile: impl FnMut(usize, usize, usize, usize, &mut [f32]),
) {
    if width == 0 {
        return;
    }
    for (r0, h) in bands(out.len() / width) {
        let band = &mut out[r0 * width..(r0 + h) * width];
        for j0 in (0..width).step_by(cols_per_tile) {
            tile(r0, h, j0, (width - j0).min(cols_per_tile), band);
        }
    }
}

/// Whether the zero-skip of `matmul` and `matmul_tn` must be tested term
/// by term: only when `b` holds a non-finite entry. A zero A entry times
/// a finite B entry is ±0.0, and adding ±0.0 to an accumulator that
/// started at +0.0 leaves its bits unchanged (round-to-nearest never
/// produces −0.0 from a +0.0 start), so over a finite B the skip is
/// invisible and the tile runs without the per-term branch — which
/// mispredicts on about half the terms of a ReLU-fed operand.
fn zero_skip_needed(b: &Matrix) -> bool {
    !b.data.iter().all(|v| v.is_finite())
}

/// Store tile accumulators into columns `j0..j0+W` of the first `R` rows
/// of the row-major `band` (`width` columns).
fn store_tile<const R: usize, const W: usize>(
    acc: &[[f32; W]; R],
    band: &mut [f32],
    width: usize,
    j0: usize,
) {
    for (r, acc_row) in acc.iter().enumerate() {
        band[r * width + j0..][..W].copy_from_slice(acc_row);
    }
}

/// `matmul` tile: output rows `i0..i0+R` by columns `j0..j0+W`. Each
/// accumulator starts at +0.0 and takes `a[i][k] * b[k][j]` for ascending
/// k, skipping terms with `a[i][k] == 0.0`; the multiply and the add round
/// separately (`acc += x * y` never contracts to FMA).
fn matmul_tile<const R: usize, const W: usize>(
    a: &Matrix,
    b: &Matrix,
    i0: usize,
    j0: usize,
    skip_zeros: bool,
    band: &mut [f32],
) {
    let k = a.cols;
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a.data[(i0 + r) * k..][..k]);
    let mut acc = [[0.0f32; W]; R];
    for (kk, b_row) in b.data.chunks_exact(b.cols).enumerate() {
        let y: &[f32; W] = b_row[j0..j0 + W].try_into().expect("panel is W wide");
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let x = a_row[kk];
            if skip_zeros && x == 0.0 {
                continue;
            }
            for (o, &yv) in acc_row.iter_mut().zip(y) {
                *o += x * yv;
            }
        }
    }
    store_tile(&acc, band, b.cols, j0);
}

/// `matmul_tn` tile: output rows `k0..k0+R` (columns of `a`) by columns
/// `j0..j0+W`, summing `a[m][k] * b[m][j]` from +0.0 over ascending m and
/// skipping terms with `a[m][k] == 0.0`.
fn matmul_tn_tile<const R: usize, const W: usize>(
    a: &Matrix,
    b: &Matrix,
    k0: usize,
    j0: usize,
    skip_zeros: bool,
    band: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    let rows = a.data.chunks_exact(a.cols).zip(b.data.chunks_exact(b.cols));
    for (a_row, b_row) in rows {
        let x: &[f32; R] = a_row[k0..k0 + R].try_into().expect("tile is R tall");
        let y: &[f32; W] = b_row[j0..j0 + W].try_into().expect("panel is W wide");
        for (acc_row, &xv) in acc.iter_mut().zip(x) {
            if skip_zeros && xv == 0.0 {
                continue;
            }
            for (o, &yv) in acc_row.iter_mut().zip(y) {
                *o += xv * yv;
            }
        }
    }
    store_tile(&acc, band, b.cols, j0);
}

/// `matmul_nt` tile: the `R x W` dot products of rows `i0..i0+R` of `a`
/// with rows `j0..j0+W` of `b`, each from +0.0 over ascending k with no
/// skip. The `R * W` independent accumulators replace one latency-bound
/// dot product at a time.
fn matmul_nt_tile<const R: usize, const W: usize>(
    a: &Matrix,
    b: &Matrix,
    i0: usize,
    j0: usize,
    band: &mut [f32],
) {
    let k = a.cols;
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a.data[(i0 + r) * k..][..k]);
    let b_rows: [&[f32]; W] = std::array::from_fn(|c| &b.data[(j0 + c) * k..][..k]);
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let y: [f32; W] = std::array::from_fn(|c| b_rows[c][kk]);
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let x = a_row[kk];
            for (o, &yv) in acc_row.iter_mut().zip(&y) {
                *o += x * yv;
            }
        }
    }
    store_tile(&acc, band, b.rows, j0);
}

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an existing row-major buffer. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from row slices. Panics if rows are ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Append one row at the bottom, growing the matrix in place (the
    /// row-major buffer makes this a plain `extend`). Panics if `row` does
    /// not match the column count.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.cols,
            "row length {} does not match {} columns",
            row.len(),
            self.cols
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole buffer, row-major, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self * other` — `[m x k] * [k x n] -> [m x n]`.
    ///
    /// Dispatches between the single-threaded tiled kernel and the
    /// row-partitioned pool path by size; both run the identical per-row
    /// operation sequence, so the results are bit-for-bit the same (see
    /// `crate::pool`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if par_worthwhile(self.rows, self.rows * self.cols * other.cols) {
            self.matmul_chunked(other, ROW_CHUNK)
        } else {
            self.matmul_serial(other)
        }
    }

    /// `matmul` forced onto the single-threaded tiled kernel.
    pub fn matmul_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul_serial shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_rows_into(other, 0..self.rows, &mut out.data);
        out
    }

    /// `matmul` forced onto the pool with an explicit row chunk (the
    /// dispatching entry uses `ROW_CHUNK`). Bit-identical to
    /// [`Matrix::matmul_serial`] for every chunk size and thread count:
    /// each output row is produced by the same kernel with the same
    /// operation order no matter which chunk — or thread — owns it.
    pub fn matmul_chunked(&self, other: &Matrix, row_chunk: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul_chunked shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let _kind = pool::task_kind("matmul");
        par_row_blocks(
            &mut out.data,
            self.rows,
            other.cols,
            row_chunk,
            |rows, block| self.matmul_rows_into(other, rows, block),
        );
        out
    }

    /// Kernel for output rows `rows`, writing into `out` (the row-major
    /// slice for exactly those rows): the AVX2 kernel when the CPU has
    /// AVX2 and `other` is finite, else the portable tiles. Both compute
    /// the same bits.
    fn matmul_rows_into(&self, other: &Matrix, rows: std::ops::Range<usize>, out: &mut [f32]) {
        debug_assert_eq!(out.len(), rows.len() * other.cols);
        let skip = zero_skip_needed(other);
        #[cfg(target_arch = "x86_64")]
        if !skip && simd::simd_available() {
            // SAFETY: the CPU has AVX2.
            unsafe { avx2::matmul_rows(self, other, rows.start, out) };
            return;
        }
        self.matmul_rows_portable(other, rows.start, skip, out);
    }

    /// Portable register tiles for the output rows from `first_row` on:
    /// tiles of `TILE_ROWS` rows by up to `TILE_COLS` columns, each a full
    /// k sweep with its outputs held in local accumulators.
    fn matmul_rows_portable(&self, other: &Matrix, first_row: usize, skip: bool, out: &mut [f32]) {
        for_each_tile(out, other.cols, TILE_COLS, |r, h, j0, w, band| {
            by_shape!(
                [4, 2, 1] x [1, 2, 3, 4, 5, 6, 7, 8],
                h,
                w,
                matmul_tile(self, other, first_row + r, j0, skip, band)
            )
        });
    }

    /// `self * other^T` — `[m x k] * [n x k]^T -> [m x n]`. Each output is
    /// a dot product of two contiguous rows, computed in 4 x 4 tiles.
    /// Size-dispatched like [`Matrix::matmul`]; bit-identical on either
    /// path.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        if par_worthwhile(self.rows, self.rows * self.cols * other.rows) {
            self.matmul_nt_chunked(other, ROW_CHUNK)
        } else {
            self.matmul_nt_serial(other)
        }
    }

    /// `matmul_nt` forced onto the single-threaded tiled kernel.
    pub fn matmul_nt_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt_serial shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_rows_into(other, 0..self.rows, &mut out.data);
        out
    }

    /// `matmul_nt` forced onto the pool with an explicit row chunk.
    pub fn matmul_nt_chunked(&self, other: &Matrix, row_chunk: usize) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt_chunked shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        let _kind = pool::task_kind("matmul_nt");
        par_row_blocks(
            &mut out.data,
            self.rows,
            other.rows,
            row_chunk,
            |rows, block| self.matmul_nt_rows_into(other, rows, block),
        );
        out
    }

    /// Kernel for `matmul_nt` over output rows `rows`: the AVX2 kernel
    /// when the CPU has AVX2, else the portable tiles. Both compute the
    /// same bits.
    fn matmul_nt_rows_into(&self, other: &Matrix, rows: std::ops::Range<usize>, out: &mut [f32]) {
        debug_assert_eq!(out.len(), rows.len() * other.rows);
        #[cfg(target_arch = "x86_64")]
        if simd::simd_available() {
            // SAFETY: the CPU has AVX2.
            unsafe { avx2::matmul_nt_rows(self, other, rows.start, out) };
            return;
        }
        self.matmul_nt_rows_portable(other, rows.start, out);
    }

    /// Portable register tiles for `matmul_nt` over the output rows from
    /// `first_row` on: tiles of `TILE_ROWS` x `NT_TILE_COLS` dot products.
    fn matmul_nt_rows_portable(&self, other: &Matrix, first_row: usize, out: &mut [f32]) {
        for_each_tile(out, other.rows, NT_TILE_COLS, |r, h, j0, w, band| {
            by_shape!(
                [4, 2, 1] x [1, 2, 3, 4],
                h,
                w,
                matmul_nt_tile(self, other, first_row + r, j0, band)
            )
        });
    }

    /// `self^T * other` — `[m x k]^T * [m x n] -> [k x n]`, streaming both
    /// operands row by row. Size-dispatched like [`Matrix::matmul`];
    /// parallelism partitions the *output* rows (the k dimension), each
    /// chunk streaming the operands independently.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if par_worthwhile(self.cols, self.rows * self.cols * other.cols) {
            self.matmul_tn_chunked(other, ROW_CHUNK)
        } else {
            self.matmul_tn_serial(other)
        }
    }

    /// `matmul_tn` forced onto the single-threaded kernel.
    pub fn matmul_tn_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn_serial shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_cols_into(other, 0..self.cols, &mut out.data);
        out
    }

    /// `matmul_tn` forced onto the pool with an explicit output-row chunk.
    pub fn matmul_tn_chunked(&self, other: &Matrix, row_chunk: usize) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn_chunked shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let _kind = pool::task_kind("matmul_tn");
        par_row_blocks(
            &mut out.data,
            self.cols,
            other.cols,
            row_chunk,
            |cols, block| self.matmul_tn_cols_into(other, cols, block),
        );
        out
    }

    /// Kernel for `matmul_tn` over output rows `cols` (columns of
    /// `self`): the AVX2 kernel when the CPU has AVX2 and `other` is
    /// finite, else the portable tiles. Both compute the same bits.
    fn matmul_tn_cols_into(&self, other: &Matrix, cols: std::ops::Range<usize>, out: &mut [f32]) {
        debug_assert_eq!(out.len(), cols.len() * other.cols);
        let skip = zero_skip_needed(other);
        #[cfg(target_arch = "x86_64")]
        if !skip && simd::simd_available() {
            // SAFETY: the CPU has AVX2.
            unsafe { avx2::matmul_tn_cols(self, other, cols.start, out) };
            return;
        }
        self.matmul_tn_cols_portable(other, cols.start, skip, out);
    }

    /// Portable register tiles for `matmul_tn` over the output rows from
    /// `first_col` on: tiles of `TILE_ROWS` output rows by up to
    /// `TILE_COLS` columns, each streaming both operands once over m.
    fn matmul_tn_cols_portable(
        &self,
        other: &Matrix,
        first_col: usize,
        skip: bool,
        out: &mut [f32],
    ) {
        for_each_tile(out, other.cols, TILE_COLS, |r, h, j0, w, band| {
            by_shape!(
                [4, 2, 1] x [1, 2, 3, 4, 5, 6, 7, 8],
                h,
                w,
                matmul_tn_tile(self, other, first_col + r, j0, skip, band)
            )
        });
    }

    /// Explicit transpose (used rarely; the `_nt`/`_tn` products avoid it on
    /// hot paths).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` (axpy), element-wise.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Column sums as a length-`cols` vector (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
        sums
    }

    /// Add a row vector to every row (broadcast bias add).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for i in 0..self.rows {
            for (a, &b) in self.row_mut(i).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Reference matmul with the naive ijk order (one dot product per
    /// output element, no zero-skip) — only for tests that check the
    /// optimized kernels.
    #[doc(hidden)]
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }
}

/// AVX2 kernels for the three products. Each covers its output with
/// tiles of 4 rows (row tails of 2 and 1, the portable `bands`) by 16
/// columns in two 8-lane vectors, then one 8-column panel, and leaves the
/// last columns (fewer than 8) to the portable tiles.
///
/// A lane runs exactly the portable element's sequence: it starts at
/// +0.0 and, for each term in ascending k, adds `_mm256_mul_ps(x, y)` with
/// `_mm256_add_ps` — two roundings, never an FMA (only `avx2` is enabled,
/// and rustc does not contract separate intrinsics) — so every output bit
/// is the portable tiles'. The `matmul` and `matmul_tn` kernels skip no
/// term, which is what the zero-skip amounts to over a finite B
/// (`zero_skip_needed`); their dispatchers run the portable tiles when
/// B holds a non-finite value. `matmul_nt` skips nothing anyway.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{bands, matmul_nt_tile, matmul_tile, matmul_tn_tile, Matrix, NT_TILE_COLS};
    use std::arch::x86_64::*;

    /// `f32` lanes per vector.
    const LANES: usize = 8;

    /// Widest tile, in columns.
    const PANEL: usize = 2 * LANES;

    /// Terms per stack block of a transposed `matmul_nt` panel.
    const NT_BLOCK: usize = 64;

    /// One input of a tile, as strides into a row-major buffer: the term
    /// `s` factor of tile row `r` (A side) or the first of term `s`'s
    /// columns (B side, `row` unused) is `data[at + r * row + s * step]`.
    #[derive(Clone, Copy)]
    struct Operand<'a> {
        data: &'a [f32],
        at: usize,
        row: usize,
        step: usize,
    }

    /// `R` output rows by `P` vectors of 8 columns, stored at
    /// `out[at + r * row..]`: lane c of row r adds `a(r, s) * b(s, c)` for
    /// `s` in `0..terms`, in order, to +0.0 — or, with `resume`, to the
    /// value already in `out`, which a store and a load leave exact.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Every offset is bounds-checked here.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const R: usize, const P: usize>(
        a: Operand,
        b: Operand,
        terms: usize,
        out: &mut [f32],
        (at, row): (usize, usize),
        resume: bool,
    ) {
        if terms > 0 {
            assert!(a.at + (R - 1) * a.row + (terms - 1) * a.step < a.data.len());
            assert!(b.at + (terms - 1) * b.step + P * LANES <= b.data.len());
        }
        assert!(at + (R - 1) * row + P * LANES <= out.len());
        let mut acc = [[_mm256_setzero_ps(); P]; R];
        if resume {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                for (p, v) in acc_row.iter_mut().enumerate() {
                    *v = _mm256_loadu_ps(out.as_ptr().add(at + r * row + p * LANES));
                }
            }
        }
        let (ap, bp) = (a.data.as_ptr(), b.data.as_ptr());
        for s in 0..terms {
            // SAFETY (for the reads below): the asserts above bound every
            // offset `s < terms` reaches.
            let mut y = [_mm256_setzero_ps(); P];
            for (p, y) in y.iter_mut().enumerate() {
                *y = _mm256_loadu_ps(bp.add(b.at + s * b.step + p * LANES));
            }
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let x = _mm256_set1_ps(*ap.add(a.at + r * a.row + s * a.step));
                for (v, &y) in acc_row.iter_mut().zip(&y) {
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(x, y));
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            for (p, &v) in acc_row.iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add(at + r * row + p * LANES), v);
            }
        }
    }

    /// Cover `width` columns of one band with 16- and 8-column vector
    /// tiles over `terms` terms, B's columns `j0..` starting at
    /// `b.at + j0`; returns the first column left for the portable tiles.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn vector_panels(
        h: usize,
        a: Operand,
        b: Operand,
        terms: usize,
        band: &mut [f32],
        width: usize,
    ) -> usize {
        let mut j0 = 0;
        while j0 + PANEL <= width {
            let b = Operand { at: b.at + j0, ..b };
            by_shape!([4, 2, 1] x [2], h, 2, tile(a, b, terms, band, (j0, width), false));
            j0 += PANEL;
        }
        if j0 + LANES <= width {
            let b = Operand { at: b.at + j0, ..b };
            by_shape!([4, 2, 1] x [1], h, 1, tile(a, b, terms, band, (j0, width), false));
            j0 += LANES;
        }
        j0
    }

    /// `a · b` for the output rows from `first_row` on, into `out`, over a
    /// finite `b`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_rows(a: &Matrix, b: &Matrix, first_row: usize, out: &mut [f32]) {
        let (k, n) = (a.cols, b.cols);
        if n == 0 {
            return;
        }
        let b_op = Operand {
            data: &b.data,
            at: 0,
            row: 0,
            step: n,
        };
        for (r0, h) in bands(out.len() / n) {
            let band = &mut out[r0 * n..(r0 + h) * n];
            let i0 = first_row + r0;
            let a_op = Operand {
                data: &a.data,
                at: i0 * k,
                row: k,
                step: 1,
            };
            let j0 = vector_panels(h, a_op, b_op, k, band, n);
            if j0 < n {
                by_shape!(
                    [4, 2, 1] x [1, 2, 3, 4, 5, 6, 7],
                    h,
                    n - j0,
                    matmul_tile(a, b, i0, j0, false, band)
                );
            }
        }
    }

    /// `aᵀ · b` for the output rows (columns of `a`) from `first_col` on,
    /// into `out`, over a finite `b`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_tn_cols(a: &Matrix, b: &Matrix, first_col: usize, out: &mut [f32]) {
        let n = b.cols;
        if n == 0 {
            return;
        }
        let b_op = Operand {
            data: &b.data,
            at: 0,
            row: 0,
            step: n,
        };
        for (r0, h) in bands(out.len() / n) {
            let band = &mut out[r0 * n..(r0 + h) * n];
            let k0 = first_col + r0;
            let a_op = Operand {
                data: &a.data,
                at: k0,
                row: 1,
                step: a.cols,
            };
            let j0 = vector_panels(h, a_op, b_op, a.rows, band, n);
            if j0 < n {
                by_shape!(
                    [4, 2, 1] x [1, 2, 3, 4, 5, 6, 7],
                    h,
                    n - j0,
                    matmul_tn_tile(a, b, k0, j0, false, band)
                );
            }
        }
    }

    /// `a · bᵀ` for the output rows from `first_row` on, into `out`. Each
    /// panel of up to 16 rows of `b` is transposed onto the stack in
    /// blocks of `NT_BLOCK` terms, so the tiles read it like `matmul`'s
    /// B; a tile resumes from the partial sums the previous block stored.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_nt_rows(a: &Matrix, b: &Matrix, first_row: usize, out: &mut [f32]) {
        let (k, n) = (a.cols, b.rows);
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        let mut panel = [0.0f32; NT_BLOCK * PANEL];
        let mut j0 = 0;
        while j0 + LANES <= n {
            let p = if j0 + PANEL <= n { 2 } else { 1 };
            // One pass with no terms when k == 0 stores the zeros.
            let mut kb = 0;
            loop {
                let terms = (k - kb).min(NT_BLOCK);
                for c in 0..p * LANES {
                    let b_row = &b.data[(j0 + c) * k + kb..][..terms];
                    for (s, &v) in b_row.iter().enumerate() {
                        panel[s * PANEL + c] = v;
                    }
                }
                let b_op = Operand {
                    data: &panel,
                    at: 0,
                    row: 0,
                    step: PANEL,
                };
                for (r0, h) in bands(rows) {
                    let band = &mut out[r0 * n..(r0 + h) * n];
                    let a_op = Operand {
                        data: &a.data,
                        at: (first_row + r0) * k + kb,
                        row: k,
                        step: 1,
                    };
                    by_shape!(
                        [4, 2, 1] x [1, 2],
                        h,
                        p,
                        tile(a_op, b_op, terms, band, (j0, n), kb > 0)
                    );
                }
                kb += terms;
                if kb >= k {
                    break;
                }
            }
            j0 += p * LANES;
        }
        for (r0, h) in bands(rows) {
            let band = &mut out[r0 * n..(r0 + h) * n];
            for j in (j0..n).step_by(NT_TILE_COLS) {
                by_shape!(
                    [4, 2, 1] x [1, 2, 3, 4],
                    h,
                    (n - j).min(NT_TILE_COLS),
                    matmul_nt_tile(a, b, first_row + r0, j, band)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn push_row_grows_in_place() {
        let mut m = Matrix::zeros(0, 3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(
            m,
            Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        );
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        let mut m = m;
        m.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
        m.row_mut(1)[0] = -1.0;
        assert_eq!(m.get(1, 0), -1.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn from_rows_builds_matrix() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 1.0, 0.0]]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(approx_eq(&via_nt, &via_t, 1e-6));
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.5], &[-1.0]]);
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transpose().matmul(&b);
        assert!(approx_eq(&via_tn, &via_t, 1e-6));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.as_slice(), &[16.0, 32.0]);
        a.scale(0.25);
        assert_eq!(a.as_slice(), &[4.0, 8.0]);
        a.map_inplace(|x| x - 4.0);
        assert_eq!(a.as_slice(), &[0.0, 4.0]);
    }

    #[test]
    fn col_sums_and_broadcast() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(m.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    /// Full-mantissa entries, about a quarter of them ±0.0.
    fn tile_operand(r: usize, c: usize, seed: u64) -> Matrix {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..r * c)
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
            .collect();
        Matrix::from_vec(r, c, data)
    }

    /// Put ±inf into every third entry of `b`.
    fn with_infinities(mut b: Matrix) -> Matrix {
        for (e, v) in b.as_mut_slice().iter_mut().enumerate() {
            match e % 6 {
                1 => *v = f32::INFINITY,
                4 => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
        b
    }

    fn assert_same_bits(label: &str, want: &[f32], got: &[f32]) {
        assert_eq!(want.len(), got.len(), "{label}: length");
        for (e, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{label}: element {e} is {g}, portable {w}"
            );
        }
    }

    /// `(m, k, n)` for the AVX2 pins: every band and panel mix up to
    /// 33 columns, the workloads' decide-forward and DQN-layer shapes, and
    /// reductions longer than one `matmul_nt` stack block of terms.
    fn tile_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in 0..=9 {
            for k in 0..=9 {
                for n in 0..=33 {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes.extend([(3200, 64, 32), (32, 15, 64), (11, 200, 27), (9, 65, 8)]);
        shapes
    }

    /// The AVX2 kernels against the portable tiles, `to_bits` exact, on
    /// finite operands with ±0.0 in A and on a B holding ±inf, from the
    /// first output row and from the second, as a pool chunk passes
    /// rows. The portable tiles are the bit reference; `kernel_bits.rs`
    /// pins them to scalar oracles.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_the_portable_tiles_bit_for_bit() {
        if !crate::simd::simd_available() {
            eprintln!("skipped: this CPU has no AVX2, so only the portable tiles run");
            return;
        }
        for (m, k, n) in tile_shapes() {
            let seed = (m * 4096 + k * 64 + n) as u64;
            for (first, inf) in [(0, false), (0, true), (m.min(1), false)] {
                let label = format!("{m}x{k}x{n} from row {first}, inf {inf}");
                let finish = |b: Matrix| if inf { with_infinities(b) } else { b };
                let run = |f: &dyn Fn(&mut [f32])| {
                    let mut out = vec![f32::NAN; (m - first) * n];
                    f(&mut out);
                    out
                };

                // matmul: [m x k] · [k x n].
                let (a, b) = (tile_operand(m, k, seed), finish(tile_operand(k, n, !seed)));
                let want = run(&|o| a.matmul_rows_portable(&b, first, inf, o));
                if !inf {
                    // Over a finite B the zero-skip changes no bit.
                    let skipped = run(&|o| a.matmul_rows_portable(&b, first, true, o));
                    assert_same_bits(&format!("matmul skip {label}"), &want, &skipped);
                    // SAFETY: the CPU has AVX2.
                    let got = run(&|o| unsafe { avx2::matmul_rows(&a, &b, first, o) });
                    assert_same_bits(&format!("matmul {label}"), &want, &got);
                }
                let got = run(&|o| a.matmul_rows_into(&b, first..m, o));
                assert_same_bits(&format!("matmul dispatch {label}"), &want, &got);

                // matmul_tn: ([k x m])^T · [k x n].
                let (a, b) = (tile_operand(k, m, seed), finish(tile_operand(k, n, !seed)));
                let want = run(&|o| a.matmul_tn_cols_portable(&b, first, inf, o));
                if !inf {
                    // SAFETY: the CPU has AVX2.
                    let got = run(&|o| unsafe { avx2::matmul_tn_cols(&a, &b, first, o) });
                    assert_same_bits(&format!("matmul_tn {label}"), &want, &got);
                }
                let got = run(&|o| a.matmul_tn_cols_into(&b, first..m, o));
                assert_same_bits(&format!("matmul_tn dispatch {label}"), &want, &got);

                // matmul_nt: [m x k] · ([n x k])^T, ±inf included.
                let (a, b) = (tile_operand(m, k, seed), finish(tile_operand(n, k, !seed)));
                let want = run(&|o| a.matmul_nt_rows_portable(&b, first, o));
                // SAFETY: the CPU has AVX2.
                let got = run(&|o| unsafe { avx2::matmul_nt_rows(&a, &b, first, o) });
                assert_same_bits(&format!("matmul_nt {label}"), &want, &got);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_matmul_matches_naive(
            m in 1usize..6, k in 1usize..6, n in 1usize..6,
            seed in 0u64..1000) {
            // Deterministic pseudo-random fill from the seed.
            let fill = |r: usize, c: usize, salt: u64| {
                let mut v = Vec::with_capacity(r * c);
                let mut s = seed.wrapping_add(salt).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..r * c {
                    s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                    v.push(((s % 2000) as f32 - 1000.0) / 250.0);
                }
                Matrix::from_vec(r, c, v)
            };
            let a = fill(m, k, 1);
            let b = fill(k, n, 2);
            let fast = a.matmul(&b);
            let slow = a.matmul_naive(&b);
            prop_assert!(approx_eq(&fast, &slow, 1e-4));

            // _nt and _tn agree with explicit transposes.
            let bt = b.transpose();
            prop_assert!(approx_eq(&a.matmul_nt(&bt), &slow, 1e-4));
            let at = a.transpose();
            prop_assert!(approx_eq(&at.matmul_tn(&b), &slow, 1e-4));
        }

        #[test]
        fn prop_transpose_involution(r in 1usize..8, c in 1usize..8) {
            let data: Vec<f32> = (0..r * c).map(|i| i as f32).collect();
            let m = Matrix::from_vec(r, c, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }
    }
}
