//! Dense row-major `f32` matrix used as the storage type of the autodiff
//! engine and everywhere else numeric data lives in this workspace.
//!
//! The type is deliberately small: two dimensions, `Vec<f32>` storage, and
//! the handful of BLAS-like kernels the models need (`matmul` and its
//! transposed variants, axpy, row/column reductions).
//!
//! ## Kernel design
//!
//! All three matmul variants funnel into **one** register-tiled kernel for
//! row-major operands: output tiles of [`MR`]` x `[`NR`] scalars are
//! accumulated in registers ([`NR`] split into two [`VW`]-wide banks) with
//! the reduction dimension innermost, so each tile streams its panel of
//! `b` once and the compiler vectorizes the bank-wide inner loops. The
//! transposed variants **pack the transpose first** (blocked transpose,
//! `O(rows·cols)` next to the `O(rows·cols·n)` product) instead of walking
//! strided columns — a strided reduction walk thrashes the cache-set
//! mapping and measured ~16x slower than pack-then-multiply.
//!
//! The reduction is accumulated **strictly in index order** per output
//! element, which makes every variant bit-identical to the naive `ikj`
//! reference ([`Matrix::matmul_naive`]) on the equivalent operands.
//!
//! Products with at least [`parallel::FORK_MIN_WORK`] multiply-adds per
//! engaged worker split their output rows across workers (see the
//! threading rule in [`crate::parallel`]). Each output element is written
//! by exactly one thread with the same in-kernel arithmetic order as the
//! serial path, so results are bit-identical for any thread count.

use crate::parallel;
use std::fmt;

/// Rows per register tile of the blocked matmul kernel.
const MR: usize = 6;
/// Width of one accumulator bank (one AVX-512 register of `f32`, two SSE
/// registers on the baseline target — the compiler picks).
const VW: usize = 16;
/// Columns per register tile: two accumulator banks.
const NR: usize = 2 * VW;
/// Edge length of one blocked-transpose tile.
const TR: usize = 32;

/// One `R x NR` register tile of `out[i][j] += Σ_s a[i][s] * b[s*n + j]`
/// for `i` in `[i0, i0+R)`, including the `< NR` column tail. The
/// reduction over `s` runs strictly in index order per output element, so
/// the result is independent of tiling and threading and bit-identical to
/// the naive `ikj` loop.
fn saxpy_tile<const R: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    steps: usize,
    n: usize,
) {
    let mut arows = [&a[0..0]; R];
    for (r, row) in arows.iter_mut().enumerate() {
        *row = &a[(i0 + r) * lda..(i0 + r) * lda + steps];
    }
    let mut j0 = 0;
    while j0 + NR <= n {
        let mut acc0 = [[0.0f32; VW]; R];
        let mut acc1 = [[0.0f32; VW]; R];
        for s in 0..steps {
            let row = &b[s * n + j0..s * n + j0 + NR];
            let b0: &[f32; VW] = row[..VW].try_into().expect("bank 0");
            let b1: &[f32; VW] = row[VW..].try_into().expect("bank 1");
            for r in 0..R {
                let av = arows[r][s];
                for c in 0..VW {
                    acc0[r][c] += av * b0[c];
                }
                for c in 0..VW {
                    acc1[r][c] += av * b1[c];
                }
            }
        }
        for r in 0..R {
            out[(i0 + r) * n + j0..(i0 + r) * n + j0 + VW].copy_from_slice(&acc0[r]);
            out[(i0 + r) * n + j0 + VW..(i0 + r) * n + j0 + NR].copy_from_slice(&acc1[r]);
        }
        j0 += NR;
    }
    if j0 + VW <= n {
        // single-bank tile for the [VW, NR) column tail
        let mut acc = [[0.0f32; VW]; R];
        for s in 0..steps {
            let bk: &[f32; VW] = b[s * n + j0..s * n + j0 + VW]
                .try_into()
                .expect("single bank");
            for r in 0..R {
                let av = arows[r][s];
                for c in 0..VW {
                    acc[r][c] += av * bk[c];
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(i0 + r) * n + j0..(i0 + r) * n + j0 + VW].copy_from_slice(acc_row);
        }
    }
}

/// The final `< VW` column tail, fed from `packed` (the tail columns of
/// `b` zero-padded to `VW` per step, packed once per kernel call so every
/// row band runs a full-width FMA loop). Padding lanes are discarded on
/// write-back; the kept lanes still accumulate in `s` order.
#[allow(clippy::too_many_arguments)]
fn saxpy_tail<const R: usize>(
    a: &[f32],
    lda: usize,
    packed: &[f32],
    out: &mut [f32],
    i0: usize,
    steps: usize,
    n: usize,
    j0: usize,
    w: usize,
) {
    let mut arows = [&a[0..0]; R];
    for (r, row) in arows.iter_mut().enumerate() {
        *row = &a[(i0 + r) * lda..(i0 + r) * lda + steps];
    }
    let mut acc = [[0.0f32; VW]; R];
    for s in 0..steps {
        let bk: &[f32; VW] = packed[s * VW..(s + 1) * VW]
            .try_into()
            .expect("packed bank");
        for r in 0..R {
            let av = arows[r][s];
            for c in 0..VW {
                acc[r][c] += av * bk[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..(i0 + r) * n + j0 + w].copy_from_slice(&acc_row[..w]);
    }
}

/// Serial register-tiled kernel over all `m` output rows (`a` row-major
/// with leading dimension `lda`).
fn saxpy_kernel(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    steps: usize,
    n: usize,
) {
    // pack the `< VW` column tail of `b` once, zero-padded to full width,
    // so the tail FMA loop of every row band stays vectorized. The pack
    // buffer is thread-local: small-matrix products (the inference-plan
    // hot path) would otherwise pay an allocation per call.
    use std::cell::RefCell;
    thread_local! {
        static TAIL_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    let w = n % VW;
    let j_tail = n - w;
    let mut run = |packed: Option<&[f32]>| {
        let mut i0 = 0;
        while i0 + MR <= m {
            saxpy_tile::<MR>(a, lda, b, out, i0, steps, n);
            if let Some(p) = packed {
                saxpy_tail::<MR>(a, lda, p, out, i0, steps, n, j_tail, w);
            }
            i0 += MR;
        }
        // ONE monomorphized band sized to the `< MR` row remainder. The
        // historical row-at-a-time walk re-streamed the whole `b` panel
        // per leftover row for two FMAs a step — load-bound, and paid on
        // most calls since the skinny serving shapes (m <= 64) are rarely
        // multiples of the band height (64 = 10·6 + 4). One band shares
        // one `b` stream across all leftover rows. Bit-identical to the
        // row-at-a-time walk: each output element's reduction still runs
        // strictly in `s` order, and bands never combine rows.
        macro_rules! remainder_band {
            ($r:literal) => {{
                saxpy_tile::<$r>(a, lda, b, out, i0, steps, n);
                if let Some(p) = packed {
                    saxpy_tail::<$r>(a, lda, p, out, i0, steps, n, j_tail, w);
                }
            }};
        }
        match m - i0 {
            0 => {}
            1 => remainder_band!(1),
            2 => remainder_band!(2),
            3 => remainder_band!(3),
            4 => remainder_band!(4),
            5 => remainder_band!(5),
            _ => unreachable!("remainder bounded by MR"),
        }
    };
    if w == 0 {
        run(None);
    } else {
        // nested saxpy_kernel calls on one thread don't exist (a thread
        // runs the row chunks the dispatcher hands it one after the
        // other), so the borrow is exclusive for the whole call
        TAIL_PACK.with(|cell| {
            let mut p = cell.borrow_mut();
            p.clear();
            p.resize(steps * VW, 0.0); // zero-pads the [w, VW) lanes
            for s in 0..steps {
                p[s * VW..s * VW + w].copy_from_slice(&b[s * n + j_tail..s * n + j_tail + w]);
            }
            run(Some(&p));
        });
    }
}

/// Row-parallel dispatcher: splits the output rows across the workers
/// the fork gate allows.
#[allow(clippy::too_many_arguments)]
fn saxpy_dispatch(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    steps: usize,
    n: usize,
) {
    if n == 0 || m == 0 {
        return;
    }
    let work = m.saturating_mul(steps).saturating_mul(n);
    let t = parallel::gated_threads(work);
    if t <= 1 {
        saxpy_kernel(a, lda, b, out, m, steps, n);
        return;
    }
    parallel::par_row_chunks_mut(out, n, t, MR, |first_row, chunk| {
        let rows = chunk.len() / n;
        saxpy_kernel(&a[first_row * lda..], lda, b, chunk, rows, steps, n);
    });
}

/// A dense row-major matrix of `f32`.
///
/// Most constructors allocate; the `reset_*` / `*_into` family instead
/// reuses an existing matrix's allocation, which is what the
/// [`Graph`](crate::Graph) arena builds on to keep training batches
/// allocation-free after warm-up.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// The empty `0 x 0` matrix (no heap allocation).
impl Default for Matrix {
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    // ---- allocation-reusing shape changes ----
    //
    // These are the primitives behind the tape arena: they never shrink the
    // backing `Vec`'s capacity, so a matrix that has once held a batch of a
    // given size holds every later batch of that size without touching the
    // allocator.

    /// Reshapes `self` to `rows x cols` in place, reusing the allocation.
    ///
    /// Element values are **unspecified** afterwards (a grown region is
    /// zeroed, a retained prefix keeps its old data): callers must overwrite
    /// every element. Use [`Matrix::reset_zero`] when a zeroed matrix is
    /// needed.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes `self` to `rows x cols` and zeroes every element, reusing
    /// the allocation.
    pub fn reset_zero(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` an exact copy of `src` (shape and data), reusing the
    /// allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self * other` (blocked kernel, row-parallel above
    /// the size threshold; see the module docs).
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Computes `self * other` into `out`, reusing `out`'s allocation
    /// (`out` is reshaped and fully overwritten). Bit-identical to
    /// [`Matrix::matmul`].
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        // no reset_zero: the tiled kernel overwrites every output element
        // (register accumulators are copied out, never added), so zeroing
        // first would only memset memory that is about to be written
        out.reset_shape(self.rows, other.cols);
        saxpy_dispatch(
            &self.data,
            self.cols,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Reference naive `ikj` matrix product, kept as the ground truth for
    /// the blocked kernels (property tests assert `matmul` is bit-identical
    /// to it) and as the reference of the `gemm` yardstick in the substrate
    /// benchmark.
    /// Unlike the seed kernel it does **not** skip `a == 0.0` entries, so
    /// `0 * NaN` and `0 * Inf` propagate as IEEE 754 demands.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let oc = other.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * oc..(i + 1) * oc];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[k * oc..(k + 1) * oc];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Computes `self^T * other`. Packs the transpose of `self` first
    /// (blocked transpose, `O(rows·cols)` next to the product itself) and
    /// reuses the blocked row-major kernel — a strided column walk of the
    /// reduction thrashes the cache and measured ~16x slower. Bit-identical
    /// to `self.transpose().matmul(other)`.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.transpose().matmul(other)
    }

    /// Computes `self^T * other` into `out`, packing the transpose of
    /// `self` into `pack` (both buffers are reshaped and fully overwritten,
    /// reusing their allocations). Bit-identical to
    /// [`Matrix::matmul_at_b`].
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix, pack: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.transpose_into(pack);
        pack.matmul_into(other, out);
    }

    /// Computes `self * other^T`. Packs the transpose of `other` first and
    /// reuses the blocked row-major kernel (see [`Matrix::matmul_at_b`]).
    /// Bit-identical to `self.matmul(&other.transpose())`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul(&other.transpose())
    }

    /// Computes `self * other^T` into `out`, packing the transpose of
    /// `other` into `pack` (both buffers are reshaped and fully
    /// overwritten, reusing their allocations). Bit-identical to
    /// [`Matrix::matmul_a_bt`].
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix, pack: &mut Matrix) {
        self.matmul_a_bt_rows_into(other, 0, out, pack);
    }

    /// [`Matrix::matmul_a_bt_into`] against rows `first_row..` of `other`
    /// only: `out = self * (other[first_row.., :])^T`, i.e. columns
    /// `first_row..` of the full product. Each kept element is the same
    /// index-ordered reduction as in the full product, so the result is
    /// bit-identical to slicing those columns out of
    /// [`Matrix::matmul_a_bt`] — the backward sweep uses it to form only
    /// the gradient columns a parameter needs.
    pub fn matmul_a_bt_rows_into(
        &self,
        other: &Matrix,
        first_row: usize,
        out: &mut Matrix,
        pack: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        other.transpose_rows_into(first_row, pack);
        self.matmul_into(pack, out);
    }

    /// Returns the transpose (blocked into `TR`-square tiles so both
    /// sides of the copy stay cache-resident).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out`, reusing `out`'s
    /// allocation (`out` is reshaped and fully overwritten).
    pub fn transpose_into(&self, out: &mut Matrix) {
        self.transpose_rows_into(0, out);
    }

    /// Writes the transpose of rows `first_row..` of `self` into `out`
    /// (reshaped to `cols x (rows - first_row)` and fully overwritten).
    fn transpose_rows_into(&self, first_row: usize, out: &mut Matrix) {
        assert!(first_row <= self.rows, "transpose: first row out of range");
        let rows = self.rows - first_row;
        let src = &self.data[first_row * self.cols..];
        out.reset_shape(self.cols, rows);
        let mut i0 = 0;
        while i0 < rows {
            let iend = (i0 + TR).min(rows);
            let mut j0 = 0;
            while j0 < self.cols {
                let jend = (j0 + TR).min(self.cols);
                for i in i0..iend {
                    for j in j0..jend {
                        out.data[j * rows + i] = src[i * self.cols + j];
                    }
                }
                j0 = jend;
            }
            i0 = iend;
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum over all elements (accumulated in `f64`).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean over all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum absolute element, or 0 for an empty matrix. NaN anywhere in
    /// the matrix propagates to the result (unlike `f32::max`, which would
    /// silently drop it).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| {
            let a = x.abs();
            if a.is_nan() || a > m {
                a
            } else {
                m
            }
        })
    }

    /// Gathers the given rows into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Returns true if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |i, j| (i + j) as f32 * 0.25);
        let atb = a.matmul_at_b(&b);
        let expected = a.transpose().matmul(&b);
        assert_eq!(atb, expected);

        let c = Matrix::from_fn(6, 3, |i, j| (i as f32 - j as f32) * 0.1);
        let abt = a.matmul_a_bt(&c);
        let expected = a.matmul(&c.transpose());
        assert_eq!(abt, expected);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn stacking_and_slicing() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let g = a.gather_rows(&[0, 1, 1]);
        assert_eq!(g.row(0), &[1.0, 2.0]);
        assert_eq!(g.row(1), &[3.0, 4.0]);
        assert_eq!(g.row(2), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Regression: the seed kernels skipped `a == 0.0` entries, so a
    /// `0 x NaN` / `0 x Inf` product silently produced 0 and disagreed
    /// with the transposed variants. All kernels must propagate NaN.
    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_rows() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 0.0]);
        let b = Matrix::from_vec(2, 2, vec![f32::NAN, 2.0, f32::INFINITY, 3.0]);
        let c = a.matmul(&b);
        // column 0 hits NaN/Inf: 0*NaN + 0*Inf = NaN, 1*NaN + 0*Inf = NaN
        assert!(c.get(0, 0).is_nan(), "0 * NaN must be NaN, got {c:?}");
        assert!(c.get(1, 0).is_nan(), "1 * NaN must be NaN, got {c:?}");
        // column 1 is finite: 0*2 + 0*3 = 0, 1*2 + 0*3 = 2
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.get(1, 1), 2.0);

        // transposed variants agree in NaN placement
        let atb = a.transpose().matmul_at_b(&b);
        let abt = a.matmul_a_bt(&b.transpose());
        for idx in 0..4 {
            assert_eq!(
                c.data()[idx].is_nan(),
                atb.data()[idx].is_nan(),
                "matmul vs matmul_at_b NaN mismatch at {idx}"
            );
            assert_eq!(
                c.data()[idx].is_nan(),
                abt.data()[idx].is_nan(),
                "matmul vs matmul_a_bt NaN mismatch at {idx}"
            );
        }
        // the naive reference also propagates
        assert!(a.matmul_naive(&b).get(0, 0).is_nan());
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // odd shapes exercise the MR/NR tail paths
        let a = Matrix::from_fn(37, 29, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.013 - 0.5);
        let b = Matrix::from_fn(29, 43, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.011 - 0.4);
        assert_eq!(a.matmul(&b), a.matmul_naive(&b));
    }

    /// Regression: `max_abs` folded through `f32::max`, which drops NaN.
    #[test]
    fn max_abs_propagates_nan() {
        let m = Matrix::from_vec(1, 3, vec![1.0, f32::NAN, -2.0]);
        assert!(m.max_abs().is_nan());
        // NaN first, larger finite values afterwards must not mask it
        let m = Matrix::from_vec(1, 3, vec![f32::NAN, 5.0, -7.0]);
        assert!(m.max_abs().is_nan());
        let m = Matrix::from_vec(1, 3, vec![1.0, -4.0, 2.0]);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }

    /// The `_into` variants must be bit-identical to their allocating
    /// counterparts, regardless of what the output buffers previously held.
    #[test]
    fn into_variants_match_allocating_paths() {
        let a = Matrix::from_fn(19, 23, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.013 - 0.5);
        let b = Matrix::from_fn(23, 11, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.011 - 0.4);
        // dirty buffers with wrong shapes
        let mut out = Matrix::full(3, 50, f32::NAN);
        let mut pack = Matrix::full(7, 2, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        let c = Matrix::from_fn(19, 11, |i, j| (i as f32 - j as f32) * 0.1);
        a.matmul_at_b_into(&c, &mut out, &mut pack);
        assert_eq!(out, a.matmul_at_b(&c));
        let d = Matrix::from_fn(5, 23, |i, j| ((i + 2 * j) % 13) as f32 * 0.09);
        a.matmul_a_bt_into(&d, &mut out, &mut pack);
        assert_eq!(out, a.matmul_a_bt(&d));
    }

    /// The row-range `a·bᵀ` is the full product with leading columns cut
    /// off, bit for bit — across the tile, bank and tail boundaries.
    #[test]
    fn a_bt_over_a_row_range_equals_the_sliced_full_product() {
        let a = Matrix::from_fn(19, 23, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.013 - 0.5);
        let b = Matrix::from_fn(71, 23, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.011 - 0.4);
        let full = a.matmul_a_bt(&b);
        let mut out = Matrix::full(3, 50, f32::NAN);
        let mut pack = Matrix::full(7, 2, f32::NAN);
        for first in [0, 1, 7, 23, 38, 39, 55, 70, 71] {
            a.matmul_a_bt_rows_into(&b, first, &mut out, &mut pack);
            assert_eq!(out.shape(), (19, 71 - first));
            for i in 0..19 {
                let (got, want) = (out.row(i), &full.row(i)[first..]);
                assert!(
                    got.iter()
                        .zip(want)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "first_row {first}, row {i}"
                );
            }
        }
    }

    #[test]
    fn reset_shape_grow_shrink_and_copy_from() {
        let mut m = Matrix::zeros(2, 3);
        let cap_small = m.data.capacity();
        m.reset_shape(4, 5);
        assert_eq!(m.shape(), (4, 5));
        assert_eq!(m.len(), 20);
        assert!(m.data.capacity() >= cap_small);
        let cap_big = m.data.capacity();
        // shrinking keeps the capacity (no reallocation on the next grow)
        m.reset_zero(1, 2);
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.data.capacity(), cap_big);
        assert!(m.data().iter().all(|&v| v == 0.0));
        m.reset_shape(4, 5);
        assert_eq!(m.data.capacity(), cap_big);

        let src = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        m.copy_from(&src);
        assert_eq!(m, src);
        assert_eq!(m.data.capacity(), cap_big);
    }

    #[test]
    fn degenerate_matmul_shapes() {
        // zero inner dimension: all-zero result, no panic
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (3, 4));
        assert!(c.data().iter().all(|&v| v == 0.0));
        // zero output columns
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(2, 0);
        assert_eq!(a.matmul(&b).shape(), (3, 0));
        assert_eq!(a.matmul_at_b(&Matrix::zeros(3, 0)).shape(), (2, 0));
        assert_eq!(a.matmul_a_bt(&Matrix::zeros(0, 2)).shape(), (3, 0));
    }
}
