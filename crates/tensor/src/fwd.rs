//! Forward-pass kernels shared by the autodiff tape ([`crate::Graph`]) and
//! the compiled inference plans ([`crate::InferencePlan`]).
//!
//! Both execution engines call these exact functions, so a plan replay is
//! **bit-identical** to the tape forward pass by construction: there is one
//! implementation of every op's arithmetic, not two that merely agree. Each
//! kernel fully overwrites its output (which arrives pre-shaped with
//! unspecified contents) and allocates nothing.

use crate::matrix::Matrix;

// ---- scalar maps (the elementwise op set) ----

#[inline]
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

#[inline]
pub(crate) fn leaky_relu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * x
    }
}

#[inline]
pub(crate) fn elu_plus_one(x: f32) -> f32 {
    if x > 0.0 {
        x + 1.0
    } else {
        x.exp()
    }
}

#[inline]
pub(crate) fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[inline]
pub(crate) fn exp_clamped(x: f32) -> f32 {
    x.min(30.0).exp()
}

#[inline]
pub(crate) fn ln_eps(x: f32, eps: f32) -> f32 {
    (x.max(0.0) + eps).ln()
}

#[inline]
pub(crate) fn huber(r: f32, delta: f32) -> f32 {
    if r.abs() <= delta {
        0.5 * r * r
    } else {
        delta * (r.abs() - 0.5 * delta)
    }
}

// ---- elementwise drivers ----

/// `out[i] = f(a[i])` over the flat data, in data order.
pub(crate) fn unary_map(a: &Matrix, out: &mut Matrix, f: impl Fn(f32) -> f32) {
    for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
        *o = f(x);
    }
}

/// `out[i] = f(a[i], b[i])` over the flat data, in data order.
pub(crate) fn binary_zip(a: &Matrix, b: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
}

// ---- structured kernels ----

/// Matrix (`R x C`) plus a `1 x C` row vector broadcast over rows.
pub(crate) fn add_row_vec(m: &Matrix, row: &Matrix, out: &mut Matrix) {
    for i in 0..m.rows() {
        for ((o, &x), &b) in out.row_mut(i).iter_mut().zip(m.row(i)).zip(row.data()) {
            *o = x + b;
        }
    }
}

/// Matrix (`R x C`) times an `R x 1` column vector broadcast over columns.
pub(crate) fn mul_col_vec(m: &Matrix, col: &Matrix, out: &mut Matrix) {
    for i in 0..m.rows() {
        let s = col.get(i, 0);
        for (o, &x) in out.row_mut(i).iter_mut().zip(m.row(i)) {
            *o = x * s;
        }
    }
}

/// Row-wise softmax.
pub(crate) fn softmax_rows(a: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows() {
        let row = out.row_mut(i);
        row.copy_from_slice(a.row(i));
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Per-row sum into an `R x 1` output.
pub(crate) fn row_sum(a: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows() {
        let s: f32 = a.row(i).iter().sum();
        out.set(i, 0, s);
    }
}

/// Column concatenation of two same-row-count matrices.
pub(crate) fn concat_cols(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let ca = a.cols();
    for i in 0..a.rows() {
        let dst = out.row_mut(i);
        dst[..ca].copy_from_slice(a.row(i));
        dst[ca..].copy_from_slice(b.row(i));
    }
}

/// Column slice `[start, end)`.
pub(crate) fn slice_cols(a: &Matrix, start: usize, end: usize, out: &mut Matrix) {
    for i in 0..a.rows() {
        out.row_mut(i).copy_from_slice(&a.row(i)[start..end]);
    }
}

/// `out` row `r` = `a` row `idx[r]`; the caller has checked the indices.
pub(crate) fn gather_rows(a: &Matrix, idx: &[usize], out: &mut Matrix) {
    for (r, &src) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(a.row(src));
    }
}

/// Per-row prefix sum (the paper's `M_psum` operator).
pub(crate) fn cumsum_cols(a: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows() {
        let mut acc = 0.0f32;
        for (o, &x) in out.row_mut(i).iter_mut().zip(a.row(i)) {
            acc += x;
            *o = acc;
        }
    }
}

/// The paper's `Norml2` normalized-square map (§5.2).
pub(crate) fn norml2(a: &Matrix, eps: f32, out: &mut Matrix) {
    let d = a.cols() as f32;
    for i in 0..a.rows() {
        let src = a.row(i);
        let dot: f32 = src.iter().map(|&x| x * x).sum();
        let denom = dot + eps;
        for (o, &x) in out.row_mut(i).iter_mut().zip(src) {
            *o = (x * x + eps / d) / denom;
        }
    }
}

/// Eq. (1) for one row: the value of the piece-wise linear curve through
/// `(tau[i], p[i])` at `t`, plus the segment choice the tape's backward
/// sweep replays (`-1` below range, `-2` at/above range, else the segment
/// index). `tau` is non-decreasing with at least two knots.
#[inline]
fn pwl_row(tau: &[f32], p: &[f32], t: f32) -> (f32, i64) {
    let m = tau.len();
    if t < tau[0] {
        return (p[0], -1);
    }
    if t >= tau[m - 1] {
        return (p[m - 1], -2);
    }
    // binary search for the segment i with tau[i] <= t < tau[i+1]
    let mut lo = 0usize;
    let mut hi = m - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if tau[mid] <= t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let denom = (tau[lo + 1] - tau[lo]).max(1e-12);
    let alpha = (t - tau[lo]) / denom;
    (p[lo] + alpha * (p[lo + 1] - p[lo]), lo as i64)
}

/// The paper's estimator head, Eq. (1), for one query: interpolates the
/// control points `(tau, p)` at threshold `t`, clamping to `p[0]` below
/// `tau[0]` and to the last ordinate at or above the last knot. This is
/// the row body of the tape's `pwl_interp` op, exported so serving code
/// that holds a query's control points applies the *same* arithmetic to
/// any threshold — bit-identity with the tape is by construction.
#[inline]
pub fn pwl_interp_row(tau: &[f32], p: &[f32], t: f32) -> f32 {
    pwl_row(tau, p, t).0
}

/// Piece-wise linear interpolation of Eq. (1) over a column of
/// thresholds. `tau` / `p` broadcast from one row when they have a single
/// row. When `seg` is provided (the tape's backward sweep replays it), the
/// per-row segment choice of [`pwl_row`] is recorded.
pub(crate) fn pwl_interp(
    tau: &Matrix,
    p: &Matrix,
    t: &Matrix,
    out: &mut Matrix,
    mut seg: Option<&mut Vec<i64>>,
) {
    let rows = t.rows();
    if let Some(seg) = seg.as_deref_mut() {
        seg.clear();
        seg.resize(rows, 0);
    }
    for r in 0..rows {
        let taur = tau.row(if tau.rows() == 1 { 0 } else { r });
        let pr = p.row(if p.rows() == 1 { 0 } else { r });
        let (y, s) = pwl_row(taur, pr, t.get(r, 0));
        if let Some(seg) = seg.as_deref_mut() {
            seg[r] = s;
        }
        out.set(r, 0, y);
    }
}

/// Per-block linear map — the decoder of the paper's model M (§5.2).
/// Iterates blocks-outer / rows-inner with a 4-row unroll: each output's
/// reduction chain is unchanged (bias first, then the chunk in index
/// order — bit-identical to the straightforward loop), but four
/// *independent* chains run interleaved, so the CPU overlaps their FMA
/// latencies instead of serializing on one accumulator.
pub(crate) fn block_linear(input: &Matrix, weight: &Matrix, bias: &Matrix, out: &mut Matrix) {
    let blocks = weight.rows();
    let h = weight.cols();
    let rows = input.rows();
    let ic = input.cols();
    let data = input.data();
    for i in 0..blocks {
        let w = weight.row(i);
        let b = bias.get(0, i);
        let col = i * h;
        let mut r = 0;
        while r + 4 <= rows {
            let c0 = &data[r * ic + col..r * ic + col + h];
            let c1 = &data[(r + 1) * ic + col..(r + 1) * ic + col + h];
            let c2 = &data[(r + 2) * ic + col..(r + 2) * ic + col + h];
            let c3 = &data[(r + 3) * ic + col..(r + 3) * ic + col + h];
            let (mut a0, mut a1, mut a2, mut a3) = (b, b, b, b);
            for (k, &wv) in w.iter().enumerate() {
                a0 += c0[k] * wv;
                a1 += c1[k] * wv;
                a2 += c2[k] * wv;
                a3 += c3[k] * wv;
            }
            out.set(r, i, a0);
            out.set(r + 1, i, a1);
            out.set(r + 2, i, a2);
            out.set(r + 3, i, a3);
            r += 4;
        }
        while r < rows {
            let chunk = &data[r * ic + col..r * ic + col + h];
            let mut acc = b;
            for (&x, &wv) in chunk.iter().zip(w) {
                acc += x * wv;
            }
            out.set(r, i, acc);
            r += 1;
        }
    }
}

/// Multilinear lattice interpolation over the unit hypercube.
pub(crate) fn lattice(input: &Matrix, params: &Matrix, out: &mut Matrix) {
    let m = input.cols();
    for r in 0..input.rows() {
        let x = input.row(r);
        let mut acc = 0.0f32;
        for mask in 0..(1usize << m) {
            let mut w = 1.0f32;
            for (j, &xj) in x.iter().enumerate() {
                let c = xj.clamp(0.0, 1.0);
                w *= if mask >> j & 1 == 1 { c } else { 1.0 - c };
            }
            acc += w * params.get(0, mask);
        }
        out.set(r, 0, acc);
    }
}
