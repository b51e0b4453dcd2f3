//! Small dense-vector helpers shared across the workspace.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths (debug builds assert).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    // 4-way unrolled accumulation: keeps the loop auto-vectorizable and
    // reduces sequential FP dependency chains.
    let chunks = a.len() / 4;
    let (a4, a_rest) = a.split_at(chunks * 4);
    let (b4, b_rest) = b.split_at(chunks * 4);
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc0 += ca[0] * cb[0];
        acc1 += ca[1] * cb[1];
        acc2 += ca[2] * cb[2];
        acc3 += ca[3] * cb[3];
    }
    acc += acc0 + acc1 + acc2 + acc3;
    for (&x, &y) in a_rest.iter().zip(b_rest) {
        acc += x * y;
    }
    acc
}

/// Euclidean norm of a vector.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two vectors.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Vectors per block of a [`LaneBlocks`]: one 512-bit register of `f32`
/// accumulators (two 256-bit ones under AVX2).
pub const LANES: usize = 16;

/// Coordinates between two looks at the limits in the bounded kernel
/// ([`LaneBlocks::sqdist_within`]): a look compares all sixteen lanes
/// (after a `sqrt` each in [`LaneBlocks::dist_within`]), and a call that
/// will be abandoned runs on until the next one. Measured on the
/// benchmark's paper fixture (50 000 × 300, three runs each at 16 / 32 /
/// 64): partition build 0.45–0.47 / 0.39–0.41 / 0.43–0.47 s, an indicator
/// call at a training threshold 4.1–4.3 / 5.0–5.8 / 8.1–10.0 µs (29.5
/// unbounded). A dimension of at most one stride is never looked at: the
/// `small` fixture's d = 24 runs the unbounded loop.
const STRIDE: usize = 32;

/// Vectors per call of [`LaneBlocks::sqdist_rows_into`] and
/// [`LaneBlocks::dist_rows_within`].
pub const ROWS: usize = 4;

/// Vectors of one dimension stored **lane-major**, [`LANES`] to a block:
/// coordinate `i` of a block's sixteen vectors is one contiguous row, so
/// the distance kernel runs sixteen independent sums side by side —
/// vertical SIMD across vectors instead of a reduction inside one.
///
/// [`LaneBlocks::sqdist_into`] is the workspace's one-vs-many kernel, and
/// every lane of it is **bit-identical** to [`squared_euclidean`]: the same
/// `(x_i − v_i)²` terms added in the same index order, one accumulator per
/// vector, no FMA, no reassociation. Whatever is decided on a block
/// distance (a cover-tree routing test, a label, an indicator flag) is
/// decided exactly as the pair kernel would have.
#[derive(Clone, Debug)]
pub struct LaneBlocks {
    dim: usize,
    len: usize,
    /// Block `b`, coordinate `i`, lane `l` at `(b * dim + i) * LANES + l`;
    /// the unused lanes of a partially filled last block hold zeros.
    data: Vec<f32>,
}

impl LaneBlocks {
    /// An empty store of `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        LaneBlocks {
            dim,
            len: 0,
            data: Vec::new(),
        }
    }

    /// An empty store with room for exactly `vectors` vectors, so that
    /// filling it never reallocates or over-allocates.
    pub fn with_capacity(dim: usize, vectors: usize) -> Self {
        let mut blocks = LaneBlocks::new(dim);
        blocks
            .data
            .reserve_exact(vectors.div_ceil(LANES) * LANES * dim);
        blocks
    }

    /// Dimension of every stored vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vector is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks, the last one possibly partially filled.
    pub fn blocks(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    /// Removes every vector, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
        self.data.clear();
    }

    /// Appends `v` as vector number [`LaneBlocks::len`].
    ///
    /// # Panics
    /// Panics if `v.len()` differs from the store's dimension.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let lane = self.len % LANES;
        if lane == 0 {
            self.data.resize(self.data.len() + self.dim * LANES, 0.0);
        }
        let block = self.data.len() - self.dim * LANES;
        for (row, &c) in self.data[block..].chunks_exact_mut(LANES).zip(v) {
            row[lane] = c;
        }
        self.len += 1;
    }

    /// The coordinates of vector `i`, gathered back out of its lane.
    pub fn vector(&self, i: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(i < self.len, "vector index out of range");
        let block = &self.data[i / LANES * self.dim * LANES..][..self.dim * LANES];
        block.chunks_exact(LANES).map(move |row| row[i % LANES])
    }

    /// Exchanges vectors `i` and `j` in place.
    pub fn swap(&mut self, i: usize, j: usize) {
        assert!(i < self.len && j < self.len, "vector index out of range");
        let at = |v: usize| v / LANES * self.dim * LANES + v % LANES;
        let (a, b) = (at(i), at(j));
        for row in (0..self.dim * LANES).step_by(LANES) {
            self.data.swap(a + row, b + row);
        }
    }

    /// Squared Euclidean distances from `x` to the sixteen vectors of
    /// `block`: `out[l]` has the bits of `squared_euclidean(x, v)` for the
    /// vector `v` in lane `l`. Lanes past the end of a partially filled
    /// last block hold `‖x‖²` and mean nothing. The reference path: the
    /// bounded kernel with no limit to abandon at.
    ///
    /// # Panics
    /// Panics if `block` is out of range or `x` has the wrong dimension.
    #[inline]
    pub fn sqdist_into(&self, block: usize, x: &[f32], out: &mut [f32; LANES]) {
        let finished = self.sqdist_within(block, x, &[f32::INFINITY; LANES], out);
        debug_assert!(finished, "nothing lies beyond an infinite limit");
    }

    /// [`LaneBlocks::sqdist_into`] only as far as a decision needs it:
    /// returns `false`, leaving `out` as it was, once **every** lane's
    /// partial sum is beyond its limit (`sum > limits[l]`), and otherwise
    /// `true` with `out` exactly as `sqdist_into` leaves it.
    ///
    /// Sound for any caller that ignores a lane whose squared distance
    /// exceeds its limit: the terms are non-negative and added in
    /// round-to-nearest, so a lane's partial sums never decrease and one
    /// that is beyond the limit stays beyond it. A NaN — a coordinate's or
    /// a limit's — compares false and keeps its lane open, so the call
    /// finishes; a lane that holds no vector is given `-∞` by the caller
    /// and is never what keeps a block open.
    ///
    /// # Panics
    /// Panics if `block` is out of range or `x` has the wrong dimension.
    #[inline]
    pub fn sqdist_within(
        &self,
        block: usize,
        x: &[f32],
        limits: &[f32; LANES],
        out: &mut [f32; LANES],
    ) -> bool {
        self.within(block, x, limits, |sum| sum, out)
    }

    /// [`LaneBlocks::sqdist_within`] for callers that decide on the
    /// distance itself: `limits` bound `sqrt(sum)`, compared as such
    /// (`sqrt` is monotone, so a partial sum's root beyond the limit means
    /// the distance is; comparing the sum with a squared limit would not
    /// decide as the caller does), and `out[l]` is the distance
    /// `squared_euclidean(x, v).sqrt()`.
    #[inline]
    pub fn dist_within(
        &self,
        block: usize,
        x: &[f32],
        limits: &[f32; LANES],
        out: &mut [f32; LANES],
    ) -> bool {
        self.within(block, x, limits, f32::sqrt, out)
    }

    /// The one-record kernel body: sixteen sums in index order, looked at
    /// in `space` (monotone non-decreasing) every [`STRIDE`] coordinates.
    #[inline(always)]
    fn within(
        &self,
        block: usize,
        x: &[f32],
        limits: &[f32; LANES],
        space: impl Fn(f32) -> f32,
        out: &mut [f32; LANES],
    ) -> bool {
        assert_eq!(x.len(), self.dim, "vector dimension mismatch");
        let rows = &self.data[block * self.dim * LANES..][..self.dim * LANES];
        let strides = self.dim.div_ceil(STRIDE);
        let mut acc = [0.0f32; LANES];
        for (s, (rows, xs)) in (rows.chunks(STRIDE * LANES).zip(x.chunks(STRIDE))).enumerate() {
            for (row, &xi) in rows.chunks_exact(LANES).zip(xs) {
                for (a, &v) in acc.iter_mut().zip(row) {
                    let d = xi - v;
                    *a += d * d;
                }
            }
            // no look after the last stride: the sums are finished anyway.
            // All sixteen lanes, no early exit, so the test stays in
            // vector registers.
            if s + 1 < strides {
                let beyond = (acc.iter().zip(limits))
                    .fold(true, |beyond, (&sum, &limit)| beyond & (space(sum) > limit));
                if beyond {
                    return false;
                }
            }
        }
        *out = acc.map(space);
        true
    }

    /// [`LaneBlocks::sqdist_into`] for [`ROWS`] vectors at once:
    /// `out[r][l]` has the bits of `squared_euclidean(xs[r], v)` for the
    /// vector `v` in lane `l`. One pass over the block feeds `ROWS`
    /// independent accumulator rows, so the add latency of one row's
    /// chain is hidden behind the others' — the kernel for a scan that
    /// needs every distance in full.
    ///
    /// # Panics
    /// Panics if `block` is out of range or an `x` has the wrong dimension.
    #[inline]
    pub fn sqdist_rows_into(
        &self,
        block: usize,
        xs: [&[f32]; ROWS],
        out: &mut [[f32; LANES]; ROWS],
    ) {
        for x in xs {
            assert_eq!(x.len(), self.dim, "vector dimension mismatch");
        }
        let rows = &self.data[block * self.dim * LANES..][..self.dim * LANES];
        let mut acc = [[0.0f32; LANES]; ROWS];
        for (i, row) in rows.chunks_exact(LANES).enumerate() {
            for (acc, x) in acc.iter_mut().zip(xs) {
                let xi = x[i];
                for (a, &v) in acc.iter_mut().zip(row) {
                    let d = xi - v;
                    *a += d * d;
                }
            }
        }
        *out = acc;
    }

    /// [`LaneBlocks::dist_within`] for [`ROWS`] vectors at once, each row
    /// with its own sixteen limits: row `r` is looked at where
    /// `dist_within(block, xs[r], &limits[r], ..)` would be, and once all
    /// its lanes are beyond their limits at a look it is closed for good
    /// — that call's early return. The call returns as soon as every row
    /// is closed, and otherwise runs to the end. Returns which rows are
    /// open: exactly those for which `dist_within` returns `true`, and an
    /// open row's `out[r]` has the bits that call leaves in its `out`; a
    /// closed row's is left as it was. One pass over the block feeds the
    /// accumulator rows of the rows still open, as in
    /// [`LaneBlocks::sqdist_rows_into`], and a closed row costs nothing
    /// more: a row the caller is done with gets `-∞` limits and is dropped
    /// at the first look.
    ///
    /// # Panics
    /// Panics if `block` is out of range or an `x` has the wrong dimension.
    #[inline]
    pub fn dist_rows_within(
        &self,
        block: usize,
        xs: [&[f32]; ROWS],
        limits: &[[f32; LANES]; ROWS],
        out: &mut [[f32; LANES]; ROWS],
    ) -> [bool; ROWS] {
        for x in xs {
            assert_eq!(x.len(), self.dim, "vector dimension mismatch");
        }
        let rows = &self.data[block * self.dim * LANES..][..self.dim * LANES];
        let strides = self.dim.div_ceil(STRIDE);
        // the open rows, kept in order at the front: `acc[k]` and `xs[k]`
        // belong to row `live[k]`, for `k < n`
        let (mut xs, mut n) = (xs, ROWS);
        let mut live: [usize; ROWS] = std::array::from_fn(|r| r);
        let mut acc = [[0.0f32; LANES]; ROWS];
        for (s, rows) in rows.chunks(STRIDE * LANES).enumerate() {
            let start = s * STRIDE;
            match n {
                1 => add_stride::<1>(&mut acc, &xs, start, rows),
                2 => add_stride::<2>(&mut acc, &xs, start, rows),
                3 => add_stride::<3>(&mut acc, &xs, start, rows),
                _ => add_stride::<ROWS>(&mut acc, &xs, start, rows),
            }
            if s + 1 < strides {
                let mut kept = 0;
                for k in 0..n {
                    let beyond = (acc[k].iter().zip(&limits[live[k]]))
                        .fold(true, |beyond, (&sum, &limit)| beyond & (sum.sqrt() > limit));
                    if !beyond {
                        (acc[kept], xs[kept], live[kept]) = (acc[k], xs[k], live[k]);
                        kept += 1;
                    }
                }
                n = kept;
                if n == 0 {
                    return [false; ROWS];
                }
            }
        }
        let mut open = [false; ROWS];
        for k in 0..n {
            open[live[k]] = true;
            out[live[k]] = acc[k].map(f32::sqrt);
        }
        open
    }
}

/// One stride of [`LaneBlocks::dist_rows_within`] for its first `N` open
/// rows: adds `(x_i − v_i)²` to `acc[k][l]` for each coordinate row `i` of
/// `rows` (lane-major, `v` the lane's coordinate) and `x = xs[k]` from
/// coordinate `start` on, in index order. The rows' count is a constant
/// here, and the sums are passed by value, so that they stay in registers.
#[inline(always)]
fn add_stride<const N: usize>(
    acc: &mut [[f32; LANES]; ROWS],
    xs: &[&[f32]; ROWS],
    start: usize,
    rows: &[f32],
) {
    let mut sums: [[f32; LANES]; N] = std::array::from_fn(|k| acc[k]);
    let xs: [&[f32]; N] = std::array::from_fn(|k| &xs[k][start..][..rows.len() / LANES]);
    for (i, row) in rows.chunks_exact(LANES).enumerate() {
        for (sums, x) in sums.iter_mut().zip(&xs) {
            let xi = x[i];
            for (a, &v) in sums.iter_mut().zip(row) {
                let d = xi - v;
                *a += d * d;
            }
        }
    }
    acc[..N].copy_from_slice(&sums);
}

/// Normalizes `v` to unit length in place. Zero vectors are left unchanged.
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// Normalizes every row of a flat row-major buffer in place.
pub fn normalize_all(data: &mut [f32], dim: usize) {
    assert!(
        dim > 0 && data.len().is_multiple_of(dim),
        "buffer not a multiple of dim"
    );
    for row in data.chunks_exact_mut(dim) {
        normalize(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0, 0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
    }

    /// Values with full mantissas and mixed magnitudes, so that any
    /// reordering of the sum or a fused multiply-add would change bits.
    fn random_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|_| rng.gen_range(-3.0f32..3.0) * 10f32.powi(rng.gen_range(-2..3)))
            .collect()
    }

    #[test]
    fn every_lane_has_the_bits_of_the_pair_kernel() {
        let mut rng = StdRng::seed_from_u64(0x1a9e);
        for dim in 1..=400 {
            // one, a partially filled, a full and a full-plus-one block
            let count = [1, 7, LANES, LANES + 1, 3 * LANES - 1][dim % 5];
            let vs: Vec<Vec<f32>> = (0..count).map(|_| random_vector(&mut rng, dim)).collect();
            let mut blocks = LaneBlocks::new(dim);
            for v in &vs {
                blocks.push(v);
            }
            assert_eq!((blocks.len(), blocks.dim()), (count, dim));
            assert_eq!(blocks.blocks(), count.div_ceil(LANES));
            let x = random_vector(&mut rng, dim);
            let mut out = [0.0f32; LANES];
            for (b, chunk) in vs.chunks(LANES).enumerate() {
                blocks.sqdist_into(b, &x, &mut out);
                for (l, v) in chunk.iter().enumerate() {
                    let pair = squared_euclidean(&x, v);
                    assert_eq!(out[l].to_bits(), pair.to_bits(), "dim {dim} lane {l}");
                    assert_eq!(pair.to_bits(), squared_euclidean(v, &x).to_bits());
                }
            }
        }
    }

    /// A limit at, one ulp either side of, well below or above `truth`,
    /// infinite, NaN or negative.
    fn limit_around(rng: &mut StdRng, truth: f32) -> f32 {
        match rng.gen_range(0..11) {
            0 => truth,
            1 => truth.next_down(),
            2 => truth.next_up(),
            3 => truth * 0.5,
            4 => truth * 2.0,
            5 => f32::INFINITY,
            6 => f32::NEG_INFINITY,
            7 => f32::NAN,
            8 => -truth,
            _ => truth * rng.gen_range(0.0f32..2.0),
        }
    }

    /// What the bounded kernel promises, in either space: with limits
    /// mixed per lane around the true values, it never says "beyond"
    /// while a lane is within its limit, it does say so when every lane
    /// is beyond from the first stride on, and whenever it finishes it
    /// reports the pair kernel's bits.
    #[test]
    fn the_bounded_kernel_abandons_only_what_is_beyond_every_limit() {
        let mut rng = StdRng::seed_from_u64(0xb0d);
        let (mut finished, mut abandoned) = (0, 0);
        for dim in 1..=400 {
            let count = [1, 7, LANES, LANES + 1, 3 * LANES - 1][dim % 5];
            let vs: Vec<Vec<f32>> = (0..count).map(|_| random_vector(&mut rng, dim)).collect();
            let mut blocks = LaneBlocks::new(dim);
            vs.iter().for_each(|v| blocks.push(v));
            let x = random_vector(&mut rng, dim);
            for b in 0..blocks.blocks() {
                // the lanes as the kernel sees them, padding included
                let mut full = [0.0f32; LANES];
                blocks.sqdist_into(b, &x, &mut full);
                let first_stride = dim.min(STRIDE);
                let mut head = LaneBlocks::new(first_stride);
                (b * LANES..count.min((b + 1) * LANES))
                    .for_each(|i| head.push(&vs[i][..first_stride]));
                let mut partial = [0.0f32; LANES];
                head.sqdist_into(0, &x[..first_stride], &mut partial);
                for squared in [true, false] {
                    let space = |sum: f32| if squared { sum } else { sum.sqrt() };
                    for round in 0..6 {
                        let mut limits = full.map(|d| limit_around(&mut rng, space(d)));
                        if round == 0 {
                            // every lane beyond its limit after one stride
                            limits = partial.map(|d| space(d) * rng.gen_range(0.0f32..0.999));
                        }
                        let mut out = [-1.0f32; LANES];
                        let done = match squared {
                            true => blocks.sqdist_within(b, &x, &limits, &mut out),
                            false => blocks.dist_within(b, &x, &limits, &mut out),
                        };
                        let what = format!("dim {dim} block {b} squared {squared} {limits:?}");
                        if done {
                            finished += 1;
                            for (l, (got, want)) in out.iter().zip(full).enumerate() {
                                assert_eq!(got.to_bits(), space(want).to_bits(), "lane {l} {what}");
                            }
                        } else {
                            abandoned += 1;
                            assert_eq!(out, [-1.0; LANES], "{what}");
                            let within = full.iter().zip(&limits).any(|(&d, &l)| space(d) <= l);
                            assert!(!within, "a lane was within its limit: {what}");
                        }
                        let beyond_at_once =
                            (partial.iter().zip(&limits)).all(|(&d, &l)| space(d) > l);
                        if dim > STRIDE && beyond_at_once {
                            assert!(!done, "{what}");
                        }
                        if dim <= STRIDE {
                            assert!(done, "one stride is never abandoned: {what}");
                        }
                    }
                }
            }
        }
        assert!(
            finished > 1000 && abandoned > 1000,
            "{finished} {abandoned}"
        );
    }

    /// The comparison is strict: vectors that differ from `x` in their
    /// first coordinates only reach their full distance within one stride,
    /// and a lane whose limit is exactly that distance stays open through
    /// every later look, while one ulp less closes the block at once.
    #[test]
    fn a_lane_exactly_at_its_limit_stays_open() {
        let mut rng = StdRng::seed_from_u64(0xe9);
        let dim = 100;
        let x = random_vector(&mut rng, dim);
        let mut blocks = LaneBlocks::new(dim);
        for _ in 0..LANES {
            let mut v = x.clone();
            v[..10].copy_from_slice(&random_vector(&mut rng, 10));
            blocks.push(&v);
        }
        let mut full = [0.0f32; LANES];
        blocks.sqdist_into(0, &x, &mut full);
        let mut out = [0.0f32; LANES];
        for lane in 0..LANES {
            let mut at = [f32::NEG_INFINITY; LANES];
            at[lane] = full[lane];
            assert!(blocks.sqdist_within(0, &x, &at, &mut out));
            assert_eq!(out.map(f32::to_bits), full.map(f32::to_bits));
            at[lane] = full[lane].sqrt();
            assert!(blocks.dist_within(0, &x, &at, &mut out));
            assert_eq!(out.map(f32::to_bits), full.map(|d| d.sqrt().to_bits()));
        }
        let below = full.map(f32::next_down);
        assert!(!blocks.sqdist_within(0, &x, &below, &mut out));
        let below = full.map(|d| d.sqrt().next_down());
        assert!(!blocks.dist_within(0, &x, &below, &mut out));
    }

    /// A NaN never closes a lane: one in a limit or among a lane's first
    /// coordinates keeps the call going to the end, whatever the other
    /// lanes say, and the other lanes' distances are the pair kernel's.
    #[test]
    fn a_nan_keeps_its_lane_open() {
        let mut rng = StdRng::seed_from_u64(0xa9);
        for dim in [1, 31, 33, 64, 65, 300] {
            let mut vs: Vec<Vec<f32>> = (0..LANES).map(|_| random_vector(&mut rng, dim)).collect();
            let x = random_vector(&mut rng, dim);
            let lane = dim % LANES;
            for nan_in_limit in [true, false] {
                let mut limits = [f32::NEG_INFINITY; LANES];
                if nan_in_limit {
                    limits[lane] = f32::NAN;
                } else {
                    vs[lane][0] = f32::NAN;
                }
                let mut blocks = LaneBlocks::new(dim);
                vs.iter().for_each(|v| blocks.push(v));
                for squared in [true, false] {
                    let mut out = [0.0f32; LANES];
                    let done = match squared {
                        true => blocks.sqdist_within(0, &x, &limits, &mut out),
                        false => blocks.dist_within(0, &x, &limits, &mut out),
                    };
                    assert!(done, "dim {dim} squared {squared} limit {nan_in_limit}");
                    for (l, v) in vs.iter().enumerate() {
                        let sq = squared_euclidean(&x, v);
                        let want = if squared { sq } else { sq.sqrt() };
                        assert_eq!(out[l].to_bits(), want.to_bits(), "dim {dim} lane {l}");
                    }
                    assert_eq!(out[lane].is_nan(), !nan_in_limit);
                }
                // a NaN coordinate of the query keeps every lane open
                let mut x = x.clone();
                x[0] = f32::NAN;
                let mut out = [0.0f32; LANES];
                assert!(blocks.sqdist_within(0, &x, &[f32::NEG_INFINITY; LANES], &mut out));
                assert!(out.iter().all(|d| d.is_nan()));
            }
        }
    }

    #[test]
    fn the_rows_kernel_equals_one_call_per_row_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x404);
        for dim in 1..=400 {
            let count = [1, 7, LANES, LANES + 1, 3 * LANES - 1][dim % 5];
            let mut blocks = LaneBlocks::new(dim);
            (0..count).for_each(|_| blocks.push(&random_vector(&mut rng, dim)));
            let xs: Vec<Vec<f32>> = (0..ROWS).map(|_| random_vector(&mut rng, dim)).collect();
            for b in 0..blocks.blocks() {
                let mut rows = [[0.0f32; LANES]; ROWS];
                blocks.sqdist_rows_into(b, std::array::from_fn(|r| xs[r].as_slice()), &mut rows);
                for (x, row) in xs.iter().zip(rows) {
                    let mut one = [0.0f32; LANES];
                    blocks.sqdist_into(b, x, &mut one);
                    assert_eq!(row.map(f32::to_bits), one.map(f32::to_bits), "dim {dim}");
                }
            }
        }
    }

    /// Every row of the four-row bounded kernel is open exactly when
    /// `dist_within` on that row alone returns `true`, and leaves its
    /// output as that call does (the same bits when open, untouched when
    /// not), under limits mixed per row and lane: infinite, NaN, negative,
    /// a lane's exact distance, the value just below it, and rows closed
    /// from the start with `-∞`.
    #[test]
    fn the_rows_kernel_opens_a_row_exactly_when_dist_within_finishes() {
        let mut rng = StdRng::seed_from_u64(0x4b0d);
        let (mut open, mut closed) = (0, 0);
        for dim in 1..=400 {
            let count = [1, 7, LANES, LANES + 1, 3 * LANES - 1][dim % 5];
            let mut blocks = LaneBlocks::new(dim);
            (0..count).for_each(|_| blocks.push(&random_vector(&mut rng, dim)));
            let xs: Vec<Vec<f32>> = (0..ROWS).map(|_| random_vector(&mut rng, dim)).collect();
            let xs: [&[f32]; ROWS] = std::array::from_fn(|r| xs[r].as_slice());
            for b in 0..blocks.blocks() {
                let full = xs.map(|x| {
                    let mut sq = [0.0f32; LANES];
                    blocks.sqdist_into(b, x, &mut sq);
                    sq.map(f32::sqrt)
                });
                for round in 0..8 {
                    let limits: [[f32; LANES]; ROWS] = std::array::from_fn(|r| match round {
                        // every row closed from the start but one
                        0 if r != dim % ROWS => [f32::NEG_INFINITY; LANES],
                        // every row beyond at the first look it gets
                        1 => full[r].map(|d| d * 0.01),
                        _ => full[r].map(|d| limit_around(&mut rng, d)),
                    });
                    let mut got = [[-1.0f32; LANES]; ROWS];
                    let rows_open = blocks.dist_rows_within(b, xs, &limits, &mut got);
                    for r in 0..ROWS {
                        let mut want = [-1.0f32; LANES];
                        let finished = blocks.dist_within(b, xs[r], &limits[r], &mut want);
                        let what = format!("dim {dim} block {b} row {r} {:?}", limits[r]);
                        assert_eq!(rows_open[r], finished, "{what}");
                        if finished {
                            open += 1;
                        } else {
                            closed += 1;
                        }
                        // a closed row's output is left as it was, as is
                        // `dist_within`'s
                        assert_eq!(got[r].map(f32::to_bits), want.map(f32::to_bits), "{what}");
                    }
                }
            }
        }
        assert!(open > 1000 && closed > 1000, "{open} {closed}");
    }

    #[test]
    fn lane_blocks_give_their_vectors_back_and_reuse_their_buffer() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut blocks = LaneBlocks::new(9);
        assert!(blocks.is_empty());
        for round in 0..2 {
            let vs: Vec<Vec<f32>> = (0..LANES + 3).map(|_| random_vector(&mut rng, 9)).collect();
            for v in &vs {
                blocks.push(v);
            }
            for (i, v) in vs.iter().enumerate() {
                assert_eq!(&blocks.vector(i).collect::<Vec<_>>(), v, "round {round}");
            }
            // swaps across and within blocks, and with itself
            for (i, j) in [(0, LANES + 2), (3, 4), (5, 5)] {
                blocks.swap(i, j);
                assert_eq!(blocks.vector(i).collect::<Vec<_>>(), vs[j]);
                assert_eq!(blocks.vector(j).collect::<Vec<_>>(), vs[i]);
                blocks.swap(j, i);
            }
            blocks.clear();
            assert_eq!((blocks.len(), blocks.blocks()), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn lane_blocks_reject_a_vector_of_another_dimension() {
        LaneBlocks::new(3).push(&[1.0, 2.0]);
    }

    #[test]
    fn normalize_all_rows() {
        let mut data = vec![3.0, 4.0, 0.0, 5.0];
        normalize_all(&mut data, 2);
        assert!((norm(&data[0..2]) - 1.0).abs() < 1e-6);
        assert!((norm(&data[2..4]) - 1.0).abs() < 1e-6);
    }
}
