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
    /// last block hold `‖x‖²` and mean nothing.
    ///
    /// # Panics
    /// Panics if `block` is out of range or `x` has the wrong dimension.
    #[inline]
    pub fn sqdist_into(&self, block: usize, x: &[f32], out: &mut [f32; LANES]) {
        assert_eq!(x.len(), self.dim, "vector dimension mismatch");
        let rows = &self.data[block * self.dim * LANES..][..self.dim * LANES];
        let mut acc = [0.0f32; LANES];
        for (row, &xi) in rows.chunks_exact(LANES).zip(x) {
            for (a, &v) in acc.iter_mut().zip(row) {
                let d = xi - v;
                *a += d * d;
            }
        }
        *out = acc;
    }
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
