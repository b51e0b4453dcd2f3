//! Synthetic embedding generators standing in for the paper's datasets.
//!
//! | Paper dataset | Generator | Preserved structure |
//! |---|---|---|
//! | fasttext (1M × 300, not normalized) | [`fasttext_like`] | Zipf-weighted anisotropic Gaussian clusters with log-normal norm scaling → heavy density skew, cosine ≠ Euclidean |
//! | face (2M × 128, normalized) | [`face_like`] | Gaussian clusters projected to the unit sphere → clustered cosine distances |
//! | YouTube (0.35M × 1770, normalized) | [`youtube_like`] | high-dimensional normalized mixture with per-cluster sparse support |
//!
//! All generators are deterministic given the seed.
//!
//! [`fasttext_like`], the generator of the benchmark's fixtures, draws its
//! RNG stream on the calling thread, a chunk of rows at a time and in the
//! order a row-by-row loop would, while the `selnet_tensor::parallel`
//! workers run the transforms of the chunk drawn before (each normal's
//! `ln`, `sqrt` and `cos`, each row's `exp`), a block of rows at a time
//! from a shared queue; once its draw is done, the calling thread takes
//! blocks from the same queue. Drawing is about a fifth of the work and
//! the transforms, calls into the maths library, are latency bound, so
//! both gain from a second hardware thread even where it shares a core,
//! and no split between the two has to be tuned. The bits are the same
//! on any number of workers.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
pub use selnet_tensor::init::randn;
use selnet_tensor::init::{box_muller, uniform_pair};
use selnet_tensor::parallel;
use std::sync::Mutex;

/// Coordinates [`fasttext_like`] draws the uniforms of at a time: two
/// buffers, the chunk being drawn and the one being transformed, each of
/// two `f32` per coordinate (1 MiB each). At 50 000 × 300, chunks of
/// 2^16, 2^17 and 2^18 coordinates timed the same.
const DRAW_CHUNK_COORDS: usize = 1 << 17;

/// Coordinates a worker transforms per block it takes from a chunk's
/// queue: ≈ 0.1 ms at the ≈ 30 ns a coordinate takes on one thread, far
/// above the lock that hands the block out, and 32 blocks to a chunk, so
/// that the workers finish a chunk within a block of each other.
const TRANSFORM_BLOCK_COORDS: usize = 1 << 12;

/// Configuration shared by the dataset generators.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Number of vectors to generate.
    pub n: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of mixture components.
    pub clusters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Convenience constructor.
    pub fn new(n: usize, dim: usize, clusters: usize, seed: u64) -> Self {
        GeneratorConfig {
            n,
            dim,
            clusters,
            seed,
        }
    }
}

/// Zipf-like mixture weights: weight of cluster `k` ∝ 1/(k+1).
fn zipf_weights(k: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..k).map(|i| 1.0 / (i + 1) as f64).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Samples a cluster index from cumulative weights.
fn sample_cluster(cum: &[f64], rng: &mut impl Rng) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    match cum.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
        Ok(i) | Err(i) => i.min(cum.len() - 1),
    }
}

fn cumulative(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// fasttext-like: anisotropic Gaussian mixture with Zipfian cluster weights
/// and log-normal norm scaling; **not** normalized.
pub fn fasttext_like(cfg: &GeneratorConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = cfg.clusters.max(1);
    let cum = cumulative(&zipf_weights(k));

    // cluster centers and per-cluster anisotropic scales
    let centers: Vec<Vec<f32>> = (0..k)
        .map(|_| (0..cfg.dim).map(|_| randn(&mut rng) * 2.0).collect())
        .collect();
    let scales: Vec<Vec<f32>> = (0..k)
        .map(|_| {
            (0..cfg.dim)
                .map(|_| 0.15 + rng.gen_range(0.0..0.85f32))
                .collect()
        })
        .collect();

    // The rows come a chunk at a time: the RNG stream is drawn on this
    // thread, in the order a row-by-row loop draws it, while the workers
    // transform the chunk drawn before; this thread then joins them. Each
    // value is the same expression of the same uniforms, so the bits do
    // not depend on how many workers there are or which block each takes.
    let dim = cfg.dim;
    let width = dim.max(1);
    let chunk_rows = (DRAW_CHUNK_COORDS / width).max(1);
    let block_rows = (TRANSFORM_BLOCK_COORDS / width).max(1);
    let threads = parallel::fork_threads();
    let mut data = vec![0.0f32; cfg.n * dim];
    let (mut drawn, mut next) = (Uniforms::default(), Uniforms::default());
    let mut chunks = data.chunks_mut(chunk_rows * width).peekable();
    if let Some(first) = chunks.peek() {
        drawn.draw(first.len() / width, dim, &cum, &mut rng);
    }
    while let Some(rows) = chunks.next() {
        let upcoming = chunks.peek().map_or(0, |rows| rows.len() / width);
        let blocks = Mutex::new(rows.chunks_mut(block_rows * width).enumerate());
        let transform = || loop {
            let Some((b, rows)) = blocks.lock().expect("no transform panicked").next() else {
                return;
            };
            for (i, row) in (b * block_rows..).zip(rows.chunks_exact_mut(width)) {
                let (c, mag) = drawn.heads[i];
                // log-normal magnitude: heavy tail of vector norms, as seen
                // in real word-frequency-correlated embeddings
                let mag = (box_muller(mag) * 0.4).exp();
                let noise = &drawn.noise[i * dim..][..dim];
                for (((v, &u), &centre), &scale) in
                    row.iter_mut().zip(noise).zip(&centers[c]).zip(&scales[c])
                {
                    *v = (centre + box_muller(u) * scale) * mag;
                }
            }
        };
        // part 0, the calling thread, draws the next chunk first
        let draw = Some((&mut next, &mut rng));
        let parts = std::iter::once(draw).chain((1..threads).map(|_| None));
        parallel::fork_join(parts.collect(), |part| {
            if let Some((next, rng)) = part {
                next.draw(upcoming, dim, &cum, rng);
            }
            transform();
        });
        std::mem::swap(&mut drawn, &mut next);
    }
    Dataset::from_flat(dim, data).with_name("fasttext-like")
}

/// One chunk of [`fasttext_like`]'s RNG stream: per row its cluster and
/// its magnitude's uniforms, per coordinate its noise's.
#[derive(Default)]
struct Uniforms {
    heads: Vec<(usize, [f32; 2])>,
    noise: Vec<[f32; 2]>,
}

impl Uniforms {
    /// Draws `rows` rows of `dim` coordinates over what was there, in the
    /// order the row-by-row loop draws them.
    fn draw(&mut self, rows: usize, dim: usize, cum: &[f64], rng: &mut impl Rng) {
        self.heads.clear();
        self.noise.clear();
        for _ in 0..rows {
            self.heads
                .push((sample_cluster(cum, rng), uniform_pair(rng)));
            self.noise.extend((0..dim).map(|_| uniform_pair(rng)));
        }
    }
}

/// face-like: Gaussian clusters projected onto the unit sphere (stand-in
/// for FaceNet's normalized identity clusters).
pub fn face_like(cfg: &GeneratorConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = cfg.clusters.max(1);
    // identities are roughly balanced; mild skew
    let weights: Vec<f64> = (0..k).map(|i| 1.0 / (1.0 + 0.1 * i as f64)).collect();
    let sum: f64 = weights.iter().sum();
    let cum = cumulative(&weights.iter().map(|w| w / sum).collect::<Vec<_>>());

    let mut centers: Vec<Vec<f32>> = (0..k)
        .map(|_| (0..cfg.dim).map(|_| randn(&mut rng)).collect())
        .collect();
    for c in &mut centers {
        selnet_metric::vectors::normalize(c);
    }

    let mut data = Vec::with_capacity(cfg.n * cfg.dim);
    for _ in 0..cfg.n {
        let c = sample_cluster(&cum, &mut rng);
        // tight clusters on the sphere: small tangential noise
        let spread = 0.08 + 0.1 * (c as f32 / k.max(1) as f32);
        let mut v: Vec<f32> = (0..cfg.dim)
            .map(|j| centers[c][j] + randn(&mut rng) * spread)
            .collect();
        selnet_metric::vectors::normalize(&mut v);
        data.extend_from_slice(&v);
    }
    Dataset::from_flat(cfg.dim, data).with_name("face-like")
}

/// YouTube-like: very high-dimensional normalized vectors where each
/// cluster lives on a sparse support of active dimensions.
pub fn youtube_like(cfg: &GeneratorConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = cfg.clusters.max(1);
    let cum = cumulative(&zipf_weights(k));
    let active_per_cluster = (cfg.dim / 4).max(2).min(cfg.dim);

    // each cluster activates a random subset of dimensions
    let supports: Vec<Vec<usize>> = (0..k)
        .map(|_| {
            let mut idx: Vec<usize> = (0..cfg.dim).collect();
            for i in (1..idx.len()).rev() {
                let j = rng.gen_range(0..=i);
                idx.swap(i, j);
            }
            idx.truncate(active_per_cluster);
            idx
        })
        .collect();
    let centers: Vec<Vec<f32>> = (0..k)
        .map(|_| (0..active_per_cluster).map(|_| randn(&mut rng)).collect())
        .collect();

    let mut data = Vec::with_capacity(cfg.n * cfg.dim);
    let mut v = vec![0.0f32; cfg.dim];
    for _ in 0..cfg.n {
        let c = sample_cluster(&cum, &mut rng);
        v.iter_mut().for_each(|x| *x = randn(&mut rng) * 0.02);
        for (slot, &j) in supports[c].iter().enumerate() {
            v[j] = centers[c][slot] + randn(&mut rng) * 0.3;
        }
        selnet_metric::vectors::normalize(&mut v);
        data.extend_from_slice(&v);
    }
    Dataset::from_flat(cfg.dim, data).with_name("youtube-like")
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_metric::vectors::norm;

    /// [`fasttext_like`] as it was written before its transforms left the
    /// drawing thread: one row at a time, each normal drawn and transformed
    /// in place (the retry loop `randn` had then could never fire).
    fn fasttext_like_row_by_row(cfg: &GeneratorConfig) -> Dataset {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let k = cfg.clusters.max(1);
        let cum = cumulative(&zipf_weights(k));
        let centers: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..cfg.dim).map(|_| randn(&mut rng) * 2.0).collect())
            .collect();
        let scales: Vec<Vec<f32>> = (0..k)
            .map(|_| {
                (0..cfg.dim)
                    .map(|_| 0.15 + rng.gen_range(0.0..0.85f32))
                    .collect()
            })
            .collect();
        let mut data = Vec::with_capacity(cfg.n * cfg.dim);
        for _ in 0..cfg.n {
            let c = sample_cluster(&cum, &mut rng);
            let mag = (randn(&mut rng) * 0.4).exp();
            for j in 0..cfg.dim {
                data.push((centers[c][j] + randn(&mut rng) * scales[c][j]) * mag);
            }
        }
        Dataset::from_flat(cfg.dim, data).with_name("fasttext-like")
    }

    /// The pipelined generator has the row loop's bits on one, two and
    /// three workers: one row, fewer coordinates than one transform block,
    /// less than one draw chunk, a partial last chunk, and d = 1.
    #[test]
    fn fasttext_like_has_the_bits_of_the_row_loop() {
        let chunk = |dim: usize| DRAW_CHUNK_COORDS / dim;
        let shapes = [
            (1, 300),
            (TRANSFORM_BLOCK_COORDS / 64 - 5, 64),
            (chunk(300) / 2, 300),
            (2 * chunk(64) + 17, 64),
            (chunk(1) + 5, 1),
        ];
        let bits = |ds: &Dataset| ds.flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 3] {
            parallel::set_threads(threads);
            for (seed, &(n, dim)) in shapes.iter().enumerate() {
                let cfg = GeneratorConfig::new(n, dim, 5, seed as u64);
                let want = fasttext_like_row_by_row(&cfg);
                let got = fasttext_like(&cfg);
                assert_eq!((got.len(), got.dim()), (n, dim));
                assert!(
                    bits(&got) == bits(&want),
                    "{threads} threads, n {n} d {dim}"
                );
            }
        }
        parallel::set_threads(0);
    }

    #[test]
    fn generators_are_deterministic() {
        let cfg = GeneratorConfig::new(100, 8, 4, 9);
        assert_eq!(fasttext_like(&cfg), fasttext_like(&cfg));
        assert_eq!(face_like(&cfg), face_like(&cfg));
        assert_eq!(youtube_like(&cfg), youtube_like(&cfg));
    }

    #[test]
    fn fasttext_like_is_not_normalized() {
        let ds = fasttext_like(&GeneratorConfig::new(200, 16, 8, 1));
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.dim(), 16);
        let norms: Vec<f32> = ds.iter().map(norm).collect();
        let min = norms.iter().cloned().fold(f32::MAX, f32::min);
        let max = norms.iter().cloned().fold(0.0f32, f32::max);
        assert!(
            max / min > 1.5,
            "expected heavy norm spread, got {min}..{max}"
        );
    }

    #[test]
    fn face_like_is_normalized() {
        let ds = face_like(&GeneratorConfig::new(150, 12, 5, 2));
        for r in ds.iter() {
            assert!((norm(r) - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn youtube_like_is_normalized_and_high_dim() {
        let ds = youtube_like(&GeneratorConfig::new(80, 64, 6, 3));
        assert_eq!(ds.dim(), 64);
        for r in ds.iter() {
            assert!((norm(r) - 1.0).abs() < 1e-4);
        }
    }

    /// i.i.d. standard Gaussian vectors — a structureless control.
    fn gaussian(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * dim).map(|_| randn(&mut rng)).collect();
        Dataset::from_flat(dim, data).with_name("gaussian")
    }

    #[test]
    fn cluster_structure_beats_uniform_nn_distance() {
        // Clustered data should have a markedly smaller mean nearest
        // neighbor distance than a structureless control of the same scale.
        let clustered = face_like(&GeneratorConfig::new(300, 10, 5, 4));
        let mut control = gaussian(300, 10, 4);
        control.normalize_rows();
        let mean_nn = |ds: &Dataset| -> f64 {
            let mut acc = 0.0f64;
            for i in 0..ds.len() {
                let mut best = f32::MAX;
                for j in 0..ds.len() {
                    if i == j {
                        continue;
                    }
                    let d = selnet_metric::DistanceKind::Euclidean.eval(ds.row(i), ds.row(j));
                    best = best.min(d);
                }
                acc += best as f64;
            }
            acc / ds.len() as f64
        };
        assert!(mean_nn(&clustered) < mean_nn(&control));
    }

    #[test]
    fn zipf_weights_sum_to_one() {
        let w = zipf_weights(7);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
    }
}
