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
//! order a row-by-row loop would, and then runs the chunk's transforms
//! (each normal's `ln`, `sqrt` and `cos`, each row's `exp`) on the
//! `selnet_tensor::parallel` workers. Drawing is about a fifth of the
//! work and the transforms, calls into the maths library, are latency
//! bound, so they gain from a second hardware thread even where it shares
//! a core; the bits are the same on any number of workers.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_tensor::parallel;

/// The two uniforms of one Box–Muller normal, drawn in order: `u1` in
/// `[f32::MIN_POSITIVE, 1)`, `u2` in `[0, 1)`.
fn uniform_pair(rng: &mut impl Rng) -> [f32; 2] {
    [
        rng.gen_range(f32::MIN_POSITIVE..1.0),
        rng.gen_range(0.0..1.0),
    ]
}

/// The Box–Muller transform of a [`uniform_pair`]. Always finite: `u1 >=
/// f32::MIN_POSITIVE` keeps `-2 ln u1` finite and non-negative.
fn box_muller([u1, u2]: [f32; 2]) -> f32 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Standard-normal sample via Box–Muller (avoids a `rand_distr` dependency).
fn randn(rng: &mut impl Rng) -> f32 {
    box_muller(uniform_pair(rng))
}

/// Coordinates [`fasttext_like`] draws the uniforms of before it
/// transforms them: the buffer holds two `f32` per coordinate (2 MiB).
/// At 50 000 × 300, chunks of 2^16 and 2^20 coordinates timed the same.
const DRAW_CHUNK_COORDS: usize = 1 << 18;

/// Coordinates each engaged worker transforms at least: ≈ 0.5 ms at the
/// ≈ 30 ns a coordinate takes on one thread, far above one fork-join.
const TRANSFORM_MIN_COORDS: usize = 1 << 14;

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

/// i.i.d. uniform vectors in `[lo, hi]^dim` — a structureless control.
pub fn uniform(n: usize, dim: usize, lo: f32, hi: f32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n * dim {
        data.push(rng.gen_range(lo..hi));
    }
    Dataset::from_flat(dim, data).with_name("uniform")
}

/// i.i.d. standard Gaussian vectors — a structureless control.
pub fn gaussian(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n * dim {
        data.push(randn(&mut rng));
    }
    Dataset::from_flat(dim, data).with_name("gaussian")
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
    // thread, in the order a row-by-row loop draws it, and the chunk's
    // transforms then run on the parallel workers. Each value is the same
    // expression of the same uniforms, so the bits do not depend on how
    // many workers there are.
    let dim = cfg.dim;
    let chunk_rows = (DRAW_CHUNK_COORDS / dim.max(1)).max(1);
    let min_rows = TRANSFORM_MIN_COORDS.div_ceil(dim.max(1));
    let threads = parallel::fork_threads(0);
    let mut data = vec![0.0f32; cfg.n * dim];
    // per row its cluster and its magnitude's uniforms; per coordinate its
    // noise's
    let mut heads: Vec<(usize, [f32; 2])> = Vec::with_capacity(chunk_rows);
    let mut noise: Vec<[f32; 2]> = Vec::with_capacity(chunk_rows * dim);
    for rows in data.chunks_mut(chunk_rows * dim.max(1)) {
        heads.clear();
        noise.clear();
        for _ in 0..rows.len() / dim {
            heads.push((sample_cluster(&cum, &mut rng), uniform_pair(&mut rng)));
            noise.extend((0..dim).map(|_| uniform_pair(&mut rng)));
        }
        parallel::par_row_chunks_mut(rows, dim, threads, min_rows, |first, rows| {
            for (i, row) in (first..).zip(rows.chunks_exact_mut(dim)) {
                let (c, mag) = heads[i];
                // log-normal magnitude: heavy tail of vector norms, as seen
                // in real word-frequency-correlated embeddings
                let mag = (box_muller(mag) * 0.4).exp();
                let noise = &noise[i * dim..][..dim];
                for (((v, &u), &centre), &scale) in
                    row.iter_mut().zip(noise).zip(&centers[c]).zip(&scales[c])
                {
                    *v = (centre + box_muller(u) * scale) * mag;
                }
            }
        });
    }
    Dataset::from_flat(dim, data).with_name("fasttext-like")
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

    /// The chunked generator has the row loop's bits on one worker and on
    /// three: less than one draw chunk, a count that is no multiple of
    /// it, and d = 1. One test, because the worker count is process-wide.
    #[test]
    fn fasttext_like_has_the_bits_of_the_row_loop() {
        let chunk = |dim: usize| DRAW_CHUNK_COORDS / dim;
        let shapes = [
            (chunk(300) / 2, 300),
            (2 * chunk(64) + 17, 64),
            (chunk(1) + 5, 1),
        ];
        let bits = |ds: &Dataset| ds.flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 3] {
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
