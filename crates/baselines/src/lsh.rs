//! LSH-based importance sampling (the LSH baseline, after Wu et al.,
//! ICML'18: "Local density estimation in high dimensions").
//!
//! SimHash signatures (random hyperplanes) stratify the database by
//! Hamming distance to the query's signature: points colliding on many
//! bits are likely close in cosine distance. Sampling a fixed budget from
//! each stratum and reweighting by `N_h / s_h` gives an unbiased stratified
//! estimator whose variance is far below uniform sampling for selective
//! queries — the same variance-reduction mechanism as the paper's baseline.
//! Cosine-only, exactly like the original (SimHash has no Euclidean
//! analogue with these guarantees).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::generators::randn;
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;

/// LSH estimator configuration.
#[derive(Clone, Debug)]
pub struct LshConfig {
    /// Signature length in bits (max 64).
    pub num_bits: usize,
    /// Total sampling budget across strata (paper: 2000).
    pub sample_budget: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        LshConfig {
            num_bits: 16,
            sample_budget: 2000,
            seed: 0,
        }
    }
}

/// A fitted LSH importance-sampling estimator (cosine distance only).
pub struct LshEstimator {
    /// Random hyperplanes, `num_bits x dim` flattened.
    planes: Vec<f32>,
    dim: usize,
    num_bits: usize,
    /// Signature per point.
    signatures: Vec<u64>,
    /// Data copied for sampled distance evaluations.
    points: Vec<Vec<f32>>,
    budget: usize,
    seed: u64,
    name: String,
}

impl LshEstimator {
    /// Builds signatures for the whole dataset.
    pub fn fit(ds: &Dataset, cfg: &LshConfig) -> Self {
        assert!(
            cfg.num_bits >= 1 && cfg.num_bits <= 64,
            "num_bits in 1..=64"
        );
        assert!(!ds.is_empty(), "dataset must be non-empty");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dim = ds.dim();
        let planes = (0..cfg.num_bits * dim).map(|_| randn(&mut rng)).collect();
        let mut est = LshEstimator {
            planes,
            dim,
            num_bits: cfg.num_bits,
            signatures: Vec::with_capacity(ds.len()),
            points: ds.iter().map(|r| r.to_vec()).collect(),
            budget: cfg.sample_budget.max(1),
            seed: cfg.seed,
            name: "LSH".into(),
        };
        est.signatures = est.points.iter().map(|p| est.signature(p)).collect();
        est
    }

    /// SimHash signature of a vector.
    pub fn signature(&self, x: &[f32]) -> u64 {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let mut sig = 0u64;
        for b in 0..self.num_bits {
            let plane = &self.planes[b * self.dim..(b + 1) * self.dim];
            let dot = selnet_metric::vectors::dot(plane, x);
            if dot >= 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }
}

impl SelectivityEstimator for LshEstimator {
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        out.clear();
        for &(x, ts) in queries {
            let qsig = self.signature(x);
            // stratify by hamming distance
            let mut strata: Vec<Vec<usize>> = vec![Vec::new(); self.num_bits + 1];
            for (i, &sig) in self.signatures.iter().enumerate() {
                let h = (sig ^ qsig).count_ones() as usize;
                strata[h].push(i);
            }
            // deterministic per-query sampling
            let mut rng = StdRng::seed_from_u64(self.seed ^ qsig);
            // proportional-with-floor allocation of the budget to non-empty strata
            let nonempty: Vec<usize> = (0..strata.len())
                .filter(|&h| !strata[h].is_empty())
                .collect();
            let per_floor = (self.budget / nonempty.len().max(1)).max(1);
            let mut answers = vec![0.0f64; ts.len()];
            for &h in &nonempty {
                let stratum = &strata[h];
                let take = per_floor.min(stratum.len());
                let weight = stratum.len() as f64 / take as f64;
                // partial Fisher-Yates over a local index copy
                let mut idx: Vec<usize> = stratum.clone();
                for i in 0..take {
                    let j = rng.gen_range(i..idx.len());
                    idx.swap(i, j);
                }
                for &pi in idx.iter().take(take) {
                    let d = DistanceKind::Cosine.eval(x, &self.points[pi]);
                    for (o, &t) in answers.iter_mut().zip(ts) {
                        if d <= t {
                            *o += weight;
                        }
                    }
                }
            }
            out.extend(answers);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn guarantees_consistency(&self) -> bool {
        // fixed sample + indicator thresholding => monotone in t
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{face_like, GeneratorConfig};

    fn fixture() -> Dataset {
        face_like(&GeneratorConfig::new(1000, 10, 5, 3))
    }

    #[test]
    fn signature_is_deterministic_and_bounded() {
        let ds = fixture();
        let lsh = LshEstimator::fit(
            &ds,
            &LshConfig {
                num_bits: 12,
                ..Default::default()
            },
        );
        let s1 = lsh.signature(ds.row(0));
        let s2 = lsh.signature(ds.row(0));
        assert_eq!(s1, s2);
        assert!(s1 < (1 << 12));
    }

    #[test]
    fn close_vectors_share_signature_bits() {
        let ds = fixture();
        let lsh = LshEstimator::fit(
            &ds,
            &LshConfig {
                num_bits: 32,
                ..Default::default()
            },
        );
        // nearly identical vectors
        let a = ds.row(0).to_vec();
        let mut b = a.clone();
        b[0] += 1e-4;
        let ha = (lsh.signature(&a) ^ lsh.signature(&b)).count_ones();
        // a random other vector
        let hb = (lsh.signature(&a) ^ lsh.signature(ds.row(500))).count_ones();
        assert!(ha <= hb, "close pair hamming {ha} vs far pair {hb}");
    }

    #[test]
    fn estimate_is_monotone_in_t() {
        let ds = fixture();
        let lsh = LshEstimator::fit(&ds, &LshConfig::default());
        let ts: Vec<f32> = (0..30).map(|i| i as f32 * 0.05).collect();
        let est = lsh.estimate_many(ds.row(7), &ts);
        for w in est.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn full_budget_equals_exact_count() {
        // budget >= n: every stratum fully sampled -> exact counting
        let ds = face_like(&GeneratorConfig::new(300, 8, 4, 5));
        let lsh = LshEstimator::fit(
            &ds,
            &LshConfig {
                num_bits: 8,
                sample_budget: 300 * 9,
                seed: 1,
            },
        );
        let x = ds.row(3);
        for t in [0.05f32, 0.2, 0.5] {
            let exact = ds
                .iter()
                .filter(|r| DistanceKind::Cosine.eval(x, r) <= t)
                .count() as f64;
            let est = lsh.estimate(x, t);
            assert!((est - exact).abs() < 1e-6, "t={t}: {est} vs {exact}");
        }
    }

    #[test]
    fn partial_budget_is_unbiased_ballpark() {
        let ds = fixture();
        let lsh = LshEstimator::fit(
            &ds,
            &LshConfig {
                num_bits: 12,
                sample_budget: 400,
                seed: 2,
            },
        );
        let x = ds.row(11);
        let t = 0.4f32;
        let exact = ds
            .iter()
            .filter(|r| DistanceKind::Cosine.eval(x, r) <= t)
            .count() as f64;
        let est = lsh.estimate(x, t);
        // loose sanity band: within a factor 3 for a mid-range selectivity
        assert!(exact > 10.0, "fixture should have non-trivial selectivity");
        assert!(
            est > exact / 3.0 && est < exact * 3.0,
            "est {est} vs exact {exact}"
        );
    }
}
