//! Kernel density estimation on metric data (the KDE baseline, after
//! Mattig et al., EDBT'18).
//!
//! The metric-space trick: instead of a d-dimensional kernel over the data
//! space (hopeless under the curse of dimensionality), model the
//! *distance distribution* of the query. With sample `S ⊂ D`,
//!
//! `est(x, t) = (|D|/|S|) · Σ_{s∈S} Φ((t − d(x, s)) / h_s)`
//!
//! where `Φ` is the standard normal CDF — a smoothed version of the exact
//! count. Because `Φ` is increasing in `t`, the estimator is consistent
//! (KDE carries a `*` in the paper's tables). Bandwidths use Silverman's
//! rule, optionally adapted per sample point by local density.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max abs error ~1.5e-7).
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// KDE configuration.
#[derive(Clone, Debug)]
pub struct KdeConfig {
    /// Sample size (paper: 2000).
    pub sample_size: usize,
    /// Adapt bandwidths by local density (k-NN distance within the sample).
    pub adaptive: bool,
    /// Neighbors used for the adaptive local-density term.
    pub adaptive_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KdeConfig {
    fn default() -> Self {
        KdeConfig {
            sample_size: 2000,
            adaptive: true,
            adaptive_k: 1,
            seed: 0,
        }
    }
}

/// A fitted KDE estimator.
pub struct KdeEstimator {
    sample: Vec<Vec<f32>>,
    /// Per-sample bandwidth.
    bandwidth: Vec<f64>,
    scale: f64,
    kind: DistanceKind,
    name: String,
}

impl KdeEstimator {
    /// Fits the estimator: draws the sample and selects bandwidths.
    pub fn fit(ds: &Dataset, kind: DistanceKind, cfg: &KdeConfig) -> Self {
        assert!(!ds.is_empty(), "dataset must be non-empty");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let m = cfg.sample_size.min(ds.len()).max(1);
        let mut indices: Vec<usize> = (0..ds.len()).collect();
        for i in 0..m {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices.truncate(m);
        let sample: Vec<Vec<f32>> = indices.iter().map(|&i| ds.row(i).to_vec()).collect();

        // Bandwidth scale: the kernel must resolve the *query-relevant*
        // distance range (selectivities up to |D|/100), which is the local
        // k-NN scale of the data, not the global pairwise-distance spread —
        // this is the metric-space locality idea of Mattig et al. We use
        // the k-NN distances within the sample as the base scale, shrunk
        // by the usual n^(-1/5) rate.
        let k = cfg.adaptive_k.min(m.saturating_sub(1)).max(1);
        let mut knn = vec![1e-9f64; m];
        if m > 1 {
            for i in 0..m {
                let mut d: Vec<f32> = (0..m)
                    .filter(|&j| j != i)
                    .map(|j| kind.eval(&sample[i], &sample[j]))
                    .collect();
                d.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
                knn[i] = d[k - 1].max(1e-9) as f64;
            }
        }
        let log_gm: f64 = knn.iter().map(|d| d.ln()).sum::<f64>() / m as f64;
        let gm = log_gm.exp();
        let h0 = 1.06 * gm * (m as f64).powf(-0.2);

        let bandwidth = if cfg.adaptive {
            // per-point adaptive kernels: dense areas get narrower kernels
            knn.iter().map(|&d| h0 * (d / gm).sqrt()).collect()
        } else {
            vec![h0; m]
        };

        KdeEstimator {
            sample,
            bandwidth,
            scale: ds.len() as f64 / m as f64,
            kind,
            name: "KDE".into(),
        }
    }

    /// Number of sample points retained.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }
}

impl SelectivityEstimator for KdeEstimator {
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        out.clear();
        let mut dists = Vec::with_capacity(self.sample.len());
        for &(x, ts) in queries {
            // distances once per object; reused for all its thresholds
            dists.clear();
            dists.extend(self.sample.iter().map(|s| self.kind.eval(x, s) as f64));
            out.extend(ts.iter().map(|&t| {
                let mut acc = 0.0f64;
                for (&d, &h) in dists.iter().zip(&self.bandwidth) {
                    acc += std_normal_cdf((t as f64 - d) / h);
                }
                (acc * self.scale).max(0.0)
            }));
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn guarantees_consistency(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0) - 0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-5);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = std_normal_cdf(i as f64 / 10.0);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn kde_estimates_are_consistent_in_t() {
        let ds = fasttext_like(&GeneratorConfig::new(800, 6, 4, 2));
        let kde = KdeEstimator::fit(
            &ds,
            DistanceKind::Euclidean,
            &KdeConfig {
                sample_size: 200,
                ..Default::default()
            },
        );
        let x = ds.row(5);
        let mut prev = -1.0;
        for i in 0..50 {
            let t = i as f32 * 0.2;
            let e = kde.estimate(x, t);
            assert!(e >= prev - 1e-9, "KDE must be monotone in t");
            prev = e;
        }
    }

    #[test]
    fn kde_total_mass_approaches_n() {
        let ds = fasttext_like(&GeneratorConfig::new(500, 5, 3, 3));
        let kde = KdeEstimator::fit(
            &ds,
            DistanceKind::Euclidean,
            &KdeConfig {
                sample_size: 150,
                ..Default::default()
            },
        );
        // at a huge threshold every kernel saturates -> estimate ≈ |D|
        let est = kde.estimate(ds.row(0), 1e6);
        assert!((est - 500.0).abs() < 1.0, "got {est}");
    }

    #[test]
    fn kde_tracks_exact_counts_roughly() {
        let ds = fasttext_like(&GeneratorConfig::new(1000, 5, 3, 4));
        let kde = KdeEstimator::fit(
            &ds,
            DistanceKind::Euclidean,
            &KdeConfig {
                sample_size: 400,
                ..Default::default()
            },
        );
        let x = ds.row(10);
        let mut dists: Vec<f32> = ds
            .iter()
            .map(|r| DistanceKind::Euclidean.eval(x, r))
            .collect();
        dists.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        // threshold with exact selectivity 100
        let t = dists[99];
        let est = kde.estimate(x, t);
        assert!(
            est > 20.0 && est < 500.0,
            "estimate {est} too far from exact 100"
        );
    }

    #[test]
    fn estimate_many_matches_estimate() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 4, 2, 5));
        let kde = KdeEstimator::fit(
            &ds,
            DistanceKind::Cosine,
            &KdeConfig {
                sample_size: 100,
                ..Default::default()
            },
        );
        let x = ds.row(0);
        let ts = [0.1f32, 0.5, 1.0];
        let many = kde.estimate_many(x, &ts);
        for (i, &t) in ts.iter().enumerate() {
            assert!((many[i] - kde.estimate(x, t)).abs() < 1e-9);
        }
    }
}
