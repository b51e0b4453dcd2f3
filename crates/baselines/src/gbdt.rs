//! Histogram-based gradient-boosted regression trees — the LightGBM
//! baseline (plain `LightGBM` and monotone-constrained `LightGBM-m`).
//!
//! Matches the setup of the paper's Appendix B.2: the model is trained
//! with the Huber loss on `log(y + ε)` over the feature vector `[x; t]`.
//! The monotone variant enforces non-decreasing predictions in the
//! threshold feature with LightGBM's bound-propagation scheme: whenever a
//! node splits on `t`, the left subtree's leaf values are capped at the
//! children's midpoint and the right subtree's floored at it, which makes
//! every tree — and therefore the ensemble — monotone in `t`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_eval::{per_pair, SelectivityEstimator};
use selnet_metric::DistanceKind;
use selnet_workload::LabeledQuery;

/// GBDT hyper-parameters.
#[derive(Clone, Debug)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub num_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage.
    pub learning_rate: f32,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Histogram bins per feature.
    pub max_bins: usize,
    /// Huber δ (paper: 1.345).
    pub huber_delta: f32,
    /// Log padding ε.
    pub log_eps: f32,
    /// Enforce monotonicity in the threshold feature (`LightGBM-m`).
    pub monotone_t: bool,
    /// Row subsampling per tree (1.0 = none).
    pub subsample: f32,
    /// RNG seed (subsampling).
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            num_trees: 60,
            max_depth: 6,
            learning_rate: 0.15,
            min_samples_leaf: 10,
            max_bins: 64,
            huber_delta: 1.345,
            log_eps: 1.0,
            monotone_t: false,
            subsample: 1.0,
            seed: 0,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f32,
    },
    Split {
        feature: usize,
        /// split on raw value: go left iff `x[feature] <= threshold`
        threshold: f32,
        left: usize,
        right: usize,
    },
}

#[derive(Clone, Debug, Default)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, features: &[f32]) -> f32 {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cur = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Quantile bin boundaries for one feature: `boundaries[i]` is the upper
/// edge of bin `i` (inclusive); the last bin is unbounded.
fn quantile_boundaries(values: &mut [f32], max_bins: usize) -> Vec<f32> {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = values.len();
    let mut bounds = Vec::with_capacity(max_bins);
    for b in 1..max_bins {
        let idx = (n * b / max_bins).min(n - 1);
        let v = values[idx];
        if bounds.last().is_none_or(|&last| v > last) {
            bounds.push(v);
        }
    }
    bounds
}

fn bin_of(bounds: &[f32], v: f32) -> u16 {
    bounds.partition_point(|&b| b < v) as u16
}

/// A fitted GBDT selectivity estimator.
pub struct GbdtEstimator {
    trees: Vec<Tree>,
    base: f32,
    cfg: GbdtConfig,
    dim: usize,
    name: String,
}

struct TreeBuilder<'a> {
    binned: &'a [u16],
    num_features: usize,
    bin_upper: &'a [Vec<f32>],
    grad: &'a [f32],
    cfg: &'a GbdtConfig,
    /// index of the monotone feature (t) or usize::MAX
    monotone_feature: usize,
    nodes: Vec<Node>,
}

impl TreeBuilder<'_> {
    fn build(&mut self, rows: Vec<u32>, depth: usize, lo: f32, hi: f32) -> usize {
        let n = rows.len();
        let sum: f64 = rows.iter().map(|&r| self.grad[r as usize] as f64).sum();
        let mean = (sum / n.max(1) as f64) as f32;
        let leaf_value = mean.clamp(lo, hi);
        if depth >= self.cfg.max_depth || n < 2 * self.cfg.min_samples_leaf {
            self.nodes.push(Node::Leaf { value: leaf_value });
            return self.nodes.len() - 1;
        }

        // histogram scan for the best split
        let mut best: Option<(usize, u16, f64)> = None; // feature, bin, gain
        let parent_score = sum * sum / n as f64;
        for f in 0..self.num_features {
            let nbins = self.bin_upper[f].len() + 1;
            if nbins < 2 {
                continue;
            }
            let mut hist_sum = vec![0.0f64; nbins];
            let mut hist_cnt = vec![0u32; nbins];
            for &r in &rows {
                let b = self.binned[r as usize * self.num_features + f] as usize;
                hist_sum[b] += self.grad[r as usize] as f64;
                hist_cnt[b] += 1;
            }
            let mut left_sum = 0.0f64;
            let mut left_cnt = 0u32;
            for b in 0..nbins - 1 {
                left_sum += hist_sum[b];
                left_cnt += hist_cnt[b];
                let right_cnt = n as u32 - left_cnt;
                if (left_cnt as usize) < self.cfg.min_samples_leaf
                    || (right_cnt as usize) < self.cfg.min_samples_leaf
                {
                    continue;
                }
                let right_sum = sum - left_sum;
                let gain = left_sum * left_sum / left_cnt as f64
                    + right_sum * right_sum / right_cnt as f64
                    - parent_score;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    // monotone pre-check: reject splits on t whose child
                    // means already invert the required ordering
                    if f == self.monotone_feature {
                        let lmean = (left_sum / left_cnt as f64) as f32;
                        let rmean = (right_sum / right_cnt as f64) as f32;
                        if lmean > rmean {
                            continue;
                        }
                    }
                    best = Some((f, b as u16, gain));
                }
            }
        }

        let Some((feature, bin, _)) = best else {
            self.nodes.push(Node::Leaf { value: leaf_value });
            return self.nodes.len() - 1;
        };

        let threshold = self.bin_upper[feature][bin as usize];
        let (mut left_rows, mut right_rows) = (Vec::new(), Vec::new());
        let mut lsum = 0.0f64;
        for &r in &rows {
            if self.binned[r as usize * self.num_features + feature] <= bin {
                lsum += self.grad[r as usize] as f64;
                left_rows.push(r);
            } else {
                right_rows.push(r);
            }
        }
        drop(rows);

        // bound propagation for the monotone feature
        let (llo, lhi, rlo, rhi) = if feature == self.monotone_feature {
            let lmean = (lsum / left_rows.len().max(1) as f64) as f32;
            let rmean = ((self.sum_of(&right_rows)) / right_rows.len().max(1) as f64) as f32;
            let mid = (lmean.clamp(lo, hi) + rmean.clamp(lo, hi)) * 0.5;
            (lo, mid, mid, hi)
        } else {
            (lo, hi, lo, hi)
        };

        let placeholder = self.nodes.len();
        self.nodes.push(Node::Leaf { value: leaf_value }); // reserve slot
        let left = self.build(left_rows, depth + 1, llo, lhi);
        let right = self.build(right_rows, depth + 1, rlo, rhi);
        self.nodes[placeholder] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        placeholder
    }

    fn sum_of(&self, rows: &[u32]) -> f64 {
        rows.iter().map(|&r| self.grad[r as usize] as f64).sum()
    }
}

impl GbdtEstimator {
    /// Trains on a labeled split (features `[x; t]`, target `log(y+ε)`).
    pub fn fit(
        ds: &Dataset,
        train: &[LabeledQuery],
        _kind: DistanceKind,
        cfg: &GbdtConfig,
    ) -> Self {
        let dim = ds.dim();
        let num_features = dim + 1;
        // flatten features and targets
        let mut raw: Vec<f32> = Vec::new();
        let mut target: Vec<f32> = Vec::new();
        for q in train {
            for (i, &t) in q.thresholds.iter().enumerate() {
                raw.extend_from_slice(&q.x);
                raw.push(t);
                target.push((q.selectivities[i] as f32 + cfg.log_eps).ln());
            }
        }
        let n = target.len();
        assert!(n > 0, "empty training split");

        // bin boundaries per feature
        let mut bin_upper: Vec<Vec<f32>> = Vec::with_capacity(num_features);
        let mut scratch = vec![0.0f32; n];
        for f in 0..num_features {
            for (i, s) in scratch.iter_mut().enumerate() {
                *s = raw[i * num_features + f];
            }
            bin_upper.push(quantile_boundaries(&mut scratch, cfg.max_bins));
        }
        // pre-bin all rows
        let mut binned = vec![0u16; n * num_features];
        for i in 0..n {
            for f in 0..num_features {
                binned[i * num_features + f] = bin_of(&bin_upper[f], raw[i * num_features + f]);
            }
        }

        let base = target.iter().map(|&z| z as f64).sum::<f64>() as f32 / n as f32;
        let mut pred = vec![base; n];
        let mut grad = vec![0.0f32; n];
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let monotone_feature = if cfg.monotone_t { dim } else { usize::MAX };

        let mut trees = Vec::with_capacity(cfg.num_trees);
        for _ in 0..cfg.num_trees {
            // Huber pseudo-gradients
            for i in 0..n {
                let r = target[i] - pred[i];
                grad[i] = if r.abs() <= cfg.huber_delta {
                    r
                } else {
                    cfg.huber_delta * r.signum()
                };
            }
            let rows: Vec<u32> = if cfg.subsample < 1.0 {
                (0..n as u32)
                    .filter(|_| rng.gen::<f32>() < cfg.subsample)
                    .collect()
            } else {
                (0..n as u32).collect()
            };
            let mut builder = TreeBuilder {
                binned: &binned,
                num_features,
                bin_upper: &bin_upper,
                grad: &grad,
                cfg,
                monotone_feature,
                nodes: Vec::new(),
            };
            builder.build(rows, 0, f32::NEG_INFINITY, f32::INFINITY);
            let tree = Tree {
                nodes: builder.nodes,
            };
            for i in 0..n {
                let feats = &raw[i * num_features..(i + 1) * num_features];
                pred[i] += cfg.learning_rate * tree.predict(feats);
            }
            trees.push(tree);
        }

        let name = if cfg.monotone_t {
            "LightGBM-m"
        } else {
            "LightGBM"
        };
        GbdtEstimator {
            trees,
            base,
            cfg: cfg.clone(),
            dim,
            name: name.into(),
        }
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    fn predict_log(&self, features: &[f32]) -> f32 {
        let mut z = self.base;
        for tree in &self.trees {
            z += self.cfg.learning_rate * tree.predict(features);
        }
        z
    }
}

impl SelectivityEstimator for GbdtEstimator {
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        per_pair(queries, out, |x, t| {
            assert_eq!(x.len(), self.dim, "dimension mismatch");
            let features: Vec<f32> = x.iter().copied().chain([t]).collect();
            let z = self.predict_log(&features) as f64;
            (z.exp() - self.cfg.log_eps as f64).max(0.0)
        })
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn guarantees_consistency(&self) -> bool {
        self.cfg.monotone_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_eval::evaluate;
    use selnet_workload::{generate_workload, ThresholdScheme, WorkloadConfig};

    fn fixture() -> (Dataset, selnet_workload::Workload) {
        let ds = fasttext_like(&GeneratorConfig::new(1500, 6, 4, 5));
        let cfg = WorkloadConfig {
            num_queries: 80,
            thresholds_per_query: 10,
            kind: DistanceKind::Euclidean,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed: 11,
        };
        (ds.clone(), generate_workload(&ds, &cfg))
    }

    #[test]
    fn quantile_binning_is_sorted_and_deduped() {
        let mut values = vec![5.0f32, 1.0, 1.0, 1.0, 3.0, 2.0, 4.0, 1.0];
        let bounds = quantile_boundaries(&mut values, 4);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bin_of(&bounds, 0.0) == 0);
        assert!((bin_of(&bounds, 100.0) as usize) == bounds.len());
    }

    #[test]
    fn gbdt_learns_better_than_base_prediction() {
        let (ds, w) = fixture();
        let model = GbdtEstimator::fit(
            &ds,
            &w.train,
            DistanceKind::Euclidean,
            &GbdtConfig {
                num_trees: 40,
                ..Default::default()
            },
        );
        let metrics = evaluate(&model, &w.test);
        // base-only model (0 trees)
        let base_only = GbdtEstimator::fit(
            &ds,
            &w.train,
            DistanceKind::Euclidean,
            &GbdtConfig {
                num_trees: 0,
                ..Default::default()
            },
        );
        let base_metrics = evaluate(&base_only, &w.test);
        assert!(
            metrics.mse < base_metrics.mse,
            "boosting {} should beat base {}",
            metrics.mse,
            base_metrics.mse
        );
    }

    #[test]
    fn monotone_variant_is_consistent() {
        let (ds, w) = fixture();
        let model = GbdtEstimator::fit(
            &ds,
            &w.train,
            DistanceKind::Euclidean,
            &GbdtConfig {
                num_trees: 30,
                monotone_t: true,
                ..Default::default()
            },
        );
        let score = selnet_eval::empirical_monotonicity(&model, &w.test, 8, 60, w.tmax);
        assert_eq!(score, 100.0, "LightGBM-m must be fully monotone in t");
    }

    #[test]
    fn unconstrained_variant_may_violate_but_predicts() {
        let (ds, w) = fixture();
        let model = GbdtEstimator::fit(
            &ds,
            &w.train,
            DistanceKind::Euclidean,
            &GbdtConfig {
                num_trees: 30,
                ..Default::default()
            },
        );
        assert!(!model.guarantees_consistency());
        let m = evaluate(&model, &w.test);
        assert!(m.mse.is_finite() && m.count > 0);
    }

    #[test]
    fn predictions_are_nonnegative() {
        let (ds, w) = fixture();
        let model = GbdtEstimator::fit(
            &ds,
            &w.train,
            DistanceKind::Euclidean,
            &GbdtConfig::default(),
        );
        for q in &w.test {
            for &t in &q.thresholds {
                assert!(model.estimate(&q.x, t) >= 0.0);
            }
        }
    }
}
