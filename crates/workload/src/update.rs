//! Update streams and incremental label maintenance (§5.4, §7.6).
//!
//! The paper's update experiment applies a stream of 100 operations, each
//! inserting or deleting 5 records, then measures estimator error as the
//! model incrementally retrains. The expensive part of the pipeline — "we
//! update all the labels (ground truth) in the training and the validation
//! data" — is done *incrementally* here: an inserted/deleted record `o`
//! changes the label of `(x, t)` by ±1 exactly when `d(x, o) <= t`.

use crate::drift::{DriftStep, Placement};
use crate::query::LabeledQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::generators::randn;
use selnet_data::Dataset;
use selnet_metric::DistanceKind;

/// One applied update operation.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Records that were inserted.
    Insert(Vec<Vec<f32>>),
    /// Records that were deleted.
    Delete(Vec<Vec<f32>>),
}

impl UpdateOp {
    /// Short label for reporting.
    pub fn label(&self) -> &'static str {
        match self {
            UpdateOp::Insert(_) => "insert",
            UpdateOp::Delete(_) => "delete",
        }
    }
}

/// Generates and applies a stream of insert/delete operations while keeping
/// query labels exact.
pub struct UpdateSimulator {
    rng: StdRng,
    /// Records per operation (paper: 5).
    pub batch: usize,
    /// Probability an operation is an insertion.
    pub insert_prob: f64,
    /// Noise scale for synthesized insertions (relative to the sampled
    /// template point).
    pub noise: f32,
}

impl UpdateSimulator {
    /// Creates a simulator matching the paper's §7.6 setting: 5 records per
    /// op, balanced inserts/deletes.
    pub fn new(seed: u64) -> Self {
        UpdateSimulator {
            rng: StdRng::seed_from_u64(seed),
            batch: 5,
            insert_prob: 0.5,
            noise: 0.05,
        }
    }

    /// Applies one operation to `ds`, incrementally fixing the labels of
    /// every query in `splits`. Returns the applied operation.
    pub fn step(
        &mut self,
        ds: &mut Dataset,
        splits: &mut [&mut [LabeledQuery]],
        kind: DistanceKind,
    ) -> UpdateOp {
        // the un-drifted baseline: same stream as a zero-shift drift step
        let spec = DriftStep {
            insert_prob: self.insert_prob,
            noise: self.noise,
            placement: Placement::Shifted(vec![0.0; ds.dim()]),
        };
        self.step_drifted(ds, splits, kind, &spec)
    }

    /// Applies one operation under a drift schedule's per-op [`DriftStep`]:
    /// inserted records are placed where the schedule says (template +
    /// shift, or on an adversarial distance shell), deletions stay uniform
    /// — the insertion flow is what drags the distribution. Labels in
    /// `splits` are kept exact incrementally, same as [`UpdateSimulator::step`].
    pub fn step_drifted(
        &mut self,
        ds: &mut Dataset,
        splits: &mut [&mut [LabeledQuery]],
        kind: DistanceKind,
        spec: &DriftStep,
    ) -> UpdateOp {
        let insert = self.rng.gen_bool(spec.insert_prob) || ds.len() <= self.batch;
        if insert {
            let mut records = Vec::with_capacity(self.batch);
            for _ in 0..self.batch {
                records.push(self.synthesize(ds, spec));
            }
            for r in &records {
                ds.push(r);
                adjust_labels(splits, r, kind, 1.0);
            }
            UpdateOp::Insert(records)
        } else {
            let mut records = Vec::with_capacity(self.batch);
            for _ in 0..self.batch {
                let idx = self.rng.gen_range(0..ds.len());
                let removed = ds.swap_remove(idx);
                adjust_labels(splits, &removed, kind, -1.0);
                records.push(removed);
            }
            UpdateOp::Delete(records)
        }
    }

    /// Synthesizes one inserted record according to the step's placement.
    fn synthesize(&mut self, ds: &Dataset, spec: &DriftStep) -> Vec<f32> {
        match &spec.placement {
            Placement::Shifted(shift) => {
                let template = self.rng.gen_range(0..ds.len());
                let mut v = ds.row(template).to_vec();
                for (j, x) in v.iter_mut().enumerate() {
                    *x += randn(&mut self.rng) * spec.noise + shift[j];
                }
                v
            }
            Placement::Shell { center, radius } => {
                // a uniformly random direction scaled to the shell radius:
                // the §2401.06047-style inverse construction — mass placed
                // at exact distance `radius` from the probe query makes the
                // true selectivity surface jump sharply at t = radius
                let mut dir: Vec<f32> = (0..center.len()).map(|_| randn(&mut self.rng)).collect();
                let norm = dir.iter().map(|d| d * d).sum::<f32>().sqrt().max(1e-12);
                for d in &mut dir {
                    *d /= norm;
                }
                center
                    .iter()
                    .zip(&dir)
                    .map(|(&c, &d)| c + d * radius + randn(&mut self.rng) * spec.noise * 0.01)
                    .collect()
            }
        }
    }
}

/// Adjusts every affected label by `delta` for one changed record.
fn adjust_labels(
    splits: &mut [&mut [LabeledQuery]],
    record: &[f32],
    kind: DistanceKind,
    delta: f64,
) {
    for split in splits.iter_mut() {
        for q in split.iter_mut() {
            let d = kind.eval(&q.x, record);
            // thresholds are sorted: all t >= d are affected
            let start = q.thresholds.partition_point(|&t| t < d);
            for y in &mut q.selectivities[start..] {
                *y += delta;
                debug_assert!(*y >= 0.0, "negative selectivity after update");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_workload, WorkloadConfig};
    use selnet_data::generators::{fasttext_like, GeneratorConfig};

    fn exact_label(ds: &Dataset, x: &[f32], t: f32, kind: DistanceKind) -> f64 {
        ds.iter().filter(|row| kind.eval(x, row) <= t).count() as f64
    }

    #[test]
    fn incremental_labels_stay_exact_through_stream() {
        let mut ds = fasttext_like(&GeneratorConfig::new(300, 5, 3, 1));
        let cfg = WorkloadConfig {
            num_queries: 8,
            thresholds_per_query: 6,
            kind: DistanceKind::Euclidean,
            scheme: crate::generate::ThresholdScheme::GeometricSelectivity,
            seed: 2,
        };
        let w = generate_workload(&ds, &cfg);
        let mut train = w.train.clone();
        let mut valid = w.valid.clone();
        let mut sim = UpdateSimulator::new(9);
        for _ in 0..20 {
            {
                let mut splits: Vec<&mut [LabeledQuery]> =
                    vec![train.as_mut_slice(), valid.as_mut_slice()];
                sim.step(&mut ds, &mut splits, DistanceKind::Euclidean);
            }
            // verify against brute force on a sample
            let q = &train[0];
            for (j, &t) in q.thresholds.iter().enumerate() {
                assert_eq!(
                    q.selectivities[j],
                    exact_label(&ds, &q.x, t, DistanceKind::Euclidean),
                    "label drift at threshold {t}"
                );
            }
        }
    }

    #[test]
    fn insert_only_stream_grows_dataset() {
        let mut ds = fasttext_like(&GeneratorConfig::new(50, 4, 2, 3));
        let n0 = ds.len();
        let mut sim = UpdateSimulator::new(4);
        sim.insert_prob = 1.0;
        let mut empty: Vec<&mut [LabeledQuery]> = vec![];
        let op = sim.step(&mut ds, &mut empty, DistanceKind::Euclidean);
        assert!(matches!(op, UpdateOp::Insert(_)));
        assert_eq!(ds.len(), n0 + 5);
    }

    #[test]
    fn delete_only_stream_shrinks_dataset() {
        let mut ds = fasttext_like(&GeneratorConfig::new(50, 4, 2, 3));
        let n0 = ds.len();
        let mut sim = UpdateSimulator::new(4);
        sim.insert_prob = 0.0;
        let mut empty: Vec<&mut [LabeledQuery]> = vec![];
        let op = sim.step(&mut ds, &mut empty, DistanceKind::Euclidean);
        assert!(matches!(op, UpdateOp::Delete(_)));
        assert_eq!(ds.len(), n0 - 5);
    }
}
