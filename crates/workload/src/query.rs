//! Query/threshold workload types.

use selnet_metric::DistanceKind;

/// One labeled query: a query object `x`, its `w` thresholds, and the exact
/// ground-truth selectivity at each threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct LabeledQuery {
    /// The query vector.
    pub x: Vec<f32>,
    /// Thresholds, sorted ascending.
    pub thresholds: Vec<f32>,
    /// Exact selectivity `|{o : d(x,o) <= t}|` per threshold.
    pub selectivities: Vec<f64>,
}

impl LabeledQuery {
    /// Number of `(x, t)` training pairs this query contributes.
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// Whether the query has no thresholds.
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }

    /// The query as one `(x, ts)` entry of an estimator's wave.
    pub fn query(&self) -> (&[f32], &[f32]) {
        (&self.x, &self.thresholds)
    }
}

/// A complete workload: distance function, threshold cap, and the
/// 80:10:10 query split of Appendix B.1.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Distance function the labels were computed under.
    pub kind: DistanceKind,
    /// Maximum threshold the estimator must support (`t_max`).
    pub tmax: f32,
    /// Training queries.
    pub train: Vec<LabeledQuery>,
    /// Validation queries.
    pub valid: Vec<LabeledQuery>,
    /// Test queries.
    pub test: Vec<LabeledQuery>,
}

impl Workload {
    /// Flattens a split into `(x, t, y)` triples (borrowing the query).
    pub fn flatten(split: &[LabeledQuery]) -> Vec<(&[f32], f32, f64)> {
        let mut out = Vec::new();
        for q in split {
            for (i, &t) in q.thresholds.iter().enumerate() {
                out.push((q.x.as_slice(), t, q.selectivities[i]));
            }
        }
        out
    }
}

/// Per-partition ground-truth labels aligned with a `Workload` split:
/// `labels[query][part][threshold]`. Used for the joint training loss of
/// the partitioned model (§5.3).
#[derive(Clone, Debug, Default)]
pub struct PartitionedLabels {
    /// `labels[query][part][threshold]`.
    pub labels: Vec<Vec<Vec<f64>>>,
    /// Labelling workers the pass engaged (the calling thread included).
    pub workers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_produces_all_pairs() {
        let q = LabeledQuery {
            x: vec![0.0, 1.0],
            thresholds: vec![0.1, 0.2],
            selectivities: vec![1.0, 5.0],
        };
        let queries = [q.clone(), q];
        let flat = Workload::flatten(&queries);
        assert_eq!(flat.len(), 4);
        assert_eq!(flat[1].1, 0.2);
        assert_eq!(flat[1].2, 5.0);
    }
}
