//! Per-partition ground-truth labels for the joint training loss of the
//! partitioned model (§5.3): `J_joint` needs the local selectivity
//! `f_i(x, t, D_i)` for every partition `D_i`.

use crate::query::{LabeledQuery, PartitionedLabels};
use crate::scan::{scan_distances, ThresholdCounts};
use selnet_data::Dataset;
use selnet_index::Partitioning;
use selnet_metric::DistanceKind;
use selnet_tensor::parallel::fork_threads;

/// Coordinate differences (`records × dim × queries`) per worker before a
/// further labelling thread is engaged: about 30 ms of kernel time, far
/// above what a fork costs. This is a policy, not the fork gate: a §5.4
/// retrain on a small dataset relabels in less, and does so on the thread
/// that called, beside the engine workers serving the tenant.
const WORKER_MIN_WORK: usize = 1 << 28;

/// Computes `labels[query][part][threshold]` — the exact selectivity of
/// each query/threshold pair restricted to each partition. The per-part
/// counts always sum to the global label (Observation 1 of the paper),
/// so with one part they *are* the queries' own labels — exact for `ds`
/// by the workload's contract — and no record is scanned.
/// `threads` caps the labelling workers (0 = all cores).
pub fn label_partitions(
    ds: &Dataset,
    partitioning: &Partitioning,
    queries: &[LabeledQuery],
    kind: DistanceKind,
    threads: usize,
) -> PartitionedLabels {
    let assignments = partitioning.assignments();
    assert_eq!(assignments.len(), ds.len(), "one assignment per record");
    if partitioning.k() == 1 {
        let own = |q: &LabeledQuery| vec![q.selectivities[..q.thresholds.len()].to_vec()];
        return PartitionedLabels {
            labels: queries.iter().map(own).collect(),
            workers: 1,
        };
    }
    let xs: Vec<&[f32]> = queries.iter().map(|q| q.x.as_slice()).collect();
    let thresholds: Vec<&[f32]> = queries.iter().map(|q| q.thresholds.as_slice()).collect();
    let counter = || ThresholdCounts::per_part(assignments, partitioning.k(), &thresholds);
    let work = ds.len() * ds.dim() * queries.len();
    let workers = fork_threads(threads).min(work / WORKER_MIN_WORK).max(1);
    PartitionedLabels {
        labels: scan_distances(ds, &xs, kind, workers, counter),
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_workload, WorkloadConfig};
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_index::PartitionMethod;

    #[test]
    fn partition_labels_sum_to_global() {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, 2));
        let cfg = WorkloadConfig {
            num_queries: 10,
            thresholds_per_query: 8,
            kind: DistanceKind::Euclidean,
            scheme: crate::generate::ThresholdScheme::GeometricSelectivity,
            seed: 1,
            threads: 2,
        };
        let w = generate_workload(&ds, &cfg);
        let p = Partitioning::build(
            &ds,
            DistanceKind::Euclidean,
            PartitionMethod::CoverTree { ratio: 0.1 },
            3,
            0,
        );
        let pl = label_partitions(&ds, &p, &w.train, DistanceKind::Euclidean, 2);
        assert_eq!(pl.labels.len(), w.train.len());
        for (q, parts) in w.train.iter().zip(&pl.labels) {
            assert_eq!(parts.len(), p.k());
            for (j, &global) in q.selectivities.iter().enumerate() {
                let sum: f64 = parts.iter().map(|row| row[j]).sum();
                assert_eq!(sum, global, "Observation 1 violated");
            }
        }
    }

    /// One part: the labels returned are the queries' own, and a real scan
    /// agrees — the per-threshold sum over the parts of a scanned two-part
    /// Random partitioning of the same data is that label (Observation 1).
    #[test]
    fn one_part_labels_are_the_queries_own_and_a_scan_agrees() {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, 2));
        for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
            let mut cfg = WorkloadConfig::new(12, kind, 1);
            cfg.thresholds_per_query = 8;
            let w = generate_workload(&ds, &cfg);
            let one = Partitioning::build(&ds, kind, PartitionMethod::Random, 1, 0);
            let two = Partitioning::build(&ds, kind, PartitionMethod::Random, 2, 0);
            assert_eq!((one.k(), two.k()), (1, 2));
            let own = label_partitions(&ds, &one, &w.train, kind, 2).labels;
            let scanned = label_partitions(&ds, &two, &w.train, kind, 2).labels;
            for ((q, own), scanned) in w.train.iter().zip(&own).zip(&scanned) {
                assert_eq!(own.as_slice(), std::slice::from_ref(&q.selectivities));
                let summed: Vec<f64> = (0..q.thresholds.len())
                    .map(|j| scanned[0][j] + scanned[1][j])
                    .collect();
                assert_eq!(own[0], summed, "{kind:?}");
            }
        }
    }

    /// Every per-partition label equals a pair-by-pair count over the
    /// partition's records, under both distances.
    #[test]
    fn partition_labels_equal_the_per_pair_count() {
        // one stride of coordinates, and three with a record count that is
        // no multiple of the rows a kernel call takes
        let narrow = fasttext_like(&GeneratorConfig::new(300, 6, 3, 8));
        let wide = fasttext_like(&GeneratorConfig::new(301, 75, 3, 8));
        for (ds, kind) in [
            (&narrow, DistanceKind::Euclidean),
            (&narrow, DistanceKind::Cosine),
            (&wide, DistanceKind::Euclidean),
            (&wide, DistanceKind::Cosine),
        ] {
            let mut cfg = WorkloadConfig::new(30, kind, 4);
            cfg.thresholds_per_query = 7;
            let w = generate_workload(ds, &cfg);
            let p = Partitioning::build(ds, kind, PartitionMethod::CoverTree { ratio: 0.05 }, 4, 0);
            let pl = label_partitions(ds, &p, &w.train, kind, 2);
            for (q, parts) in w.train.iter().zip(&pl.labels) {
                for (part, row) in parts.iter().enumerate() {
                    let want: Vec<f64> = q
                        .thresholds
                        .iter()
                        .map(|&t| {
                            let inside =
                                |&(i, _): &(usize, &usize)| kind.eval(&q.x, ds.row(i)) <= t;
                            let members = p.assignments().iter().enumerate();
                            members.filter(|(_, &a)| a == part).filter(inside).count() as f64
                        })
                        .collect();
                    assert_eq!(row, &want, "{kind:?} part {part}");
                }
            }
        }
    }
}
