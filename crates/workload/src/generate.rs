//! Workload generation following Appendix B.1 of the paper.
//!
//! Queries are sampled from the database itself. For each query we build a
//! geometric ladder of `w` selectivity values in `[1, |D|/100]` and convert
//! each to the threshold achieving it (the selectivity-quantile of the
//! query's distance distribution) — "such generation better simulates the
//! realistic workload" (§7.9, following Mattig et al.). The alternative
//! Beta(3, 2.5)-distributed thresholds of §7.9 are also provided.

use crate::query::{LabeledQuery, Workload};
use crate::rand_ext::sample_beta;
use crate::scan::{scan_distances, sort_distances, Nearest, NearestColumns, ThresholdCounts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_metric::DistanceKind;
use selnet_tensor::parallel::fork_threads;

/// How thresholds are drawn for each query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdScheme {
    /// Geometric ladder of selectivities in `[1, |D|/100]` (default,
    /// Appendix B.1).
    GeometricSelectivity,
    /// Thresholds sampled from `Beta(alpha, beta)` scaled to `[0, tmax]`
    /// (§7.9 uses `Beta(3, 2.5)`).
    Beta {
        /// Beta shape α.
        alpha: f64,
        /// Beta shape β.
        beta: f64,
    },
}

/// Workload generation parameters. The labelling scan's worker count is
/// not one of them: it is [`fork_threads`] (1 inside a parallel region,
/// else the calling thread's `set_threads` pin, else `SELNET_THREADS`,
/// else every core), and the labels are the same at any count.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of distinct query objects.
    pub num_queries: usize,
    /// Thresholds per query (`w`; the paper uses 40).
    pub thresholds_per_query: usize,
    /// Distance function.
    pub kind: DistanceKind,
    /// Threshold scheme.
    pub scheme: ThresholdScheme,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Default-configured workload: `w = 40`, geometric ladder.
    pub fn new(num_queries: usize, kind: DistanceKind, seed: u64) -> Self {
        WorkloadConfig {
            num_queries,
            thresholds_per_query: 40,
            kind,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed,
        }
    }
}

/// The geometric selectivity ladder: `w` values spaced geometrically in
/// `[1, n/100]`.
pub fn selectivity_ladder(n: usize, w: usize) -> Vec<f64> {
    assert!(w >= 2, "need at least two rungs");
    let hi = (n as f64 / 100.0).max(2.0);
    (0..w).map(|j| hi.powf(j as f64 / (w - 1) as f64)).collect()
}

/// Computes sorted distances from `x` to every point of `ds`, pair by
/// pair: the single-query reference the labelling scan is tested against.
pub fn sorted_distances(ds: &Dataset, x: &[f32], kind: DistanceKind) -> Vec<f32> {
    let mut d: Vec<f32> = ds.iter().map(|row| kind.eval(x, row)).collect();
    sort_distances(&mut d);
    d
}

/// Exact selectivity at threshold `t` given the sorted distance array.
pub fn selectivity_from_sorted(sorted: &[f32], t: f32) -> f64 {
    // number of distances <= t == partition point of (d <= t)
    sorted.partition_point(|&d| d <= t) as f64
}

/// The rank each rung of the ladder reads among `n` sorted distances.
fn ladder_ranks(ladder: &[f64], n: usize) -> impl Iterator<Item = usize> + '_ {
    ladder.iter().map(move |&s| (s.ceil() as usize).clamp(1, n))
}

/// Labels one query under the geometric-selectivity scheme, given its
/// nearest distances up to the ladder's top rank among `n` records.
fn label_geometric(x: &[f32], nearest: &Nearest<'_>, ladder: &[f64], n: usize) -> LabeledQuery {
    // thresholds are non-decreasing by construction (sorted array ranks)
    let thresholds: Vec<f32> = ladder_ranks(ladder, n)
        .map(|rank| nearest.sorted[rank - 1])
        .collect();
    let selectivities = thresholds
        .iter()
        .map(|&t| nearest.count_within(t) as f64)
        .collect();
    LabeledQuery {
        x: x.to_vec(),
        thresholds,
        selectivities,
    }
}

/// Generates a fully-labeled workload with an 80:10:10 query split.
///
/// Ground truth is exact: a brute-force scan on [`fork_threads`] workers,
/// each reading a tile of records once for a band of its queries, grouped
/// sixteen to a block by locality. The geometric ladder reads each
/// query's distances up to its top rank only, so a column is rank-selected
/// there and just that prefix sorted, and a record beyond every lane's
/// rank distance so far is abandoned unfinished; Beta thresholds are
/// counted on the fly, a record beyond every lane's largest one abandoned
/// too. Either way the labels are those of a full sort, whatever the
/// worker count.
pub fn generate_workload(ds: &Dataset, cfg: &WorkloadConfig) -> Workload {
    assert!(ds.len() >= 2, "dataset too small");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // sample distinct query indices
    let num_queries = cfg.num_queries.min(ds.len());
    let mut indices: Vec<usize> = (0..ds.len()).collect();
    for i in 0..num_queries {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
    }
    indices.truncate(num_queries);
    let xs: Vec<&[f32]> = indices.iter().map(|&qi| ds.row(qi)).collect();
    let workers = fork_threads();

    let w = cfg.thresholds_per_query;
    let ladder = selectivity_ladder(ds.len(), w);
    let top_rank = ladder_ranks(&ladder, ds.len()).max().unwrap_or(1);
    let labeled = match cfg.scheme {
        // every label is a rank no higher than the ladder's top
        ThresholdScheme::GeometricSelectivity => {
            let label = |q: usize, nearest: Nearest<'_>| {
                label_geometric(xs[q], &nearest, &ladder, ds.len())
            };
            let labeller = || NearestColumns::new(ds.len(), top_rank, label);
            scan_distances(ds, &xs, cfg.kind, workers, labeller)
        }
        ThresholdScheme::Beta { alpha, beta } => {
            // Beta thresholds need tmax: use the ladder's top rank distance
            // sampled over a few queries as the scale, mirroring the default
            // workload range.
            let probes = &xs[..xs.len().min(16)];
            let top_distance = || {
                NearestColumns::new(ds.len(), top_rank, |_, nearest: Nearest<'_>| {
                    nearest.sorted[top_rank - 1]
                })
            };
            let scale_t = scan_distances(ds, probes, cfg.kind, workers, top_distance)
                .into_iter()
                .fold(0.0f32, f32::max);
            // pre-draw per-query thresholds (deterministic), then count
            // `d <= t` as the records stream by
            let thresholds: Vec<Vec<f32>> = (0..num_queries)
                .map(|_| {
                    let mut ts: Vec<f32> = (0..w)
                        .map(|_| (sample_beta(alpha, beta, &mut rng) as f32) * scale_t)
                        .collect();
                    sort_distances(&mut ts);
                    ts
                })
                .collect();
            let by_query: Vec<&[f32]> = thresholds.iter().map(Vec::as_slice).collect();
            let counter = || ThresholdCounts::global(&by_query);
            let counts = scan_distances(ds, &xs, cfg.kind, workers, counter);
            (xs.iter().zip(thresholds).zip(counts))
                .map(|((x, thresholds), mut counts)| LabeledQuery {
                    x: x.to_vec(),
                    thresholds,
                    selectivities: counts.swap_remove(0),
                })
                .collect()
        }
    };

    // tmax: cover all generated thresholds with a small margin
    let tmax = labeled
        .iter()
        .flat_map(|q| q.thresholds.iter().copied())
        .fold(0.0f32, f32::max)
        * 1.01
        + 1e-6;

    // 80:10:10 split by query
    let n_train = num_queries * 8 / 10;
    let n_valid = num_queries / 10;
    let mut it = labeled.into_iter();
    let train: Vec<_> = it.by_ref().take(n_train).collect();
    let valid: Vec<_> = it.by_ref().take(n_valid).collect();
    let test: Vec<_> = it.collect();

    Workload {
        kind: cfg.kind,
        tmax,
        train,
        valid,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_tensor::parallel;

    fn small_ds() -> Dataset {
        fasttext_like(&GeneratorConfig::new(500, 6, 4, 1))
    }

    #[test]
    fn ladder_is_geometric_and_bounded() {
        let ladder = selectivity_ladder(10_000, 40);
        assert_eq!(ladder.len(), 40);
        assert!((ladder[0] - 1.0).abs() < 1e-9);
        assert!((ladder[39] - 100.0).abs() < 1e-6);
        // constant ratio
        let r0 = ladder[1] / ladder[0];
        for w in ladder.windows(2) {
            assert!((w[1] / w[0] - r0).abs() < 1e-9);
        }
    }

    #[test]
    fn labels_are_exact_and_consistent() {
        let ds = small_ds();
        let cfg = WorkloadConfig {
            num_queries: 20,
            thresholds_per_query: 10,
            kind: DistanceKind::Euclidean,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed: 3,
        };
        let w = generate_workload(&ds, &cfg);
        assert_eq!(w.train.len(), 16);
        assert_eq!(w.valid.len(), 2);
        assert_eq!(w.test.len(), 2);
        for q in w.train.iter().chain(&w.valid).chain(&w.test) {
            // thresholds sorted, selectivities non-decreasing (consistency
            // of the ground truth itself)
            for i in 1..q.thresholds.len() {
                assert!(q.thresholds[i] >= q.thresholds[i - 1]);
                assert!(q.selectivities[i] >= q.selectivities[i - 1]);
            }
            // spot-check exactness by brute force
            let t = q.thresholds[q.thresholds.len() / 2];
            let count = ds
                .iter()
                .filter(|row| DistanceKind::Euclidean.eval(&q.x, row) <= t)
                .count() as f64;
            assert_eq!(count, q.selectivities[q.thresholds.len() / 2]);
            assert!(q.thresholds.last().copied().expect("nonempty") <= w.tmax);
        }
    }

    #[test]
    fn selectivity_ladder_hits_target_counts() {
        let ds = small_ds();
        let cfg = WorkloadConfig {
            num_queries: 5,
            thresholds_per_query: 8,
            kind: DistanceKind::Euclidean,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed: 5,
        };
        let w = generate_workload(&ds, &cfg);
        for q in &w.train {
            // smallest rung ~1 (query is itself a DB point → >= 1)
            assert!(q.selectivities[0] >= 1.0);
            // largest rung ~ n/100 = 5 (ties can push it higher)
            assert!(*q.selectivities.last().expect("nonempty") >= 5.0);
        }
    }

    #[test]
    fn beta_scheme_produces_sorted_thresholds() {
        let ds = small_ds();
        let cfg = WorkloadConfig {
            num_queries: 10,
            thresholds_per_query: 12,
            kind: DistanceKind::Cosine,
            scheme: ThresholdScheme::Beta {
                alpha: 3.0,
                beta: 2.5,
            },
            seed: 7,
        };
        let w = generate_workload(&ds, &cfg);
        for q in w.train.iter().chain(&w.valid).chain(&w.test) {
            for i in 1..q.thresholds.len() {
                assert!(q.thresholds[i] >= q.thresholds[i - 1]);
                assert!(q.selectivities[i] >= q.selectivities[i - 1]);
            }
            assert!(q.thresholds.iter().all(|&t| t >= 0.0));
        }
    }

    /// Every row four times over, copies apart: with 520 records the
    /// ladder's top rank is 6, inside the second run of four equal
    /// distances of a query that is itself a record.
    fn duplicated_ds() -> Dataset {
        let base = fasttext_like(&GeneratorConfig::new(130, 6, 4, 2));
        let rows: Vec<Vec<f32>> = (0..520).map(|i| base.row(i % 130).to_vec()).collect();
        Dataset::from_rows(6, &rows)
    }

    /// The same at three strides of coordinates, with three rows a fifth
    /// time: the scan's last kernel call is short of records, and at rank
    /// 6 a lane re-selects its candidates every eighteen it takes in, over
    /// and over inside runs of equal distances.
    fn wide_duplicated_ds() -> Dataset {
        let base = fasttext_like(&GeneratorConfig::new(130, 72, 4, 2));
        let rows: Vec<Vec<f32>> = (0..523).map(|i| base.row(i % 130).to_vec()).collect();
        Dataset::from_rows(72, &rows)
    }

    /// The labels are those a full sort of every query's pair-by-pair
    /// distances gives — thresholds, selectivities (ties included) and
    /// `tmax` bit for bit — across group and worker boundaries, under both
    /// schemes and both distances, with and without runs of equal
    /// distances across the ladder's top rank.
    #[test]
    fn labels_equal_the_per_pair_reference_bit_for_bit() {
        let beta = ThresholdScheme::Beta {
            alpha: 3.0,
            beta: 2.5,
        };
        let geometric = ThresholdScheme::GeometricSelectivity;
        for (ds, what) in [
            (small_ds(), "distinct"),
            (duplicated_ds(), "duplicated"),
            (wide_duplicated_ds(), "wide duplicated"),
        ] {
            for (kind, scheme, threads) in [
                (DistanceKind::Euclidean, geometric, 1),
                (DistanceKind::Euclidean, geometric, 3),
                (DistanceKind::Euclidean, beta, 3),
                (DistanceKind::Cosine, geometric, 2),
                (DistanceKind::Cosine, beta, 1),
            ] {
                for num_queries in [1, 16, 17, 37, 53] {
                    let cfg = WorkloadConfig {
                        num_queries,
                        thresholds_per_query: 9,
                        kind,
                        scheme,
                        seed: 13,
                    };
                    parallel::set_threads(threads);
                    let w = generate_workload(&ds, &cfg);
                    parallel::set_threads(0);
                    let ladder = selectivity_ladder(ds.len(), 9);
                    let labeled = || w.train.iter().chain(&w.valid).chain(&w.test);
                    assert_eq!(labeled().count(), num_queries);
                    let mut top = 0.0f32;
                    for q in labeled() {
                        let sorted = sorted_distances(&ds, &q.x, kind);
                        let thresholds: Vec<f32> = match scheme {
                            ThresholdScheme::GeometricSelectivity => ladder
                                .iter()
                                .map(|s| sorted[(s.ceil() as usize).clamp(1, ds.len()) - 1])
                                .collect(),
                            ThresholdScheme::Beta { .. } => q.thresholds.clone(),
                        };
                        let selectivities: Vec<f64> = thresholds
                            .iter()
                            .map(|&t| selectivity_from_sorted(&sorted, t))
                            .collect();
                        let bits = |ts: &[f32]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                        let case = format!("{what} {kind:?} {scheme:?} {num_queries} queries");
                        assert_eq!(bits(&q.thresholds), bits(&thresholds), "{case}");
                        assert_eq!(q.selectivities, selectivities, "{case}");
                        top = q.thresholds.iter().copied().fold(top, f32::max);
                    }
                    assert_eq!(w.tmax.to_bits(), (top * 1.01 + 1e-6).to_bits());
                }
            }
        }
        // the duplicated data does put ties across the top rank (6 of 520)
        for ds in [duplicated_ds(), wide_duplicated_ds()] {
            let sorted = sorted_distances(&ds, ds.row(0), DistanceKind::Euclidean);
            assert_eq!(sorted[5], sorted[6]);
            assert!(selectivity_from_sorted(&sorted, sorted[5]) > 6.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_ds();
        let cfg = WorkloadConfig::new(8, DistanceKind::Euclidean, 11);
        let a = generate_workload(&ds, &cfg);
        let b = generate_workload(&ds, &cfg);
        assert_eq!(a.train, b.train);
        assert_eq!(a.tmax, b.tmax);
    }
}
