//! Additional invariant tests for workload generation: determinism across
//! thread counts, split disjointness, ladder coverage, and the labels of
//! the benchmark's paper fixture pinned.

use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_index::{PartitionMethod, Partitioning};
use selnet_metric::DistanceKind;
use selnet_tensor::parallel;
use selnet_workload::{
    generate_workload, label_partitions, selectivity_ladder, sorted_distances, ThresholdScheme,
    WorkloadConfig,
};

fn cfg() -> WorkloadConfig {
    WorkloadConfig {
        num_queries: 24,
        thresholds_per_query: 9,
        kind: DistanceKind::Euclidean,
        scheme: ThresholdScheme::GeometricSelectivity,
        seed: 77,
    }
}

#[test]
fn labeling_is_thread_count_invariant() {
    let ds = fasttext_like(&GeneratorConfig::new(600, 5, 4, 31));
    parallel::set_threads(1);
    let w1 = generate_workload(&ds, &cfg());
    parallel::set_threads(8);
    let w8 = generate_workload(&ds, &cfg());
    parallel::set_threads(0);
    assert_eq!(w1.train, w8.train);
    assert_eq!(w1.valid, w8.valid);
    assert_eq!(w1.test, w8.test);
    assert_eq!(w1.tmax, w8.tmax);
}

#[test]
fn splits_are_disjoint_by_query() {
    let ds = fasttext_like(&GeneratorConfig::new(600, 5, 4, 32));
    let w = generate_workload(&ds, &cfg());
    let mut seen: Vec<&[f32]> = Vec::new();
    for q in w.train.iter().chain(&w.valid).chain(&w.test) {
        assert!(
            !seen.contains(&q.x.as_slice()),
            "query appears in two splits"
        );
        seen.push(&q.x);
    }
    assert_eq!(seen.len(), 24);
}

#[test]
fn ladder_rungs_monotone_and_within_range() {
    for (n, w) in [(1000usize, 5usize), (50_000, 40), (200, 2)] {
        let ladder = selectivity_ladder(n, w);
        assert_eq!(ladder.len(), w);
        assert!(ladder.windows(2).all(|p| p[0] <= p[1]));
        assert!(ladder[0] >= 1.0 - 1e-9);
        assert!(*ladder.last().unwrap() <= (n as f64 / 100.0).max(2.0) + 1e-9);
    }
}

#[test]
fn sorted_distances_include_self_zero() {
    let ds = fasttext_like(&GeneratorConfig::new(100, 4, 3, 33));
    // query is a database point -> smallest distance is 0
    let sorted = sorted_distances(&ds, ds.row(17), DistanceKind::Euclidean);
    assert_eq!(sorted.len(), 100);
    assert!(sorted[0].abs() < 1e-6);
    assert!(sorted.windows(2).all(|p| p[0] <= p[1]));
}

#[test]
fn tmax_covers_every_generated_threshold() {
    let ds = fasttext_like(&GeneratorConfig::new(800, 6, 4, 34));
    let w = generate_workload(&ds, &cfg());
    for q in w.train.iter().chain(&w.valid).chain(&w.test) {
        for &t in &q.thresholds {
            assert!(t <= w.tmax, "threshold {t} above tmax {}", w.tmax);
        }
    }
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The benchmark's paper fixture (50 000 × 300, 300 queries, 20 rungs):
/// its labels, and its training split's labels per part of the cover-tree
/// partitioning, hash to what the scan that streamed the dataset once per
/// sixteen queries produced. Per query, its thresholds' `f32` bits, then
/// its selectivities' `f64` bits, little-endian, in train / valid / test
/// order; per training query, part and threshold, the per-part count's
/// `f64` bits. Optimized code only: unoptimized, the fixture alone takes
/// minutes.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_fixture_labels_are_pinned() {
    let kind = DistanceKind::Euclidean;
    let ds = fasttext_like(&GeneratorConfig::new(50_000, 300, 16, 7));
    let mut cfg = WorkloadConfig::new(300, kind, 8);
    cfg.thresholds_per_query = 20;
    let w = generate_workload(&ds, &cfg);
    let queries = w.train.iter().chain(&w.valid).chain(&w.test);
    let labels = queries.flat_map(|q| {
        let thresholds = q.thresholds.iter().flat_map(|t| t.to_le_bytes());
        thresholds.chain(q.selectivities.iter().flat_map(|s| s.to_le_bytes()))
    });
    assert_eq!(fnv1a(labels), 0xe904_4cbf_bd68_21f9, "workload labels");

    let method = PartitionMethod::CoverTree { ratio: 0.05 };
    let p = Partitioning::build(&ds, kind, method, 3, 42);
    let per_part = label_partitions(&ds, &p, &w.train, kind).labels;
    let counts = per_part.iter().flatten().flatten();
    assert_eq!(
        fnv1a(counts.flat_map(|c| c.to_le_bytes())),
        0xd119_20da_e8c4_3c5c,
        "per-part labels"
    );
}
