//! Additional invariant tests for workload generation: determinism across
//! thread counts, split disjointness, and ladder coverage.

use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_metric::DistanceKind;
use selnet_tensor::parallel;
use selnet_workload::{
    generate_workload, selectivity_ladder, sorted_distances, ThresholdScheme, WorkloadConfig,
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
