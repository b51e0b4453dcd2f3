//! Property-based tests (proptest) on the core invariants:
//!
//! * Lemma 1 — the PWL head is monotone for arbitrary parameters;
//! * Norml2 rows are positive and sum to 1 for arbitrary inputs;
//! * the cover tree counts exactly for arbitrary point sets;
//! * partition labels always sum to the global label (Observation 1);
//! * incremental label maintenance matches recomputation from scratch.

use proptest::prelude::*;
use selnet_core::PiecewiseLinear;
use selnet_data::Dataset;
use selnet_index::{CoverTree, PartitionMethod, Partitioning};
use selnet_metric::DistanceKind;
use selnet_tensor::{Graph, Matrix};

fn small_f32() -> impl Strategy<Value = f32> {
    (-100i32..100).prop_map(|v| v as f32 * 0.07)
}

fn point_set(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(small_f32(), dim), 2..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 1: for any non-negative increments, the PWL head built from
    /// prefix sums is monotone in t over the whole domain.
    #[test]
    fn pwl_head_is_monotone_for_any_parameters(
        tau_inc in prop::collection::vec(0.0f32..2.0, 1..20),
        p_inc in prop::collection::vec(0.0f32..50.0, 2..22),
        ts in prop::collection::vec(-1.0f32..30.0, 2..40),
    ) {
        // build tau from increments (tau_0 = 0), p from increments
        let mut tau = vec![0.0f32];
        for &d in &tau_inc {
            tau.push(tau.last().unwrap() + d);
        }
        let mut p = Vec::with_capacity(tau.len());
        let mut acc = 0.0f32;
        for i in 0..tau.len() {
            acc += p_inc.get(i).copied().unwrap_or(0.0);
            p.push(acc);
        }
        let f = PiecewiseLinear::new(tau, p);
        prop_assert!(f.is_monotone());
        let mut sorted = ts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f32::MIN;
        for &t in &sorted {
            let v = f.eval(t);
            prop_assert!(v >= prev - 1e-4, "f({t}) = {v} < {prev}");
            prev = v;
        }
    }

    /// Norml2 output rows are strictly positive and sum to exactly 1.
    #[test]
    fn norml2_is_a_probability_vector(
        rows in 1usize..5,
        cols in 2usize..30,
        seed in 0u64..1000,
    ) {
        let m = Matrix::from_fn(rows, cols, |i, j| {
            let h = seed.wrapping_mul(31).wrapping_add((i * 7 + j * 13) as u64);
            ((h % 2000) as f32 - 1000.0) * 0.01
        });
        let mut g = Graph::new();
        let x = g.leaf(m);
        let y = g.norml2(x, 1e-6);
        for i in 0..rows {
            let row = g.value(y).row(i);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
            prop_assert!(row.iter().all(|&v| v > 0.0));
        }
    }

    /// Cover tree range counts match brute force on arbitrary point sets.
    #[test]
    fn cover_tree_counts_exactly(
        points in point_set(60, 3),
        qidx in 0usize..60,
        t in 0.0f32..20.0,
    ) {
        let ds = Dataset::from_rows(3, &points);
        let tree = CoverTree::build(&ds);
        let q = ds.row(qidx % ds.len()).to_vec();
        let expected = ds
            .iter()
            .filter(|r| DistanceKind::Euclidean.eval(&q, r) <= t)
            .count();
        prop_assert_eq!(tree.range_count(&q, t), expected);
    }

    /// Observation 1: partition labels sum to the global selectivity for
    /// every partitioning method.
    #[test]
    fn partition_counts_sum_to_global(
        points in point_set(50, 2),
        k in 1usize..5,
        t in 0.0f32..10.0,
        method_pick in 0usize..3,
    ) {
        let ds = Dataset::from_rows(2, &points);
        let method = match method_pick {
            0 => PartitionMethod::CoverTree { ratio: 0.2 },
            1 => PartitionMethod::Random,
            _ => PartitionMethod::KMeans,
        };
        let p = Partitioning::build(&ds, DistanceKind::Euclidean, method, k, 3);
        let q = ds.row(0).to_vec();
        let global = ds
            .iter()
            .filter(|r| DistanceKind::Euclidean.eval(&q, r) <= t)
            .count();
        let mut per_part = vec![0usize; p.k()];
        for (i, r) in ds.iter().enumerate() {
            if DistanceKind::Euclidean.eval(&q, r) <= t {
                per_part[p.assignments()[i]] += 1;
            }
        }
        prop_assert_eq!(per_part.iter().sum::<usize>(), global);
        // soundness of the indicator: every non-empty part is flagged
        let ind = p.indicator(&q, t);
        for (part, &count) in per_part.iter().enumerate() {
            if count > 0 {
                prop_assert!(ind[part], "part {part} pruned but holds {count} matches");
            }
        }
    }

    /// The Huber loss tape op matches its closed form and its gradient is
    /// bounded by delta.
    #[test]
    fn huber_gradient_is_bounded(
        rs in prop::collection::vec(-50.0f32..50.0, 1..30),
        delta in 0.1f32..3.0,
    ) {
        let mut g = Graph::new();
        let r = g.leaf(Matrix::row_vector(&rs));
        let h = g.huber(r, delta);
        let loss = g.sum(h);
        g.backward(loss);
        let grad = g.grad(r);
        for (i, &rv) in rs.iter().enumerate() {
            let expected = if rv.abs() <= delta {
                0.5 * rv * rv
            } else {
                delta * (rv.abs() - 0.5 * delta)
            };
            prop_assert!((g.value(h).get(0, i) - expected).abs() < 1e-4);
            prop_assert!(grad.get(0, i).abs() <= delta + 1e-5);
        }
    }
}

/// Incremental label maintenance agrees with recomputation from scratch
/// (deterministic sequence, so outside proptest for clearer failures).
#[test]
fn incremental_labels_match_recompute() {
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_workload::{generate_workload, UpdateSimulator, WorkloadConfig};

    let mut ds = fasttext_like(&GeneratorConfig::new(400, 4, 3, 55));
    let mut wcfg = WorkloadConfig::new(12, DistanceKind::Euclidean, 5);
    wcfg.thresholds_per_query = 8;
    let w = generate_workload(&ds, &wcfg);
    let mut train = w.train.clone();
    let mut sim = UpdateSimulator::new(3);
    for _ in 0..10 {
        let mut splits: Vec<&mut [selnet_workload::LabeledQuery]> = vec![train.as_mut_slice()];
        sim.step(&mut ds, &mut splits, DistanceKind::Euclidean);
    }
    for q in &train {
        for (j, &t) in q.thresholds.iter().enumerate() {
            let exact = ds
                .iter()
                .filter(|r| DistanceKind::Euclidean.eval(&q.x, r) <= t)
                .count() as f64;
            assert_eq!(q.selectivities[j], exact);
        }
    }
}
