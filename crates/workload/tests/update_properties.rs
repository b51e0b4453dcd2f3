//! Property tests for the §5.4 update simulator: per-seed determinism,
//! size conservation and label finiteness over long streams — the
//! guarantees `repro fig5`'s drift table rests on.

use proptest::prelude::*;
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_metric::DistanceKind;
use selnet_workload::{
    generate_workload, DriftSchedule, LabeledQuery, ThresholdScheme, UpdateOp, UpdateSimulator,
    WorkloadConfig,
};

const KIND: DistanceKind = DistanceKind::Euclidean;

fn fixture(seed: u64) -> (Dataset, Vec<LabeledQuery>) {
    let ds = fasttext_like(&GeneratorConfig::new(150, 4, 3, seed));
    let cfg = WorkloadConfig {
        num_queries: 8,
        thresholds_per_query: 5,
        kind: KIND,
        scheme: ThresholdScheme::GeometricSelectivity,
        seed: seed ^ 0x9e37,
        threads: 1,
    };
    let w = generate_workload(&ds, &cfg);
    (ds, w.train)
}

/// Runs ops `0..steps` under `schedule`, returning the applied ops.
fn drive(
    sim: &mut UpdateSimulator,
    ds: &mut Dataset,
    queries: &mut [LabeledQuery],
    schedule: &DriftSchedule,
    steps: usize,
) -> Vec<UpdateOp> {
    let mut ops = Vec::with_capacity(steps);
    for op in 0..steps {
        let spec = schedule.at(op);
        let mut splits: Vec<&mut [LabeledQuery]> = vec![&mut *queries];
        ops.push(sim.step_drifted(ds, &mut splits, KIND, &spec));
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two simulators with the same seed produce identical op streams,
    /// datasets, and labels — regardless of what the seed is.
    #[test]
    fn same_seed_same_stream(seed in 0u64..1_000_000, steps in 5usize..25) {
        let schedule = DriftSchedule::gradual(4, seed ^ 7, 0.01);
        let (ds0, qs0) = fixture(3);
        let (mut ds_a, mut qs_a) = (ds0.clone(), qs0.clone());
        let (mut ds_b, mut qs_b) = (ds0, qs0);
        let mut sim_a = UpdateSimulator::new(seed);
        let mut sim_b = UpdateSimulator::new(seed);
        let ops_a = drive(&mut sim_a, &mut ds_a, &mut qs_a, &schedule, steps);
        let ops_b = drive(&mut sim_b, &mut ds_b, &mut qs_b, &schedule, steps);
        prop_assert_eq!(ops_a, ops_b);
        prop_assert_eq!(ds_a.flat(), ds_b.flat());
        prop_assert_eq!(qs_a, qs_b);
    }

    /// Dataset length always equals the initial length plus applied
    /// inserts minus applied deletes; an op never partially applies.
    #[test]
    fn op_stream_conserves_size(seed in 0u64..1_000_000, steps in 5usize..30) {
        let schedule = DriftSchedule::cyclical(4, seed ^ 3, 0.05, 10);
        let (mut ds, mut qs) = fixture(5);
        let initial = ds.len();
        let mut sim = UpdateSimulator::new(seed);
        let ops = drive(&mut sim, &mut ds, &mut qs, &schedule, steps);
        let mut expected = initial as i64;
        for op in &ops {
            match op {
                UpdateOp::Insert(records) => {
                    prop_assert_eq!(records.len(), sim.batch);
                    expected += records.len() as i64;
                }
                UpdateOp::Delete(records) => {
                    prop_assert_eq!(records.len(), sim.batch);
                    expected -= records.len() as i64;
                }
            }
        }
        prop_assert_eq!(ds.len() as i64, expected);
    }

    /// Long drifted streams never produce a NaN/∞ record or label, and
    /// incremental labels never go negative.
    #[test]
    fn long_streams_stay_finite(seed in 0u64..1_000_000) {
        let schedule = DriftSchedule::abrupt(4, seed ^ 11, 0.5, 40);
        let (mut ds, mut qs) = fixture(7);
        let mut sim = UpdateSimulator::new(seed);
        drive(&mut sim, &mut ds, &mut qs, &schedule, 80);
        prop_assert!(ds.flat().iter().all(|v| v.is_finite()));
        for q in &qs {
            for &y in &q.selectivities {
                prop_assert!(y.is_finite() && y >= 0.0, "bad label {}", y);
            }
        }
    }
}
