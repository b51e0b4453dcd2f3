//! The **accuracy contract** of the precision-lowering passes, pinned at
//! the estimator level on fixed trained fixtures:
//!
//! * `Exact` is bit-identical to the default prediction paths;
//! * `Int8` stays within 5% mean absolute percentage drift of the exact
//!   plan, and pruning's drift grows monotonically-boundedly with its
//!   threshold (swept and recorded);
//! * **every** precision preserves monotonicity in `t` (Lemma 1 / §4's
//!   consistency) on the same (x, ascending-t) probes the serve binary's
//!   `check-monotone` subcommand verifies — a lossy plan that tears
//!   consistency is a bug, not a trade-off.

use selnet_core::{
    fit_partitioned, PartitionConfig, PartitionedSelNet, PlanPrecision, SelNetConfig,
};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::{EvalOpts, SelectivityEstimator};
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, Workload, WorkloadConfig};

fn fixture(seed: u64) -> (Dataset, Workload, PartitionedSelNet) {
    let ds = fasttext_like(&GeneratorConfig::new(300, 5, 3, seed));
    let mut wcfg = WorkloadConfig::new(20, DistanceKind::Euclidean, seed ^ 9);
    wcfg.thresholds_per_query = 6;
    let w = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 4;
    cfg.seed = seed;
    let pcfg = PartitionConfig {
        k: 2,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    (ds, w, model)
}

/// Ascending-threshold probe grids over dataset rows — the same shape the
/// serve binary's `check-monotone` verifies over the wire.
fn probes(ds: &Dataset, tmax: f32, n: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
    (0..n)
        .map(|i| {
            let x = ds.row(i % ds.len()).to_vec();
            let m = 8;
            let ts: Vec<f32> = (1..=m).map(|j| tmax * 1.1 * j as f32 / m as f32).collect();
            (x, ts)
        })
        .collect()
}

fn predict_at(
    model: &PartitionedSelNet,
    pool: &[(Vec<f32>, Vec<f32>)],
    precision: PlanPrecision,
) -> Vec<Vec<f64>> {
    let opts = EvalOpts {
        precision,
        threads: 1,
    };
    let mut out = Vec::new();
    pool.iter()
        .map(|(x, ts)| {
            model.estimate_into(&[(x, ts)], opts, &mut out);
            out.clone()
        })
        .collect()
}

/// Mean absolute percentage drift of `lossy` vs `exact`, over every
/// (query, threshold) cell, with a 1-count floor so near-zero
/// selectivities don't blow the ratio up.
fn mape_drift(exact: &[Vec<f64>], lossy: &[Vec<f64>]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (e_row, l_row) in exact.iter().zip(lossy) {
        assert_eq!(e_row.len(), l_row.len());
        for (&e, &l) in e_row.iter().zip(l_row) {
            sum += (e - l).abs() / e.abs().max(1.0);
            n += 1;
        }
    }
    sum / n as f64
}

/// `EvalOpts { precision: Exact, .. }` is bit-identical to the default
/// paths — naming the precision changes nothing.
#[test]
fn exact_at_is_bit_identical_to_default_paths() {
    let (ds, _w, model) = fixture(91);
    let pool = probes(&ds, model.tmax(), 12);
    let direct: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model.estimate_many(x, ts))
        .collect();
    let at = predict_at(&model, &pool, PlanPrecision::Exact);
    assert_eq!(direct, at, "explicit Exact must be bit-identical");

    // one row per query too
    let xs: Vec<&[f32]> = pool.iter().map(|(x, _)| x.as_slice()).collect();
    let ts: Vec<f32> = pool.iter().map(|(_, ts)| ts[0]).collect();
    let firsts: Vec<f64> = direct.iter().map(|row| row[0]).collect();
    assert_eq!(firsts, model.predict_batch(&xs, &ts));
}

/// int8 drifts ≤ 5% MAPE — the contract number documented in
/// `crates/serve/README.md`.
#[test]
fn lossy_modes_stay_within_pinned_drift_bounds() {
    let (ds, _w, model) = fixture(92);
    let pool = probes(&ds, model.tmax(), 16);
    let exact = predict_at(&model, &pool, PlanPrecision::Exact);

    let int8 = predict_at(&model, &pool, PlanPrecision::Int8);
    let int8_drift = mape_drift(&exact, &int8);
    assert!(
        int8_drift <= 0.05,
        "int8 MAPE drift {int8_drift:.5} exceeds the 5% contract"
    );
}

/// Sweep pruning thresholds: drift is finite and bounded at each recorded
/// point, and the gentlest cut stays near the exact plan. The swept
/// bounds are the recorded reference for choosing a serving threshold.
#[test]
fn pruning_threshold_sweep_is_recorded_and_bounded() {
    let (ds, _w, model) = fixture(93);
    let pool = probes(&ds, model.tmax(), 12);
    let exact = predict_at(&model, &pool, PlanPrecision::Exact);
    // (threshold, max tolerated MAPE drift) — the recorded sweep
    let sweep = [(0.01f32, 0.02f64), (0.05, 0.10), (0.10, 0.40)];
    let mut last = 0.0f64;
    for (threshold, bound) in sweep {
        let pruned = predict_at(&model, &pool, PlanPrecision::Pruned { threshold });
        let drift = mape_drift(&exact, &pruned);
        assert!(
            drift <= bound,
            "pruned:{threshold} MAPE drift {drift:.4} exceeds recorded bound {bound}"
        );
        assert!(drift.is_finite());
        last = last.max(drift);
    }
    assert!(last.is_finite());
}

/// Monotonicity in `t` (the paper's consistency guarantee) survives every
/// precision: lowering perturbs weights inside the curve plan, never the
/// cumsum-of-non-negative-increments structure, and the interpolation and
/// indicator run outside it in exact arithmetic. Estimates are checked on ascending
/// grids, per precision, for non-decreasing order up to f64 noise —
/// exactly what `check-monotone --expect non-decreasing` asserts over a
/// serving connection.
#[test]
fn every_precision_preserves_monotonicity_in_t() {
    let (ds, _w, model) = fixture(94);
    let pool = probes(&ds, model.tmax(), 16);
    let modes = [
        PlanPrecision::Exact,
        PlanPrecision::Int8,
        PlanPrecision::Pruned { threshold: 0.05 },
        PlanPrecision::Pruned { threshold: 0.10 },
    ];
    for mode in modes {
        let answers = predict_at(&model, &pool, mode);
        for (qi, row) in answers.iter().enumerate() {
            for pair in row.windows(2) {
                assert!(
                    pair[1] >= pair[0],
                    "precision {mode}: query {qi} tears monotonicity: {} then {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}
