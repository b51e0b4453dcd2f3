//! Workspace smoke test: the documented entry points construct and a
//! minimal partitioned training run completes end to end with consistent
//! (monotone) output. Deliberately tiny — this is the test CI leans on to
//! prove the workspace is wired, not a quality benchmark.

use selnet_core::{fit_partitioned, PartitionConfig, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, WorkloadConfig};

#[test]
fn default_configs_construct() {
    let cfg = SelNetConfig::default();
    assert!(cfg.control_points > 0);
    assert!(cfg.epochs > 0);
    assert!(cfg.batch_size > 0);
    let pcfg = PartitionConfig::default();
    assert!(pcfg.k > 0);
    assert!(pcfg.beta >= 0.0);
}

#[test]
fn one_batch_fit_partitioned_is_monotone() {
    let ds = fasttext_like(&GeneratorConfig::new(100, 4, 2, 3));
    let mut wcfg = WorkloadConfig::new(12, DistanceKind::Euclidean, 9);
    wcfg.thresholds_per_query = 6;
    let w = generate_workload(&ds, &wcfg);

    // One epoch over one batch: batch_size covers the whole train split.
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 1;
    cfg.batch_size = 1024;
    cfg.ae_pretrain_epochs = 1;
    let pcfg = PartitionConfig {
        k: 2,
        pretrain_epochs: 1,
        ..Default::default()
    };

    let (model, report) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    // joint training logs at least the configured epochs (the partitioned
    // trainer may add pretraining entries)
    assert!(report.epoch_val_mae.len() >= cfg.epochs);
    assert!(model.k() >= 1);

    // Consistency (Lemma 1): estimates are monotone in t by construction,
    // even for an undertrained model.
    let q = ds.row(0);
    let tmax = model.tmax();
    // the grid starts far below zero: the wire accepts any threshold
    let ts: Vec<f32> = (0..=32)
        .map(|i| (i as f32 / 32.0 * 11.1 - 10.0) * tmax)
        .collect();
    let preds = model.estimate_many(q, &ts);
    assert!(preds.iter().all(|p| p.is_finite() && *p >= 0.0));
    for pair in preds.windows(2) {
        assert!(
            pair[1] >= pair[0] - 1e-6,
            "estimates must be non-decreasing in t: {} then {}",
            pair[0],
            pair[1]
        );
    }
}

/// `selnet-index` sits below `selnet-tensor` and restates how the default
/// worker count is resolved (`SELNET_THREADS`, else the machine's
/// parallelism); the cover-tree build and the tensor helpers must read
/// the same number. No test in this binary overrides it with
/// `parallel::set_threads`.
#[test]
fn index_and_tensor_agree_on_default_workers() {
    assert_eq!(
        selnet_index::default_workers(),
        selnet_tensor::parallel::configured_threads()
    );
}
