//! End-to-end integration tests spanning the whole workspace: data
//! generation → workload labeling → partitioning → training → evaluation.

use selnet_baselines::{
    GbdtConfig, GbdtEstimator, KdeConfig, KdeEstimator, LshConfig, LshEstimator,
};
use selnet_core::{fit_named, fit_partitioned, PartitionConfig, SelNetConfig};
use selnet_data::generators::{face_like, fasttext_like, GeneratorConfig};
use selnet_eval::{empirical_monotonicity, evaluate, per_pair, SelectivityEstimator};
use selnet_index::PartitionMethod;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, ThresholdScheme, Workload, WorkloadConfig};

fn euclidean_fixture() -> (selnet_data::Dataset, Workload) {
    let ds = fasttext_like(&GeneratorConfig::new(2500, 8, 5, 101));
    let cfg = WorkloadConfig {
        num_queries: 80,
        thresholds_per_query: 12,
        kind: DistanceKind::Euclidean,
        scheme: ThresholdScheme::GeometricSelectivity,
        seed: 5,
    };
    let w = generate_workload(&ds, &cfg);
    (ds, w)
}

fn cosine_fixture() -> (selnet_data::Dataset, Workload) {
    let ds = face_like(&GeneratorConfig::new(2500, 10, 6, 103));
    let cfg = WorkloadConfig {
        num_queries: 80,
        thresholds_per_query: 12,
        kind: DistanceKind::Cosine,
        scheme: ThresholdScheme::GeometricSelectivity,
        seed: 6,
    };
    let w = generate_workload(&ds, &cfg);
    (ds, w)
}

fn tiny_selnet() -> SelNetConfig {
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 12;
    cfg
}

/// The full pipeline with the partitioned SelNet on a Euclidean workload:
/// trains, beats a mean-label predictor, and is perfectly consistent.
#[test]
fn selnet_full_pipeline_euclidean() {
    let (ds, w) = euclidean_fixture();
    let pcfg = PartitionConfig {
        k: 3,
        method: PartitionMethod::CoverTree { ratio: 0.1 },
        pretrain_epochs: 6,
        beta: 0.1,
    };
    let mut cfg = tiny_selnet();
    cfg.epochs = 40;
    let (model, report) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    assert!(!report.epoch_val_mae.is_empty());

    let metrics = evaluate(&model, &w.test);
    let mean_label: f64 = {
        let flat = Workload::flatten(&w.train);
        flat.iter().map(|f| f.2).sum::<f64>() / flat.len() as f64
    };
    struct Mean(f64);
    impl SelectivityEstimator for Mean {
        fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
            per_pair(queries, out, |_, _| self.0)
        }
        fn name(&self) -> &str {
            "mean"
        }
    }
    let baseline = evaluate(&Mean(mean_label), &w.test);
    // the Huber-on-log loss optimizes relative error: MAPE must beat the
    // mean-label predictor decisively, and MAE must stay in its ballpark
    assert!(
        metrics.mape < baseline.mape,
        "SelNet MAPE {} should beat mean predictor {}",
        metrics.mape,
        baseline.mape
    );
    assert!(
        metrics.mae < baseline.mae * 2.0,
        "SelNet MAE {} way off mean predictor {}",
        metrics.mae,
        baseline.mae
    );
    assert_eq!(
        empirical_monotonicity(&model, &w.test, 20, 60, w.tmax),
        100.0
    );
}

/// Cosine workload: partitioning runs on normalized vectors via the
/// unit-vector equivalence; the pipeline must still be sound.
#[test]
fn selnet_full_pipeline_cosine() {
    let (ds, w) = cosine_fixture();
    let (model, _) = fit_partitioned(
        &ds,
        &w,
        &tiny_selnet(),
        &PartitionConfig {
            k: 3,
            method: PartitionMethod::CoverTree { ratio: 0.1 },
            pretrain_epochs: 3,
            beta: 0.1,
        },
    );
    let metrics = evaluate(&model, &w.test);
    assert!(metrics.mse.is_finite() && metrics.count > 0);
    assert_eq!(
        empirical_monotonicity(&model, &w.test, 20, 60, w.tmax),
        100.0
    );
}

/// Every consistent estimator must score exactly 100% on the §7.3 test;
/// this is the Table 5 property at integration level.
#[test]
fn all_consistent_models_score_100() {
    let (ds, w) = cosine_fixture();
    let mut models: Vec<Box<dyn SelectivityEstimator>> = Vec::new();
    models.push(Box::new(KdeEstimator::fit(
        &ds,
        w.kind,
        &KdeConfig {
            sample_size: 300,
            ..Default::default()
        },
    )));
    models.push(Box::new(LshEstimator::fit(
        &ds,
        &LshConfig {
            sample_budget: 500,
            ..Default::default()
        },
    )));
    models.push(Box::new(GbdtEstimator::fit(
        &ds,
        &w.train,
        w.kind,
        &GbdtConfig {
            num_trees: 20,
            monotone_t: true,
            ..Default::default()
        },
    )));
    let (selnet_ct, _) = fit_named(&ds, &w, &tiny_selnet(), "SelNet-ct");
    models.push(Box::new(selnet_ct));

    for m in &models {
        assert!(
            m.guarantees_consistency(),
            "{} should claim consistency",
            m.name()
        );
        let score = empirical_monotonicity(m.as_ref(), &w.test, 10, 50, w.tmax);
        assert_eq!(score, 100.0, "{} violated monotonicity", m.name());
    }
}

/// Ablation ordering on a workload where partitioning and adaptive τ both
/// matter: SelNet-ct must beat SelNet-ad-ct on validation MAE (the Table 6
/// headline), with enough training to make the comparison stable.
#[test]
fn adaptive_tau_beats_fixed_tau() {
    let (ds, w) = euclidean_fixture();
    let mut cfg = tiny_selnet();
    cfg.epochs = 25;
    let (ct, _) = fit_named(&ds, &w, &cfg, "SelNet-ct");
    let (ad, _) = fit_named(&ds, &w, &cfg.clone().without_adaptive_tau(), "SelNet-ad-ct");
    let m_ct = evaluate(&ct, &w.valid);
    let m_ad = evaluate(&ad, &w.valid);
    // allow slack: at tiny scale the gap can be modest, but ad-ct should
    // not be dramatically better
    assert!(
        m_ct.mae <= m_ad.mae * 1.2,
        "SelNet-ct MAE {} vs SelNet-ad-ct {}",
        m_ct.mae,
        m_ad.mae
    );
}

/// Update pipeline: stream updates, maintain labels incrementally, let the
/// §5.4 rule decide, and verify the model stays usable and consistent.
#[test]
fn update_stream_keeps_model_healthy() {
    let (mut ds, w) = euclidean_fixture();
    let (mut model, _) = selnet_core::fit(&ds, &w, &tiny_selnet());
    let mut train = w.train.clone();
    let mut valid = w.valid.clone();
    let mut test = w.test.clone();
    let mut sim = selnet_workload::UpdateSimulator::new(77);
    let policy = selnet_core::UpdatePolicy {
        mae_tolerance: (model.reference_val_mae() * 0.25).max(0.5),
        patience: 2,
        max_epochs: 4,
    };
    for _ in 0..5 {
        {
            let mut splits: Vec<&mut [selnet_workload::LabeledQuery]> = vec![
                train.as_mut_slice(),
                valid.as_mut_slice(),
                test.as_mut_slice(),
            ];
            sim.step(&mut ds, &mut splits, DistanceKind::Euclidean);
        }
        model.check_and_update(&ds, w.kind, &train, &valid, &policy);
    }
    let metrics = evaluate(&model, &test);
    assert!(metrics.mse.is_finite());
    assert_eq!(empirical_monotonicity(&model, &test, 10, 40, w.tmax), 100.0);
}

/// Beta-threshold workload (§7.9) end to end.
#[test]
fn beta_threshold_pipeline() {
    let ds = face_like(&GeneratorConfig::new(2000, 8, 5, 111));
    let cfg = WorkloadConfig {
        num_queries: 50,
        thresholds_per_query: 10,
        kind: DistanceKind::Cosine,
        scheme: ThresholdScheme::Beta {
            alpha: 3.0,
            beta: 2.5,
        },
        seed: 9,
    };
    let w = generate_workload(&ds, &cfg);
    let (model, _) = fit_named(&ds, &w, &tiny_selnet(), "SelNet-ct");
    let metrics = evaluate(&model, &w.test);
    assert!(metrics.mse.is_finite() && metrics.count > 0);
}

/// Checkpoint roundtrip at integration level: train → save → load →
/// identical predictions on the test split.
#[test]
fn model_checkpoint_roundtrip() {
    let (ds, w) = euclidean_fixture();
    let mut cfg = tiny_selnet();
    cfg.epochs = 4;
    let (model, _) = selnet_core::fit(&ds, &w, &cfg);
    let mut buf = Vec::new();
    model.save(&mut buf).expect("save");
    let loaded = selnet_core::PartitionedSelNet::load(&mut buf.as_slice()).expect("load");
    for q in w.test.iter().take(3) {
        assert_eq!(
            model.estimate_many(&q.x, &q.thresholds),
            loaded.estimate_many(&q.x, &q.thresholds)
        );
    }
}
