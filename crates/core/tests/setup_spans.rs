//! The set-up ledger comes from the product's own instruments: with the
//! global `selnet-obs` recorder armed, `fit_partitioned` records one
//! `partition_build`, `label_partitions`, `pretrain_phase` and
//! `joint_phase` span each, in that order, and a §5.4 retrain records
//! `label_partitions` and `joint_phase` again. This file is a test binary
//! of its own because it arms the process-global recorder.

use selnet_core::{fit_partitioned, PartitionConfig, SelNetConfig, UpdatePolicy};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_index::PartitionMethod;
use selnet_metric::DistanceKind;
use selnet_obs::Span;
use selnet_workload::{generate_workload, WorkloadConfig};

const SETUP_KINDS: [&str; 4] = [
    "partition_build",
    "label_partitions",
    "pretrain_phase",
    "joint_phase",
];

fn setup_spans() -> Vec<Span> {
    let spans = selnet_obs::trace::global().snapshot();
    spans
        .into_iter()
        .filter(|s| SETUP_KINDS.contains(&s.kind))
        .collect()
}

#[test]
fn fit_and_retrain_record_the_setup_spans() {
    let ds = fasttext_like(&GeneratorConfig::new(300, 5, 3, 9));
    let mut wcfg = WorkloadConfig::new(30, DistanceKind::Euclidean, 4);
    wcfg.thresholds_per_query = 6;
    let w = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 3;
    let pcfg = PartitionConfig {
        k: 3,
        method: PartitionMethod::CoverTree { ratio: 0.1 },
        pretrain_epochs: 1,
        beta: 0.1,
    };

    // inert until armed
    let _ = fit_partitioned(&ds, &w, &cfg, &pcfg);
    assert!(setup_spans().is_empty());

    selnet_obs::trace::global().enable(1024);
    let (mut model, report) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    let spans = setup_spans();
    let kinds: Vec<&str> = spans.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, SETUP_KINDS);
    let [build, label, pretrain, joint] = &spans[..] else {
        unreachable!("four spans")
    };
    // a = workers engaged (a 300-point tree builds inline, a small
    // labelling pass stays on the caller), b = subtree jobs / queries;
    // the build's words carry the ball store above bit 32: balls stored,
    // covered balls left out
    let low = |word: u64| word & 0xffff_ffff;
    assert_eq!(low(build.a), 1);
    assert!(
        low(build.b) > 0 && low(build.b) < ds.len() as u64,
        "{build:?}"
    );
    let stored: usize = model.partitioning().region_counts().iter().sum();
    assert_eq!(build.a >> 32, stored as u64);
    assert!(
        build.b >> 32 > 0,
        "no region ball of 300 clustered points covered: {build:?}"
    );
    assert!(
        (stored as u64 + (build.b >> 32)) <= ds.len() as u64,
        "{build:?}"
    );
    assert_eq!((label.a, label.b), (1, w.train.len() as u64));
    // a = epochs run, b = threads a step fans out over
    assert_eq!(pretrain.a, 1);
    assert!((1..=4).contains(&pretrain.b), "{pretrain:?}");
    assert_eq!((joint.a, joint.b), (2, 1));
    assert_eq!(report.epoch_val_mae.len(), 3);
    // the phases follow one another inside the fit
    assert!(build.start_ns + build.dur_ns <= label.start_ns);
    assert!(pretrain.start_ns + pretrain.dur_ns <= joint.start_ns);

    // a forced retrain relabels and runs the joint phase only
    selnet_obs::trace::global().enable(1024);
    let policy = UpdatePolicy {
        mae_tolerance: -1.0,
        patience: 1,
        max_epochs: 2,
    };
    model.check_and_update(&ds, w.kind, &w.train, &w.valid, &policy);
    let kinds: Vec<&str> = setup_spans().iter().map(|s| s.kind).collect();
    assert_eq!(kinds, ["label_partitions", "joint_phase"]);
    selnet_obs::trace::global().disable();
}
