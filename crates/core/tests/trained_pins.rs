//! Bit-identity pins of trained models: the FNV-1a 64 of the saved
//! `SELNETP1` bytes and of the answers, for the benchmark's `paper`
//! fixture configuration (restated here) and for a `SelNetConfig::tiny()`
//! fixture, plus three §5.4 generations of the tiny one.
//!
//! A change that keeps every trained bit leaves these hashes alone; a
//! change that moves answers updates them and says what moved. Release
//! only: the paper fixture trains in seconds on optimized code. The
//! hashes hold at any worker count (`*_training_is_deterministic`).

use selnet_core::{
    fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig, UpdatePolicy,
};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_index::PartitionMethod;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, UpdateSimulator, Workload, WorkloadConfig};

/// 64-bit FNV-1a of a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

fn snapshot_hash(model: &PartitionedSelNet) -> u64 {
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("save to memory");
    fnv1a(bytes)
}

/// `estimate_many` over the held-out split, every estimate's `f64` bits
/// in query order.
fn answers_hash(model: &PartitionedSelNet, w: &Workload) -> u64 {
    fnv1a(w.test.iter().flat_map(|q| {
        model
            .estimate_many(&q.x, &q.thresholds)
            .into_iter()
            .flat_map(|e| e.to_bits().to_le_bytes())
    }))
}

/// The benchmark's `paper` fixture: 50 000 × 300 fasttext-like records
/// (16 clusters, data seed 7), 300 Euclidean queries of 20 thresholds
/// (label seed 8), the default widths trained 3 epochs after 2 of
/// autoencoder pre-training, three cover-tree parts pre-trained 1 epoch.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_fixture_model_and_answers_are_pinned() {
    let ds = fasttext_like(&GeneratorConfig::new(50_000, 300, 16, 7));
    let mut wcfg = WorkloadConfig::new(300, DistanceKind::Euclidean, 8);
    wcfg.thresholds_per_query = 20;
    let w = generate_workload(&ds, &wcfg);
    let cfg = SelNetConfig {
        epochs: 3,
        ae_pretrain_epochs: 2,
        ..SelNetConfig::default()
    };
    let pcfg = PartitionConfig {
        k: 3,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    let got = (snapshot_hash(&model), answers_hash(&model, &w));
    assert_eq!(
        got,
        (0x04aba2e4711837b7, 0x5aa8eefa595bb066),
        "paper fixture: (snapshot, answers) FNV-1a = ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

fn tiny_fixture() -> (Dataset, Workload) {
    let ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, 41));
    let mut wcfg = WorkloadConfig::new(24, DistanceKind::Euclidean, 40);
    wcfg.thresholds_per_query = 8;
    let w = generate_workload(&ds, &wcfg);
    (ds, w)
}

/// `SelNetConfig::tiny()` on three cover-tree parts, then three §5.4
/// generations: each applies four update operations of the paper's
/// stream (five records each, labels kept exact) and a forced retrain.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn tiny_fixture_model_answers_and_generations_are_pinned() {
    let (mut ds, mut w) = tiny_fixture();
    let cfg = SelNetConfig {
        epochs: 4,
        ..SelNetConfig::tiny()
    };
    let pcfg = PartitionConfig {
        k: 3,
        method: PartitionMethod::CoverTree { ratio: 0.1 },
        pretrain_epochs: 2,
        beta: 0.1,
    };
    let (mut model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    let mut got = vec![snapshot_hash(&model), answers_hash(&model, &w)];
    let always_retrain = UpdatePolicy {
        mae_tolerance: -1.0,
        patience: 2,
        max_epochs: 2,
    };
    let mut stream = UpdateSimulator::new(42);
    for _ in 0..3 {
        for _ in 0..4 {
            stream.step(
                &mut ds,
                &mut [&mut w.train, &mut w.valid, &mut w.test],
                w.kind,
            );
        }
        let decision = model.check_and_update(&ds, w.kind, &w.train, &w.valid, &always_retrain);
        assert!(decision.retrained());
        got.push(snapshot_hash(&model));
    }
    // the fit's snapshot and answers, then each generation's snapshot
    let want = [
        0x36fbb4381692c440,
        0x8a14b1bc4ab157d5,
        0xc93af69d29c8754a,
        0xe931ef025b1a3620,
        0x8e45bc4aac75aaa1,
    ];
    assert_eq!(got, want, "tiny fixture FNV-1a: {got:#018x?}");
}
