//! Bit-identity pins of the trained baselines: for every model of the
//! paper's comparison but SelNet (`crates/core/tests/trained_pins.rs`
//! pins that one), the FNV-1a 64 of its held-out answers, through
//! `estimate_many` and `estimate`, when `harness::train_model` builds it
//! at a small scale.
//!
//! A change that keeps every trained bit leaves these hashes alone; a
//! change that moves answers updates them and says what moved. The
//! hashes hold in debug and release and at any worker count.

use selnet_bench::harness::{build_setting, train_model, ModelKind, Scale, Setting};
use selnet_eval::SelectivityEstimator;
use selnet_workload::Workload;

/// 64-bit FNV-1a of a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Over the held-out split, in query order: the `f64` bits of the
/// query's `estimate_many` answers, then of `estimate` at each threshold.
fn answers_hash(model: &dyn SelectivityEstimator, w: &Workload) -> u64 {
    fnv1a(w.test.iter().flat_map(|q| {
        let many = model.estimate_many(&q.x, &q.thresholds);
        let one = q.thresholds.iter().map(|&t| model.estimate(&q.x, t));
        many.into_iter()
            .chain(one.collect::<Vec<_>>())
            .flat_map(|e| e.to_bits().to_le_bytes())
    }))
}

fn small_scale() -> Scale {
    Scale {
        n: 600,
        dim: 6,
        clusters: 3,
        queries: 40,
        w: 6,
        epochs: 2,
        ..Scale::quick()
    }
}

/// `(name, answers hash)` of every model of `kinds` that applies to the
/// setting, in `kinds` order.
fn pinned(setting: Setting, kinds: &[ModelKind]) -> Vec<(String, u64)> {
    let scale = small_scale();
    let (ds, w) = build_setting(setting, &scale);
    kinds
        .iter()
        .filter_map(|&kind| train_model(kind, &ds, &w, &scale))
        .map(|m| (m.name().to_string(), answers_hash(m.as_ref(), &w)))
        .collect()
}

fn named(want: &[(&str, u64)]) -> Vec<(String, u64)> {
    want.iter().map(|&(n, h)| (n.to_string(), h)).collect()
}

/// Every non-SelNet model of the comparison on the Euclidean setting,
/// where LSH does not apply.
#[test]
fn baseline_answers_are_pinned() {
    let kinds: Vec<ModelKind> = ModelKind::comparison_set()
        .into_iter()
        .filter(|&k| k != ModelKind::SelNet)
        .collect();
    let got = pinned(Setting::FasttextL2, &kinds);
    let want = named(&[
        ("KDE", 0xf871ad04bfed60f9),
        ("LightGBM", 0xc2f57e099ac6adbd),
        ("LightGBM-m", 0x50a59ceac31dea65),
        ("DNN", 0xc0641c60751362fd),
        ("MoE", 0xd1cb18c803e5e5a1),
        ("RMI", 0xf3494f11afa18b01),
        ("DLN", 0x2641d530c1d5ffd5),
        ("UMNN", 0xda969498f682ace5),
    ]);
    assert_eq!(got, want, "baseline answers FNV-1a: {got:#018x?}");
}

/// LSH on the cosine setting.
#[test]
fn lsh_answers_are_pinned() {
    let got = pinned(Setting::FasttextCos, &[ModelKind::Lsh]);
    assert_eq!(
        got,
        named(&[("LSH", 0xd64dc0f5c320bb25)]),
        "LSH answers FNV-1a: {got:#018x?}"
    );
}
