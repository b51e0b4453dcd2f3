//! Criterion benchmark for Table 7's subject: single-query estimation
//! latency of every model family, measured on small pre-trained models so
//! `cargo bench` completes quickly. `repro timing` produces the
//! paper-style table at full scale.

use criterion::{criterion_group, criterion_main, Criterion};
use selnet_bench::harness::{build_setting, train_model, ModelKind, Scale, Setting};
use std::hint::black_box;

fn bench_estimation(c: &mut Criterion) {
    let scale = Scale {
        n: 2000,
        dim: 12,
        clusters: 6,
        queries: 60,
        w: 8,
        epochs: 3,
        ..Scale::default()
    };
    let (ds, w) = build_setting(Setting::FaceCos, &scale);
    let q = w.test[0].x.clone();
    let t = w.test[0].thresholds[w.test[0].thresholds.len() / 2];

    let mut group = c.benchmark_group("estimate_single");
    group.sample_size(20);
    for kind in [
        ModelKind::Lsh,
        ModelKind::Kde,
        ModelKind::LightGbm,
        ModelKind::Dnn,
        ModelKind::Moe,
        ModelKind::Rmi,
        ModelKind::Dln,
        ModelKind::Umnn,
        ModelKind::SelNetCt,
        ModelKind::SelNet,
    ] {
        let Some(model) = train_model(kind, &ds, &w, &scale) else {
            continue;
        };
        group.bench_function(model.name().to_string(), |b| {
            b.iter(|| black_box(model.estimate(black_box(&q), black_box(t))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimation);
criterion_main!(benches);
