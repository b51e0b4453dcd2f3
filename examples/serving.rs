//! Serving: snapshot a trained partitioned SelNet, serve it from a
//! concurrent batched engine, and hot-swap in a retrained model while
//! traffic is running.
//!
//! ```text
//! cargo run --release -p selnet-examples --example serving
//! ```

use selnet_core::{
    fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig, UpdatePolicy,
};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig};
use selnet_serve::registry::ModelRegistry;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::sync::Arc;

fn main() {
    // 1. train the estimator (small scale so the example runs in seconds)
    let ds = fasttext_like(&GeneratorConfig::new(2_000, 8, 4, 42));
    let wcfg = WorkloadConfig::new(80, DistanceKind::Euclidean, 1);
    let workload = generate_workload(&ds, &wcfg);
    let cfg = SelNetConfig::tiny();
    let (model, _) = fit_partitioned(&ds, &workload, &cfg, &PartitionConfig::default());
    println!(
        "trained: K = {} partitions, tmax = {:.3}",
        model.k(),
        model.tmax()
    );

    // 2. snapshot it (SELNETP1) and load it back — this is the stream a
    // trainer ships to serving hosts; predictions round-trip bit for bit
    let mut snapshot = Vec::new();
    model.save(&mut snapshot).expect("snapshot");
    println!("snapshot: {} bytes", snapshot.len());
    let served = PartitionedSelNet::load(&mut snapshot.as_slice()).expect("load snapshot");

    // 3. serve it: a hot-swappable registry + the batched engine
    let registry = Arc::new(ModelRegistry::new(served));
    let engine = Engine::start(
        Arc::clone(&registry),
        &EngineConfig {
            max_batch_rows: 64,
            ..Default::default()
        },
    );

    // 4. concurrent clients — the engine coalesces their queries into
    // shared batch evaluations; answers are bit-identical to sequential
    let tmax = model.tmax();
    std::thread::scope(|scope| {
        for client in 0..4 {
            let engine = &engine;
            let ds = &ds;
            scope.spawn(move || {
                for i in 0..200 {
                    let x = ds.row((client * 211 + i * 17) % ds.len());
                    let ts: Vec<f32> = (1..=8).map(|j| tmax * j as f32 / 8.0).collect();
                    let estimates = engine.estimate_many(x, &ts);
                    // consistency: monotone in t, always
                    assert!(estimates.windows(2).all(|p| p[1] >= p[0]));
                }
            });
        }
    });
    let stats = engine.stats_snapshot();
    println!(
        "served {} concurrent requests: {} batches of {:.1} rows, p99 {} us",
        stats.requests, stats.batches, stats.mean_batch_rows, stats.p99_latency_us
    );

    // 5. hot swap: retrain off-thread (§5.4) and publish atomically —
    // the old generation keeps serving until the new one is ready
    let policy = UpdatePolicy::default();
    let kind = workload.kind;
    let (train, valid) = (workload.train.clone(), workload.valid.clone());
    let handle = registry.spawn_update(move |m: &mut PartitionedSelNet| {
        m.check_and_update(&ds, kind, &train, &valid, &policy)
    });
    let (decision, generation) = handle.wait();
    println!(
        "update: retrained = {}, now serving generation {generation}",
        decision.retrained()
    );
    engine.shutdown();
}
