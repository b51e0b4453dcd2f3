//! Fault injection around §5.4 background updates: an engine shutting
//! down while a `spawn_update` retrain is in flight must neither panic
//! nor publish a torn generation, and readers racing the publish must
//! only ever observe complete models.

use selnet_core::{PartitionedSelNet, UpdatePolicy};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig, Request, SubmitError};
use selnet_serve::registry::ModelRegistry;
use selnet_workload::{generate_workload, Workload, WorkloadConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn fixture(seed: u64) -> (Dataset, Workload, PartitionedSelNet) {
    let ds = fasttext_like(&GeneratorConfig::new(250, 4, 3, seed));
    let mut wcfg = WorkloadConfig::new(16, DistanceKind::Euclidean, seed ^ 5);
    wcfg.thresholds_per_query = 5;
    let w = generate_workload(&ds, &wcfg);
    let mut cfg = selnet_core::SelNetConfig::tiny();
    cfg.epochs = 2;
    cfg.seed = seed;
    let pcfg = selnet_core::PartitionConfig {
        k: 2,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _) = selnet_core::fit_partitioned(&ds, &w, &cfg, &pcfg);
    (ds, w, model)
}

/// A model with an internal consistency invariant (`b == a + 1`) that a
/// torn publish would break. The update deliberately passes through an
/// invariant-violating intermediate state while racing readers sample.
#[derive(Clone)]
struct Pair {
    a: u64,
    b: u64,
}

/// Readers hammering `current()` during a slow mutating update never see
/// the invariant-violating intermediate state: `spawn_update` mutates a
/// private clone and publishes it atomically only when complete.
#[test]
fn racing_readers_never_observe_a_torn_generation() {
    let registry = Arc::new(ModelRegistry::new(Pair { a: 0, b: 1 }));
    let tenant = registry.get("default").expect("default tenant");
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let tenant = Arc::clone(&tenant);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut seen = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (generation, m) = tenant.current();
                    assert_eq!(m.b, m.a + 1, "torn model at generation {generation}");
                    seen += 1;
                }
                seen
            })
        })
        .collect();
    for round in 0..5u64 {
        let before = tenant.generation();
        let handle = tenant.spawn_update(move |m: &mut Pair| {
            m.a = (round + 1) * 100;
            // the clone is now internally inconsistent; nothing published
            thread::sleep(Duration::from_millis(20));
            m.b = m.a + 1;
        });
        let ((), generation) = handle.wait();
        assert_eq!(generation, before + 1, "one publish per update");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader must not panic") > 0);
    }
    let (_, final_model) = tenant.current();
    assert_eq!(final_model.a, 500);
    assert_eq!(final_model.b, 501);
}

/// Engine shutdown racing an in-flight §5.4 retrain: the engine refuses
/// new work with a typed error (never a panic), the retrain still runs to
/// completion and publishes, and the published generation serves complete,
/// monotone answers afterwards.
#[test]
fn shutdown_racing_spawn_update_is_clean() {
    let (ds, w, model) = fixture(17);
    let tmax = model.tmax();
    let registry = Arc::new(ModelRegistry::new(model));
    let tenant = registry.get("default").expect("default tenant");
    let engine = Engine::start(Arc::clone(&registry), &EngineConfig::default());

    let x = ds.row(0).to_vec();
    let ts: Vec<f32> = (1..=5).map(|j| tmax * j as f32 / 5.0).collect();
    let before = engine
        .serve_blocking(&Request::new(x.clone()).thresholds(ts.clone()))
        .expect("engine running");
    assert_eq!(before.len(), ts.len());

    // a real check_and_update retrain, slowed so the shutdown lands inside
    let (ds_c, train_c, valid_c) = (ds.clone(), w.train.clone(), w.valid.clone());
    let policy = UpdatePolicy {
        mae_tolerance: -1.0, // force the retrain path
        patience: 2,
        max_epochs: 2,
    };
    let generation_before = tenant.generation();
    let handle = tenant.spawn_update(move |m: &mut PartitionedSelNet| {
        thread::sleep(Duration::from_millis(30));
        m.check_and_update(&ds_c, DistanceKind::Euclidean, &train_c, &valid_c, &policy)
    });

    // shut the engine down while the retrain is (very likely) in flight
    engine.shutdown();
    assert!(matches!(
        engine.submit(Request::new(x.clone()).thresholds(ts.clone())),
        Err(SubmitError::ShutDown)
    ));
    assert!(matches!(
        engine.serve_blocking(&Request::new(x.clone()).thresholds(ts.clone())),
        Err(SubmitError::ShutDown)
    ));

    // the registry outlives the engine: the update completes and publishes
    let (decision, generation) = handle.wait();
    assert!(decision.retrained(), "forced policy must retrain");
    assert_eq!(generation, generation_before + 1);
    assert_eq!(tenant.generation(), generation);

    // the published generation is complete: a fresh engine serves it with
    // monotone answers bit-identical to the model's own evaluation
    let engine2 = Engine::start(Arc::clone(&registry), &EngineConfig::default());
    let after = engine2
        .serve_blocking(&Request::new(x.clone()).thresholds(ts.clone()))
        .expect("fresh engine");
    let (_, current) = tenant.current();
    assert_eq!(after, current.estimate_many(&x, &ts));
    assert!(after.windows(2).all(|p| p[1] >= p[0]), "monotone reply");
    engine2.shutdown();
}

/// Shutdown during a *pumping* load: client threads submitting while the
/// engine dies must each end with either a served answer or a typed
/// `ShutDown`/`Overloaded` refusal — never a panic or a hang.
#[test]
fn clients_racing_shutdown_get_answers_or_typed_refusals() {
    let (ds, _, model) = fixture(23);
    let tmax = model.tmax();
    let registry = Arc::new(ModelRegistry::new(model));
    let engine = Engine::start(Arc::clone(&registry), &EngineConfig::default());
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let x = ds.row(c * 3).to_vec();
            let ts: Vec<f32> = (1..=4).map(|j| tmax * j as f32 / 4.0).collect();
            thread::spawn(move || {
                let mut served = 0usize;
                let mut refused = 0usize;
                for _ in 0..200 {
                    match engine.submit(Request::new(x.clone()).thresholds(ts.clone())) {
                        Ok(h) => match h.wait() {
                            Ok(got) => {
                                assert!(got.windows(2).all(|p| p[1] >= p[0]));
                                served += 1;
                            }
                            Err(_) => refused += 1,
                        },
                        Err(SubmitError::ShutDown) | Err(SubmitError::Overloaded { .. }) => {
                            refused += 1
                        }
                        Err(e) => panic!("unexpected refusal: {e}"),
                    }
                }
                (served, refused)
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(5));
    engine.shutdown();
    for c in clients {
        let (served, refused) = c.join().expect("client must not panic");
        assert_eq!(served + refused, 200);
    }
}
