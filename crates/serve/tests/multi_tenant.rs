//! Multi-tenant routing against real trained `PartitionedSelNet`s:
//! concurrent clients interleaving two tenants' traffic must get answers
//! bit-identical to each tenant's model served alone, and hot-swapping
//! one tenant mid-traffic must not perturb the other tenant by a single
//! bit (or bump its generation).

use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig, Request};
use selnet_serve::registry::ModelRegistry;
use selnet_workload::{generate_workload, Workload, WorkloadConfig};
use std::sync::Arc;

fn data_fixture(seed: u64) -> (Dataset, Workload) {
    let ds = fasttext_like(&GeneratorConfig::new(300, 4, 3, seed));
    let mut wcfg = WorkloadConfig::new(18, DistanceKind::Euclidean, seed ^ 5);
    wcfg.thresholds_per_query = 6;
    let w = generate_workload(&ds, &wcfg);
    (ds, w)
}

fn train(ds: &Dataset, w: &Workload, model_seed: u64, epochs: usize) -> PartitionedSelNet {
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = epochs;
    cfg.seed = model_seed;
    let pcfg = PartitionConfig {
        k: 2,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _) = fit_partitioned(ds, w, &cfg, &pcfg);
    model
}

fn query_pool(ds: &Dataset, tmax: f32, n: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
    (0..n)
        .map(|i| {
            let x = ds.row(i % ds.len()).to_vec();
            let m = 3 + i % 5;
            let ts: Vec<f32> = (1..=m).map(|j| tmax * 1.1 * j as f32 / m as f32).collect();
            (x, ts)
        })
        .collect()
}

fn req(model: &str, x: &[f32], ts: &[f32]) -> Request {
    Request::new(x.to_vec())
        .thresholds(ts.to_vec())
        .model(model)
}

/// Concurrent clients interleaving two tenants' queries — blocking calls
/// mixed with pipelined submit bursts — must produce, per request, exactly
/// what the routed tenant's model computes alone with `estimate_many`.
/// Coalescing batches the tenants' rows through the same queues; the
/// grouping by tenant inside each drained batch must keep the answers
/// bit-identical per tenant.
#[test]
fn concurrent_two_tenant_traffic_is_bit_identical_per_tenant() {
    let (ds, w) = data_fixture(71);
    let model_a = train(&ds, &w, 71, 2);
    let model_b = train(&ds, &w, 172, 3);
    let pool = query_pool(&ds, model_a.tmax(), 32);
    let expected_a: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model_a.estimate_many(x, ts))
        .collect();
    let expected_b: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model_b.estimate_many(x, ts))
        .collect();
    assert!(
        expected_a != expected_b,
        "fixture models must differ for routing mistakes to be visible"
    );

    let registry = Arc::new(ModelRegistry::empty());
    registry.register("alpha", model_a).unwrap();
    registry.register("beta", model_b).unwrap();
    let engine = Engine::start(
        registry,
        &EngineConfig {
            workers: 3,
            shards: 2,
            max_batch_rows: 16,
            cache_entries: 32,
            auto_batch_min_rows: 2,
            max_queue_rows: 0,
            slow_query_us: 0,
            trace_buffer: 0,
            replay_threads: 1,
        },
    );
    let clients = 4;
    let rounds = 3;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let engine = &engine;
            let pool = &pool;
            let expected_a = &expected_a;
            let expected_b = &expected_b;
            scope.spawn(move || {
                for r in 0..rounds {
                    let mut burst: Vec<(usize, &str, _)> = Vec::new();
                    for i in 0..pool.len() {
                        let idx = (i + c * 7 + r * 13) % pool.len();
                        let (x, ts) = &pool[idx];
                        // tenant choice and serving path both vary with
                        // client and position, so each drained batch mixes
                        // tenants and the blocking/pipelined paths race
                        let (name, expected) = if (idx + c).is_multiple_of(2) {
                            ("alpha", expected_a)
                        } else {
                            ("beta", expected_b)
                        };
                        if (i + c) % 2 == 0 {
                            let got = engine
                                .serve_blocking(&req(name, x, ts))
                                .expect("engine running");
                            assert_eq!(
                                got, expected[idx],
                                "client {c} round {r} query {idx}: blocking answer for \
                                 tenant {name} differs from its model served alone"
                            );
                        } else {
                            let handle = engine.submit(req(name, x, ts)).expect("engine running");
                            burst.push((idx, name, handle));
                            if burst.len() >= 8 {
                                for (idx, name, handle) in burst.drain(..) {
                                    let expected = if name == "alpha" {
                                        expected_a
                                    } else {
                                        expected_b
                                    };
                                    assert_eq!(
                                        handle.wait().expect("served"),
                                        expected[idx],
                                        "client {c} round {r} query {idx}: pipelined answer \
                                         for tenant {name} differs from its model served alone"
                                    );
                                }
                            }
                        }
                    }
                    for (idx, name, handle) in burst {
                        let expected = if name == "alpha" {
                            expected_a
                        } else {
                            expected_b
                        };
                        assert_eq!(handle.wait().expect("served"), expected[idx]);
                    }
                }
            });
        }
    });
    // both tenants saw traffic, and the fleet counters are the sum
    let per_tenant = engine.tenant_stats();
    assert_eq!(per_tenant.len(), 2);
    let tenant_requests: u64 = per_tenant.iter().map(|t| t.stats.requests).sum();
    assert_eq!(tenant_requests, (clients * rounds * pool.len()) as u64);
    assert_eq!(engine.stats().snapshot().requests, tenant_requests);
    for t in &per_tenant {
        assert!(
            t.stats.requests > 0,
            "tenant {} must have served traffic",
            t.name
        );
    }
    engine.shutdown();
}

/// `replay_threads > 1` (row-chunked parallel replay inside each drained
/// batch) must be invisible in the answers: under concurrent multi-tenant
/// traffic, every reply is bit-identical to the routed tenant's model
/// served alone single-threaded. Large coalesced batches plus a tiny
/// worker count make the chunked path actually engage, and a serial
/// control engine double-checks the equivalence end to end.
#[test]
fn parallel_replay_serves_bit_identical_answers_under_multi_tenant_traffic() {
    let (ds, w) = data_fixture(77);
    let model_a = train(&ds, &w, 77, 2);
    let model_b = train(&ds, &w, 178, 3);
    let pool = query_pool(&ds, model_a.tmax(), 24);
    let expected_a: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model_a.estimate_many(x, ts))
        .collect();
    let expected_b: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model_b.estimate_many(x, ts))
        .collect();

    let mk_engine = |replay_threads: usize| {
        let registry = Arc::new(ModelRegistry::empty());
        registry.register("alpha", model_a.clone()).unwrap();
        registry.register("beta", model_b.clone()).unwrap();
        Engine::start(
            registry,
            &EngineConfig {
                // one worker + deep batches: drained batches are large, so
                // the replay fan-out is the only parallelism in play
                workers: 1,
                shards: 1,
                max_batch_rows: 128,
                cache_entries: 0,
                auto_batch_min_rows: 0,
                max_queue_rows: 0,
                slow_query_us: 0,
                trace_buffer: 0,
                replay_threads,
            },
        )
    };

    for replay_threads in [2usize, 4] {
        let engine = mk_engine(replay_threads);
        std::thread::scope(|scope| {
            for c in 0..3usize {
                let engine = &engine;
                let pool = &pool;
                let expected_a = &expected_a;
                let expected_b = &expected_b;
                scope.spawn(move || {
                    // pipelined bursts keep the queue deep so coalesced
                    // batches span many requests and both tenants
                    let handles: Vec<(usize, &str, _)> = (0..pool.len())
                        .map(|i| {
                            let idx = (i + c * 11) % pool.len();
                            let (x, ts) = &pool[idx];
                            let name = if (idx + c).is_multiple_of(2) {
                                "alpha"
                            } else {
                                "beta"
                            };
                            (idx, name, engine.submit(req(name, x, ts)).expect("running"))
                        })
                        .collect();
                    for (idx, name, handle) in handles {
                        let expected = if name == "alpha" {
                            &expected_a[idx]
                        } else {
                            &expected_b[idx]
                        };
                        assert_eq!(
                            &handle.wait().expect("served"),
                            expected,
                            "client {c} query {idx}: replay_threads={replay_threads} answer \
                             for tenant {name} differs from its model served alone"
                        );
                    }
                });
            }
        });
        engine.shutdown();
    }
}

/// Hot-swapping one tenant mid-traffic must leave the other tenant
/// untouched: its answers stay bit-identical to its pinned ground truth
/// the whole time, and its generation never moves. The swapped tenant's
/// answers must always equal exactly one of its generations (no tearing),
/// exactly as in the single-tenant guarantee.
#[test]
fn hot_swapping_one_tenant_never_perturbs_the_other() {
    let (ds, w) = data_fixture(73);
    let hot_v0 = train(&ds, &w, 73, 2);
    let hot_v1 = train(&ds, &w, 174, 3);
    let cold = train(&ds, &w, 99, 2);
    let pool = query_pool(&ds, hot_v0.tmax(), 20);
    let hot_answers_v0: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| hot_v0.estimate_many(x, ts))
        .collect();
    let hot_answers_v1: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| hot_v1.estimate_many(x, ts))
        .collect();
    let cold_answers: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| cold.estimate_many(x, ts))
        .collect();
    assert!(hot_answers_v0 != hot_answers_v1);

    let registry = Arc::new(ModelRegistry::empty());
    registry.register("hot", hot_v0.clone()).unwrap();
    registry.register("cold", cold).unwrap();
    let hot_tenant = registry.get("hot").unwrap();
    let engine = Engine::start(
        Arc::clone(&registry),
        &EngineConfig {
            workers: 3,
            shards: 2,
            max_batch_rows: 16,
            cache_entries: 16,
            auto_batch_min_rows: 0,
            max_queue_rows: 0,
            slow_query_us: 0,
            trace_buffer: 0,
            replay_threads: 1,
        },
    );
    std::thread::scope(|scope| {
        let swapper = {
            let hot_tenant = Arc::clone(&hot_tenant);
            let hot_v0 = hot_v0.clone();
            let hot_v1 = hot_v1.clone();
            scope.spawn(move || {
                for i in 0..30 {
                    let next = if i % 2 == 0 {
                        hot_v1.clone()
                    } else {
                        hot_v0.clone()
                    };
                    hot_tenant.publish(next);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        };
        for c in 0..4 {
            let engine = &engine;
            let pool = &pool;
            let hot_answers_v0 = &hot_answers_v0;
            let hot_answers_v1 = &hot_answers_v1;
            let cold_answers = &cold_answers;
            scope.spawn(move || {
                for r in 0..8 {
                    for i in 0..pool.len() {
                        let idx = (i + c * 5 + r) % pool.len();
                        let (x, ts) = &pool[idx];
                        // the cold tenant: pinned truth, every time
                        let got = engine
                            .serve_blocking(&req("cold", x, ts))
                            .expect("engine running");
                        assert_eq!(
                            got, cold_answers[idx],
                            "query {idx}: swapping tenant \"hot\" perturbed tenant \"cold\""
                        );
                        // the hot tenant: exactly one of its generations
                        let got = engine
                            .serve_blocking(&req("hot", x, ts))
                            .expect("engine running");
                        assert!(
                            got == hot_answers_v0[idx] || got == hot_answers_v1[idx],
                            "query {idx}: hot-tenant response mixes generations: {got:?}"
                        );
                    }
                }
            });
        }
        swapper.join().expect("swapper panicked");
    });
    // the hot tenant's generation advanced with every publish; the cold
    // tenant's never moved
    assert_eq!(hot_tenant.generation(), 30);
    assert_eq!(registry.get("cold").unwrap().generation(), 0);
    engine.shutdown();
}

/// The observability structural contract: tracing, the metrics registry,
/// and the slow-query log must not perturb served answers by a single
/// bit. Two engines over clones of the same model — one with every
/// observability knob on, one with everything off — must answer an
/// identical mixed blocking/pipelined workload bit-identically, while
/// the instrumented engine actually records spans and slow queries
/// (so the test can't pass by instrumentation silently being off).
#[test]
fn observability_on_and_off_serve_bit_identical_answers() {
    let (ds, w) = data_fixture(83);
    let model = train(&ds, &w, 83, 2);
    let pool = query_pool(&ds, model.tmax(), 24);

    let start = |slow_query_us: u64, trace_buffer: usize| {
        Engine::start(
            Arc::new(ModelRegistry::new(model.clone())),
            &EngineConfig {
                workers: 2,
                shards: 2,
                max_batch_rows: 16,
                cache_entries: 32,
                auto_batch_min_rows: 0,
                max_queue_rows: 0,
                slow_query_us,
                trace_buffer,
                replay_threads: 1,
            },
        )
    };
    // every request on the instrumented engine is "slow" at a 1µs bar,
    // so the slow path (log push + counter) runs on every reply
    let traced = start(1, 512);
    let plain = start(0, 0);

    let serve_all = |engine: &Arc<Engine<PartitionedSelNet>>| -> Vec<Vec<f64>> {
        let mut answers = Vec::with_capacity(pool.len());
        let mut handles = Vec::new();
        for (i, (x, ts)) in pool.iter().enumerate() {
            let request = Request::new(x.clone()).thresholds(ts.clone());
            if i % 2 == 0 {
                answers.push((i, engine.serve_blocking(&request).expect("served")));
            } else {
                handles.push((i, engine.submit(request).expect("submitted")));
            }
        }
        for (i, handle) in handles {
            answers.push((i, handle.wait().expect("served")));
        }
        answers.sort_by_key(|(i, _)| *i);
        answers.into_iter().map(|(_, v)| v).collect()
    };

    let traced_answers = serve_all(&traced);
    let plain_answers = serve_all(&plain);
    assert_eq!(
        traced_answers, plain_answers,
        "observability perturbed served bits"
    );

    // the instrumented engine really was instrumented...
    assert!(
        !traced.spans().is_empty(),
        "trace_buffer=512 engine recorded no spans"
    );
    assert_eq!(
        traced.slow_queries().len().min(pool.len()),
        traced
            .stats()
            .snapshot()
            .slow_requests
            .min(pool.len() as u64) as usize,
        "slow-query log and counter disagree"
    );
    assert!(
        traced.stats().snapshot().slow_requests >= pool.len() as u64,
        "a 1µs threshold must flag every request as slow"
    );
    // ...and the plain engine really was inert
    assert!(plain.spans().is_empty());
    assert!(plain.slow_queries().is_empty());
    assert_eq!(plain.stats().snapshot().slow_requests, 0);

    traced.shutdown();
    plain.shutdown();
}
