//! Integration tests of the serving subsystem against a real trained
//! `PartitionedSelNet`: snapshot round-trips feeding the engine,
//! concurrent clients getting bit-identical answers, and hot swaps never
//! tearing a response.

use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig, Request};
use selnet_serve::registry::ModelRegistry;
use selnet_workload::{
    generate_workload, DriftSchedule, UpdateSimulator, Workload, WorkloadConfig,
};
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

fn fixture(seed: u64, epochs: usize) -> (Dataset, Workload, PartitionedSelNet) {
    let (ds, w) = data_fixture(seed);
    let model = train(&ds, &w, seed, epochs);
    (ds, w, model)
}

/// The query pool every client draws from: `(x, ascending thresholds)`.
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

/// N client threads x M queries against the engine must produce results
/// **bit-identical** to a single-threaded `estimate_many` pass over the
/// same model — coalescing, sharding and stealing change nothing about
/// any answer.
#[test]
fn concurrent_serving_is_bit_identical_to_sequential() {
    let (ds, _, model) = fixture(91, 3);
    let pool = query_pool(&ds, model.tmax(), 40);
    // single-threaded ground truth straight from the model
    let expected: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model.estimate_many(x, ts))
        .collect();

    let engine = Engine::start(
        Arc::new(ModelRegistry::new(model)),
        &EngineConfig {
            workers: 4,
            max_batch_rows: 16,
            // workers drain up to max_batch_rows from their own shard,
            // stealing when idle: none of it may change a single answer
            ..Default::default()
        },
    );
    let clients = 6;
    let rounds = 3;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let engine = &engine;
            let pool = &pool;
            let expected = &expected;
            scope.spawn(move || {
                // each client walks the pool from its own offset so the
                // queue interleaving differs per thread; traffic mixes the
                // blocking path (which may serve inline when queues are
                // idle) with pipelined submit bursts (which always queue
                // and therefore coalesce)
                for r in 0..rounds {
                    let mut burst: Vec<(usize, _)> = Vec::new();
                    for i in 0..pool.len() {
                        let idx = (i + c * 7 + r * 13) % pool.len();
                        let (x, ts) = &pool[idx];
                        if (i + c) % 2 == 0 {
                            let got = engine.estimate_many(x, ts);
                            assert_eq!(
                                got, expected[idx],
                                "client {c} round {r} query {idx}: blocking concurrent \
                                 result differs from sequential estimate_many"
                            );
                        } else {
                            let handle = engine
                                .submit(Request::new(x.clone()).thresholds(ts.clone()))
                                .expect("engine running");
                            burst.push((idx, handle));
                            if burst.len() >= 8 {
                                for (idx, handle) in burst.drain(..) {
                                    assert_eq!(
                                        handle.wait().expect("served"),
                                        expected[idx],
                                        "client {c} round {r} query {idx}: queued \
                                         concurrent result differs from sequential"
                                    );
                                }
                            }
                        }
                    }
                    for (idx, handle) in burst {
                        assert_eq!(handle.wait().expect("served"), expected[idx]);
                    }
                }
            });
        }
    });
    let stats = engine.stats_snapshot();
    assert_eq!(stats.requests, (clients * rounds * pool.len()) as u64);
    assert!(
        stats.mean_batch_rows > 1.0,
        "pipelined submit bursts must produce coalesced batches, got {}",
        stats.mean_batch_rows
    );
    engine.shutdown();
}

/// Hot swap mid-traffic: responses must never tear. Every response served
/// while generations alternate must (a) exactly match one model's answer
/// — never a mixture — and therefore (b) be monotone non-decreasing in
/// the ascending threshold grid (Lemma 1 holds per model).
#[test]
fn hot_swap_mid_traffic_never_tears_a_response() {
    let (ds, w) = data_fixture(92);
    let model_a = train(&ds, &w, 92, 2);
    let model_b = train(&ds, &w, 193, 3); // different init: different weights
    let pool = query_pool(&ds, model_a.tmax(), 24);
    let answers_a: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model_a.estimate_many(x, ts))
        .collect();
    let answers_b: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model_b.estimate_many(x, ts))
        .collect();
    // the test only bites if the models actually disagree somewhere
    assert!(
        answers_a != answers_b,
        "fixture models must differ for the tear check to mean anything"
    );

    let registry = Arc::new(ModelRegistry::new(model_a.clone()));
    let engine = Engine::start(
        Arc::clone(&registry),
        &EngineConfig {
            workers: 3,
            max_batch_rows: 16,
            ..Default::default()
        },
    );
    std::thread::scope(|scope| {
        // swapper: alternate generations while traffic runs
        let swapper = {
            let registry = Arc::clone(&registry);
            let model_a = model_a.clone();
            let model_b = model_b.clone();
            scope.spawn(move || {
                for i in 0..30 {
                    let next = if i % 2 == 0 {
                        model_b.clone()
                    } else {
                        model_a.clone()
                    };
                    registry.publish(next);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        };
        for c in 0..4 {
            let engine = &engine;
            let pool = &pool;
            let answers_a = &answers_a;
            let answers_b = &answers_b;
            scope.spawn(move || {
                for r in 0..8 {
                    for i in 0..pool.len() {
                        let idx = (i + c * 5 + r) % pool.len();
                        let (x, ts) = &pool[idx];
                        let got = engine.estimate_many(x, ts);
                        // untorn: exactly one generation's answer
                        assert!(
                            got == answers_a[idx] || got == answers_b[idx],
                            "query {idx}: response mixes generations: {got:?}"
                        );
                        // monotone in the ascending grid
                        for pair in got.windows(2) {
                            assert!(
                                pair[1] >= pair[0],
                                "query {idx}: non-monotone response {got:?}"
                            );
                        }
                    }
                }
            });
        }
        swapper.join().expect("swapper panicked");
    });
    engine.shutdown();
}

/// Plan-cache invalidation under hot swap: with compiled inference plans
/// now backing every prediction path, a hot swap mid-traffic must still
/// produce **exactly-one-generation** answers — each response equals one
/// model's (plan-backed) output bit for bit, never a mixture of a stale
/// plan and fresh parameters — and stays monotone in an ascending
/// threshold grid. This drives a real §5.4 `spawn_update` retrain (which
/// mutates a clone's `ParamStore`, exercising the version-keyed recompile)
/// on drifted data while clients hammer the engine.
#[test]
fn plans_stay_generation_consistent_across_retrain_swap() {
    let (mut ds, w) = data_fixture(97);
    let model = train(&ds, &w, 97, 2);
    let tmax = model.tmax();
    let pool = query_pool(&ds, tmax, 16);
    // pre-swap truth from the plan path AND the tape path (they must agree
    // before we can attribute any served answer to a generation)
    let answers_old: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model.predict_many(x, ts))
        .collect();
    for ((x, ts), expected) in pool.iter().zip(&answers_old) {
        assert_eq!(
            &model.tape_predict_many(x, ts),
            expected,
            "plan path must equal tape path before serving"
        );
    }

    let registry = Arc::new(ModelRegistry::new(model));
    let engine = Engine::start(
        Arc::clone(&registry),
        &EngineConfig {
            workers: 3,
            max_batch_rows: 16,
            ..Default::default()
        },
    );
    // drift the database first: a dozen ops of an adversarial shell around
    // a pool query, the labels kept exact, so the retrain (K = 2) refreshes
    // partition assignments over records the model was never built on
    let (mut train_split, mut valid_split, kind) = (w.train.clone(), w.valid.clone(), w.kind);
    let shell = DriftSchedule::adversarial(pool[0].0.clone(), 0.3 * tmax, 0.9 * tmax, 6);
    let mut sim = UpdateSimulator::new(97);
    for op in 0..12 {
        let mut splits = [&mut train_split[..], &mut valid_split[..]];
        sim.step_drifted(&mut ds, &mut splits, kind, &shell.at(op));
    }
    // retrain a clone off-thread (negative tolerance: always retrains) and
    // publish it while traffic runs
    let policy = selnet_core::UpdatePolicy {
        mae_tolerance: -1.0,
        patience: 1,
        max_epochs: 2,
    };
    let handle = registry.spawn_update(move |m: &mut PartitionedSelNet| {
        m.check_and_update(&ds, kind, &train_split, &valid_split, &policy)
    });
    std::thread::scope(|scope| {
        for c in 0..4 {
            let engine = &engine;
            let pool = &pool;
            let answers_old = &answers_old;
            let registry = &registry;
            scope.spawn(move || {
                for r in 0..6 {
                    for i in 0..pool.len() {
                        let idx = (i + c * 3 + r) % pool.len();
                        let (x, ts) = &pool[idx];
                        let got = engine.estimate_many(x, ts);
                        // every answer is one complete generation's output:
                        // either the pre-swap model's pinned answers, or
                        // whatever the currently-published model computes
                        // (compared via its own plan path)
                        if got != answers_old[idx] {
                            let (_, current) = registry.current();
                            let fresh = current.predict_many(x, ts);
                            assert_eq!(
                                got, fresh,
                                "query {idx}: response matches neither the old generation \
                                 nor the current one — a stale plan leaked across a swap"
                            );
                        }
                        for pair in got.windows(2) {
                            assert!(
                                pair[1] >= pair[0],
                                "query {idx}: non-monotone response {got:?}"
                            );
                        }
                    }
                }
            });
        }
    });
    let (decision, generation) = handle.wait();
    assert!(decision.retrained(), "negative tolerance must retrain");
    assert_eq!(generation, 1);
    // after the swap: served answers equal the new model's plan path,
    // which in turn equals its tape path (version-keyed recompile worked)
    let (_, current) = registry.current();
    for (x, ts) in &pool {
        let served = engine.estimate_many(x, ts);
        assert_eq!(served, current.predict_many(x, ts));
        assert_eq!(served, current.tape_predict_many(x, ts));
    }
    engine.shutdown();
}

/// Background `spawn_update` retraining: the old generation keeps serving
/// during the retrain, and the published generation serves afterwards.
#[test]
fn background_update_publishes_without_blocking_serving() {
    let (ds, w, model) = fixture(93, 2);
    let pool = query_pool(&ds, model.tmax(), 8);
    let before: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model.estimate_many(x, ts))
        .collect();

    let registry = Arc::new(ModelRegistry::new(model));
    let engine = Engine::start(Arc::clone(&registry), &EngineConfig::default());
    // negative tolerance: even zero drift retrains
    let policy = selnet_core::UpdatePolicy {
        mae_tolerance: -1.0,
        patience: 1,
        max_epochs: 2,
    };
    let train = w.train.clone();
    let valid = w.valid.clone();
    let kind = w.kind;
    let handle = registry.spawn_update(move |m: &mut PartitionedSelNet| {
        m.check_and_update(&ds, kind, &train, &valid, &policy)
    });
    // keep serving while the retrain runs; every response is from a
    // complete generation, so it's monotone either way
    while !handle.is_finished() {
        for (x, ts) in &pool {
            let got = engine.estimate_many(x, ts);
            for pair in got.windows(2) {
                assert!(pair[1] >= pair[0], "non-monotone during retrain: {got:?}");
            }
        }
    }
    let (decision, generation) = handle.wait();
    assert!(decision.retrained(), "negative tolerance must retrain");
    assert_eq!(generation, 1);
    assert_eq!(engine.registry().generation(), 1);
    // the new generation serves; answers come from one model and differ
    // from the old generation somewhere (weights moved)
    let after: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| engine.estimate_many(x, ts))
        .collect();
    let direct: Vec<Vec<f64>> = {
        let (_, m) = engine.registry().current();
        pool.iter().map(|(x, ts)| m.estimate_many(x, ts)).collect()
    };
    assert_eq!(after, direct, "served answers must match the new model");
    // restore semantics mean the retrain may keep the old weights if no
    // epoch improved; either way the served answers must stay monotone
    for got in &after {
        for pair in got.windows(2) {
            assert!(pair[1] >= pair[0], "non-monotone after publish: {got:?}");
        }
    }
    let _ = before;
    engine.shutdown();
}

/// The engine evaluates a model at two sites, both through the one
/// `estimate_into` hook on un-expanded requests: a multi-threshold request
/// answered by a worker (pipelined `submit`, coalesced with its
/// neighbours) equals the same request answered inline (blocking caller
/// on an idle engine), bit for bit — and both equal the tape oracle.
#[test]
fn worker_and_inline_answers_are_bit_identical() {
    let (ds, _, model) = fixture(95, 2);
    let tmax = model.tmax();
    let pool: Vec<(Vec<f32>, Vec<f32>)> = (0..12)
        .map(|i| {
            let ts = (0..40).map(|j| tmax * (j as f32 / 32.0 - 0.1)).collect();
            (ds.row(i * 7).to_vec(), ts)
        })
        .collect();
    let tape: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model.tape_predict_many(x, ts))
        .collect();
    let engine = Engine::start(
        Arc::new(ModelRegistry::new(model)),
        &EngineConfig {
            workers: 2,
            max_batch_rows: 256,
            ..Default::default()
        },
    );
    let inline: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| engine.estimate_many(x, ts))
        .collect();
    let stats = engine.stats_snapshot();
    assert_eq!(
        stats.inline_requests,
        pool.len() as u64,
        "idle engine serves inline"
    );
    let handles: Vec<_> = pool
        .iter()
        .map(|(x, ts)| {
            engine
                .submit(Request::new(x.clone()).thresholds(ts.clone()))
                .expect("engine running")
        })
        .collect();
    let queued: Vec<Vec<f64>> = handles
        .into_iter()
        .map(|h| h.wait().expect("served"))
        .collect();
    assert!(
        engine.stats_snapshot().batches > stats.batches,
        "workers served the burst"
    );
    assert_eq!(queued, inline);
    assert_eq!(queued, tape);
    engine.shutdown();
}
