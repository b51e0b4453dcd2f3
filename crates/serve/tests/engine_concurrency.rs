//! Integration tests of the serving subsystem against a real trained
//! `PartitionedSelNet`: snapshot round-trips feeding the engine,
//! concurrent clients getting bit-identical answers, and hot swaps never
//! tearing a response.

use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::{per_pair, SelectivityEstimator};
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig, Request};
use selnet_serve::registry::ModelRegistry;
use selnet_tensor::parallel;
use selnet_workload::{
    generate_workload, DriftSchedule, UpdateSimulator, Workload, WorkloadConfig,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

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

/// The tape reference's answers to one `(x, ts)` query.
fn tape_answers(model: &PartitionedSelNet, x: &[f32], ts: &[f32]) -> Vec<f64> {
    let mut out = Vec::new();
    model.tape_estimate_into(&[(x, ts)], &mut out);
    out
}

fn fixture(seed: u64, epochs: usize) -> (Dataset, Workload, PartitionedSelNet) {
    let (ds, w) = data_fixture(seed);
    let model = train(&ds, &w, seed, epochs);
    (ds, w, model)
}

/// One blocking request for the default tenant, answered through the
/// engine's queue.
fn serve<M>(engine: &Engine<M>, x: &[f32], ts: &[f32]) -> Vec<f64>
where
    M: SelectivityEstimator + Send + Sync + 'static,
{
    engine
        .serve_blocking(&Request::new(x.to_vec()).thresholds(ts.to_vec()))
        .expect("engine running")
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
/// same model — coalescing and the workers' interleaving change nothing
/// about any answer.
#[test]
fn concurrent_serving_is_bit_identical_to_sequential() {
    let (ds, _, model) = fixture(91, 3);
    let pool = query_pool(&ds, model.tmax(), 40);
    // single-threaded ground truth straight from the model
    let expected: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model.estimate_many(x, ts))
        .collect();

    parallel::set_threads(4); // the engine starts one worker per thread
    let engine = Engine::start(
        Arc::new(ModelRegistry::new(model)),
        &EngineConfig::default(),
    );
    parallel::set_threads(0);
    let clients = 6;
    let rounds = 3;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let engine = &engine;
            let pool = &pool;
            let expected = &expected;
            scope.spawn(move || {
                // each client walks the pool from its own offset so the
                // queue interleaving differs per thread; traffic mixes
                // blocking calls (one request in flight per client) with
                // pipelined submit bursts (which pile up and coalesce)
                for r in 0..rounds {
                    let mut burst: Vec<(usize, _)> = Vec::new();
                    for i in 0..pool.len() {
                        let idx = (i + c * 7 + r * 13) % pool.len();
                        let (x, ts) = &pool[idx];
                        if (i + c) % 2 == 0 {
                            let got = serve(engine, x, ts);
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
    let tenant = registry.default_tenant().expect("one tenant");
    parallel::set_threads(3); // the engine starts one worker per thread
    let engine = Engine::start(registry, &EngineConfig::default());
    parallel::set_threads(0);
    std::thread::scope(|scope| {
        // swapper: alternate generations while traffic runs
        let swapper = {
            let tenant = &tenant;
            let model_a = model_a.clone();
            let model_b = model_b.clone();
            scope.spawn(move || {
                for i in 0..30 {
                    let next = if i % 2 == 0 {
                        model_b.clone()
                    } else {
                        model_a.clone()
                    };
                    tenant.publish(next);
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
                        let got = serve(engine, x, ts);
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

/// Generation consistency under hot swap: a hot swap mid-traffic must
/// produce **exactly-one-generation** answers — each response equals one
/// model's output bit for bit, never a mixture of two generations'
/// parameters — and stays monotone in an ascending threshold grid. This
/// drives a real §5.4 `spawn_update` retrain (which mutates a clone's
/// `ParamStore`) on drifted data while clients hammer the engine.
#[test]
fn plans_stay_generation_consistent_across_retrain_swap() {
    let (mut ds, w) = data_fixture(97);
    let model = train(&ds, &w, 97, 2);
    let tmax = model.tmax();
    let pool = query_pool(&ds, tmax, 16);
    // pre-swap truth from the served path AND the tape path (they must agree
    // before we can attribute any served answer to a generation)
    let answers_old: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| model.estimate_many(x, ts))
        .collect();
    for ((x, ts), expected) in pool.iter().zip(&answers_old) {
        assert_eq!(
            &tape_answers(&model, x, ts),
            expected,
            "served path must equal tape path before serving"
        );
    }

    let registry = Arc::new(ModelRegistry::new(model));
    let tenant = registry.default_tenant().expect("one tenant");
    parallel::set_threads(3); // the engine starts one worker per thread
    let engine = Engine::start(registry, &EngineConfig::default());
    parallel::set_threads(0);
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
    let handle = tenant.spawn_update(move |m: &mut PartitionedSelNet| {
        m.check_and_update(&ds, kind, &train_split, &valid_split, &policy)
    });
    std::thread::scope(|scope| {
        for c in 0..4 {
            let engine = &engine;
            let pool = &pool;
            let answers_old = &answers_old;
            let tenant = &tenant;
            scope.spawn(move || {
                for r in 0..6 {
                    for i in 0..pool.len() {
                        let idx = (i + c * 3 + r) % pool.len();
                        let (x, ts) = &pool[idx];
                        let got = serve(engine, x, ts);
                        // every answer is one complete generation's output:
                        // either the pre-swap model's pinned answers, or
                        // whatever the currently-published model computes
                        // (compared via its own served path)
                        if got != answers_old[idx] {
                            let (_, current) = tenant.current();
                            let fresh = current.estimate_many(x, ts);
                            assert_eq!(
                                got, fresh,
                                "query {idx}: response matches neither the old generation \
                                 nor the current one — stale weights leaked across a swap"
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
    // after the swap: served answers equal the new model's served path,
    // which in turn equals its tape path
    let (_, current) = tenant.current();
    for (x, ts) in &pool {
        let served = serve(&engine, x, ts);
        assert_eq!(served, current.estimate_many(x, ts));
        assert_eq!(served, tape_answers(&current, x, ts));
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
    let tenant = registry.default_tenant().expect("one tenant");
    let engine = Engine::start(registry, &EngineConfig::default());
    // negative tolerance: even zero drift retrains
    let policy = selnet_core::UpdatePolicy {
        mae_tolerance: -1.0,
        patience: 1,
        max_epochs: 2,
    };
    let train = w.train.clone();
    let valid = w.valid.clone();
    let kind = w.kind;
    let handle = tenant.spawn_update(move |m: &mut PartitionedSelNet| {
        m.check_and_update(&ds, kind, &train, &valid, &policy)
    });
    // keep serving while the retrain runs; every response is from a
    // complete generation, so it's monotone either way
    while !handle.is_finished() {
        for (x, ts) in &pool {
            let got = serve(&engine, x, ts);
            for pair in got.windows(2) {
                assert!(pair[1] >= pair[0], "non-monotone during retrain: {got:?}");
            }
        }
    }
    let (decision, generation) = handle.wait();
    assert!(decision.retrained(), "negative tolerance must retrain");
    assert_eq!(generation, 1);
    assert_eq!(tenant.generation(), 1);
    // the new generation serves; answers come from one model and differ
    // from the old generation somewhere (weights moved)
    let after: Vec<Vec<f64>> = pool.iter().map(|(x, ts)| serve(&engine, x, ts)).collect();
    let direct: Vec<Vec<f64>> = {
        let (_, m) = tenant.current();
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

/// A multi-threshold request answered alone, in a batch of one (a
/// blocking call on an idle engine), equals the same request coalesced
/// with its eleven neighbours into one `estimate_into`, bit for bit — and
/// both equal the tape oracle. A pipelined burst through the engine, which
/// coalesces as the workers find it queued (two 32-threshold requests
/// fill a 64-row wave), answers the same.
#[test]
fn single_and_coalesced_answers_are_bit_identical() {
    let (ds, _, model) = fixture(95, 2);
    let tmax = model.tmax();
    let pool: Vec<(Vec<f32>, Vec<f32>)> = (0..12)
        .map(|i| {
            let ts = (0..32).map(|j| tmax * (j as f32 / 26.0 - 0.1)).collect();
            (ds.row(i * 7).to_vec(), ts)
        })
        .collect();
    let tape: Vec<Vec<f64>> = pool
        .iter()
        .map(|(x, ts)| tape_answers(&model, x, ts))
        .collect();
    let coalesced: Vec<Vec<f64>> = {
        let queries: Vec<(&[f32], &[f32])> = pool
            .iter()
            .map(|(x, ts)| (x.as_slice(), ts.as_slice()))
            .collect();
        let mut flat = Vec::new();
        model.estimate_into(&queries, &mut flat);
        flat.chunks(32).map(<[f64]>::to_vec).collect()
    };
    parallel::set_threads(2); // the engine starts one worker per thread
    let engine = Engine::start(
        Arc::new(ModelRegistry::new(model)),
        &EngineConfig::default(),
    );
    parallel::set_threads(0);
    let single: Vec<Vec<f64>> = pool.iter().map(|(x, ts)| serve(&engine, x, ts)).collect();
    assert_eq!(
        engine.stats_snapshot().batches,
        pool.len() as u64,
        "one batch per blocking call"
    );
    let handles: Vec<_> = pool
        .iter()
        .map(|(x, ts)| {
            engine
                .submit(Request::new(x.clone()).thresholds(ts.clone()))
                .expect("engine running")
        })
        .collect();
    let burst: Vec<Vec<f64>> = handles
        .into_iter()
        .map(|h| h.wait().expect("served"))
        .collect();
    assert_eq!(single, coalesced);
    assert_eq!(single, tape);
    assert_eq!(burst, single);
    engine.shutdown();
}

/// A model that holds the worker answering a query with a negative first
/// coordinate at a barrier the test shares; any other query answers `t`.
struct Held(Arc<Barrier>);

impl SelectivityEstimator for Held {
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        per_pair(queries, out, |x, t| {
            if x[0] < 0.0 {
                self.0.wait(); // the worker has the held request...
                self.0.wait(); // ...and keeps it until the test lets go
            }
            t as f64
        })
    }
    fn name(&self) -> &str {
        "held"
    }
}

/// A request is picked up by whichever worker is idle: with one of two
/// workers held on a request, 32 submits sent one at a time are each
/// answered by the other at once, not after an idle poll's timeout.
#[test]
fn an_idle_worker_answers_while_another_is_held() {
    let barrier = Arc::new(Barrier::new(2));
    parallel::set_threads(2); // the engine starts one worker per thread
    let engine = Engine::start(
        Arc::new(ModelRegistry::new(Held(Arc::clone(&barrier)))),
        &EngineConfig::default(),
    );
    parallel::set_threads(0);
    let held = engine
        .submit(Request::new(vec![-1.0]).thresholds(vec![1.0]))
        .expect("engine running");
    barrier.wait(); // one worker now sits in the held request
    let slow = (0..32)
        .filter(|&i| {
            let started = Instant::now();
            let got = engine
                .submit(Request::new(vec![i as f32]).thresholds(vec![2.0]))
                .expect("engine running")
                .wait()
                .expect("served");
            assert_eq!(got, vec![2.0]);
            started.elapsed() >= Duration::from_millis(4)
        })
        .count();
    barrier.wait();
    assert_eq!(held.wait().expect("served"), vec![1.0]);
    engine.shutdown();
    assert!(
        slow < 4,
        "{slow} of 32 requests waited 4 ms or more beside an idle worker"
    );
}
