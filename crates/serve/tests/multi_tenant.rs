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
use selnet_obs::HistogramSnapshot;
use selnet_serve::engine::{Engine, EngineConfig, Request, SubmitError};
use selnet_serve::registry::{ModelRegistry, Tenant};
use selnet_serve::StatsSnapshot;
use selnet_workload::{generate_workload, Workload, WorkloadConfig};
use std::sync::{Arc, Condvar, Mutex};

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
            max_batch_rows: 16,
            max_queue_rows: 0,
            slow_query_us: 0,
            trace_buffer: 0,
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
    let per_tenant = engine.registry().tenants();
    assert_eq!(per_tenant.len(), 2);
    let requests = |t: &Tenant<PartitionedSelNet>| t.stats().snapshot().requests;
    let tenant_requests: u64 = per_tenant.iter().map(|t| requests(t)).sum();
    assert_eq!(tenant_requests, (clients * rounds * pool.len()) as u64);
    assert_eq!(engine.stats_snapshot().requests, tenant_requests);
    for t in &per_tenant {
        assert!(
            requests(t) > 0,
            "tenant {} must have served traffic",
            t.name()
        );
    }
    engine.shutdown();
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
            max_batch_rows: 16,
            max_queue_rows: 0,
            slow_query_us: 0,
            trace_buffer: 0,
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
                max_batch_rows: 16,
                max_queue_rows: 0,
                slow_query_us,
                trace_buffer,
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
        traced.stats_snapshot().slow_requests.min(pool.len() as u64) as usize,
        "slow-query log and counter disagree"
    );
    assert!(
        traced.stats_snapshot().slow_requests >= pool.len() as u64,
        "a 1µs threshold must flag every request as slow"
    );
    // ...and the plain engine really was inert
    assert!(plain.spans().is_empty());
    assert!(plain.slow_queries().is_empty());
    assert_eq!(plain.stats_snapshot().slow_requests, 0);

    traced.shutdown();
    plain.shutdown();
}

/// A gate the test holds shut to park the engine's workers: a query
/// whose first coordinate is negative waits at it, any other passes.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    changed: Condvar,
}

impl Gate {
    fn set(&self, open: bool) {
        *self.open.lock().unwrap() = open;
        self.changed.notify_all();
    }
}

struct Gated {
    scale: f64,
    gate: Arc<Gate>,
}

impl SelectivityEstimator for Gated {
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        if x[0] < 0.0 {
            let mut open = self.gate.open.lock().unwrap();
            while !*open {
                open = self.gate.changed.wait(open).unwrap();
            }
        }
        self.scale * t as f64 + x[0] as f64
    }
    fn name(&self) -> &str {
        "gated"
    }
}

/// The fleet view is nothing but the fold of its tenants: after mixed
/// pipelined + blocking traffic over three tenants — one of them
/// registered after the engine started —, a forced shed and a slow
/// query, `stats_snapshot()` is the field-by-field sum of the tenants'
/// own snapshots and its percentiles are those of the tenants' merged
/// latency histograms. And counting happens before the reply: a client
/// returning from `wait()` finds its request in the next snapshot.
#[test]
fn fleet_stats_are_the_fold_of_the_tenants() {
    let gate = Arc::new(Gate::default());
    gate.set(true);
    let model = |scale: f64| Gated {
        scale,
        gate: Arc::clone(&gate),
    };
    let registry = Arc::new(ModelRegistry::empty());
    registry.register("alpha", model(1.0)).unwrap();
    registry.register("beta", model(2.0)).unwrap();
    let engine = Engine::start(
        Arc::clone(&registry),
        &EngineConfig {
            workers: 2,
            max_batch_rows: 8,
            max_queue_rows: 12,
            slow_query_us: 2_000,
            trace_buffer: 0,
        },
    );
    // a tenant registered after start must be in the fold too
    registry.register("gamma", model(3.0)).unwrap();
    let names = ["alpha", "beta", "gamma"];

    std::thread::scope(|scope| {
        for c in 0..3usize {
            let engine = &engine;
            scope.spawn(move || {
                let mut burst = Vec::new();
                for i in 0..60usize {
                    let name = names[(i + c) % 3];
                    let m = 1 + i % 4;
                    let ts: Vec<f32> = (1..=m).map(|j| j as f32).collect();
                    let x = [(i % 20) as f32];
                    if (i + c) % 2 == 0 {
                        let got = engine.serve_blocking(&req(name, &x, &ts)).unwrap();
                        assert_eq!(got.len(), m);
                    } else {
                        // a shed here is fine (and counted): go on
                        match engine.submit(req(name, &x, &ts)) {
                            Ok(handle) => burst.push((m, handle)),
                            Err(SubmitError::Overloaded { .. }) => {}
                            Err(other) => panic!("unexpected submit error: {other}"),
                        }
                        if burst.len() >= 6 {
                            for (m, handle) in burst.drain(..) {
                                assert_eq!(handle.wait().expect("served").len(), m);
                            }
                        }
                    }
                }
                for (m, handle) in burst {
                    assert_eq!(handle.wait().expect("served").len(), m);
                }
            });
        }
    });

    // the forced shed: with the gate shut both workers park on the first
    // gated batch they drain, the two 12-row shards (one per worker) fill
    // behind them, and the next submit is refused — at the latest the 21st
    // (2 × 8 rows drained, 2 × 12 queued, 2 rows each)
    gate.set(false);
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for i in 0..24 {
        match engine.submit(req("gamma", &[-1.0 - i as f32], &[1.0, 2.0])) {
            Ok(handle) => accepted.push(handle),
            Err(SubmitError::Overloaded { limit, .. }) => {
                assert_eq!(limit, 12);
                shed += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(
        shed > 0,
        "24 gated submits against two 12-row shards must shed"
    );
    // the slow queries: everything parked at the gate has by now waited
    // longer than the 2 ms bar
    let before = engine.stats_snapshot();
    std::thread::sleep(std::time::Duration::from_millis(3));
    gate.set(true);

    // counted before the reply: each client returning from wait() finds
    // its request in the next snapshot (the others may be in it already)
    let mut returned = 0u64;
    for handle in accepted {
        handle.wait().expect("served");
        returned += 1;
        assert!(
            engine.stats_snapshot().requests >= before.requests + returned,
            "a reply was observable before its request was counted"
        );
    }
    let after = engine.stats_snapshot();
    assert_eq!(after.requests, before.requests + returned);
    assert_eq!(after.slow_requests, before.slow_requests + returned);
    assert_eq!(after.shed_requests, before.shed_requests);
    // a blocking call on the now idle engine: served inline
    engine
        .serve_blocking(&req("alpha", &[-0.5], &[1.0]))
        .unwrap();

    // quiescent: the fleet is the sum of the tenants, field by field
    let fleet = engine.stats_snapshot();
    let tenants = registry.tenants();
    assert_eq!(tenants.iter().map(|t| t.name()).collect::<Vec<_>>(), names);
    let tenants: Vec<StatsSnapshot> = tenants.iter().map(|t| t.stats().snapshot()).collect();
    let sum = |field: fn(&StatsSnapshot) -> u64| -> u64 { tenants.iter().map(field).sum() };
    assert_eq!(fleet.requests, sum(|s| s.requests));
    assert_eq!(fleet.rows, sum(|s| s.rows));
    assert_eq!(fleet.batches, sum(|s| s.batches));
    assert_eq!(fleet.inline_requests, sum(|s| s.inline_requests));
    assert_eq!(fleet.shed_requests, sum(|s| s.shed_requests));
    assert_eq!(fleet.slow_requests, sum(|s| s.slow_requests));
    for (t, name) in tenants.iter().zip(names) {
        assert!(t.requests > 0, "tenant {name} saw no traffic");
    }
    assert!(fleet.batches > 0 && fleet.inline_requests > 0 && fleet.shed_requests > 0);
    assert_eq!(fleet.slow_requests as usize, engine.slow_queries().len());
    // mean_batch_rows from the summed numerators, not a mean of means
    let batch_rows: f64 = tenants
        .iter()
        .map(|t| t.mean_batch_rows * t.batches as f64)
        .sum();
    assert!((fleet.mean_batch_rows - batch_rows / fleet.batches as f64).abs() < 1e-9);

    // the fleet's quantiles are exactly those of the merged histograms
    let mut merged = HistogramSnapshot::empty();
    for name in names {
        merged.merge(&registry.get(name).unwrap().stats().latency_histogram());
    }
    assert_eq!(merged.count, fleet.requests);
    assert_eq!(fleet.p50_latency_us, merged.quantile(0.50));
    assert_eq!(fleet.p99_latency_us, merged.quantile(0.99));
    assert_eq!(fleet.max_latency_us, merged.max);
    engine.shutdown();
}

/// The exposition's structure — family order, `# HELP` / `# TYPE` lines,
/// the label set of every series — frozen from the output of the commit
/// before the fleet became a fold of its tenants (PR 23): values and
/// `le` bounds move with traffic, this list must not.
const METRICS_STRUCTURE: &str = r#"# HELP selnet_requests_total Requests answered (shed refusals excluded).
# TYPE selnet_requests_total counter
selnet_requests_total
selnet_requests_total{tenant="alpha"}
selnet_requests_total{tenant="beta"}
# HELP selnet_rows_total (x, t) rows evaluated.
# TYPE selnet_rows_total counter
selnet_rows_total
selnet_rows_total{tenant="alpha"}
selnet_rows_total{tenant="beta"}
# HELP selnet_batches_total Coalesced batch evaluations run.
# TYPE selnet_batches_total counter
selnet_batches_total
selnet_batches_total{tenant="alpha"}
selnet_batches_total{tenant="beta"}
# HELP selnet_inline_requests_total Requests served synchronously on the submitting thread.
# TYPE selnet_inline_requests_total counter
selnet_inline_requests_total
selnet_inline_requests_total{tenant="alpha"}
selnet_inline_requests_total{tenant="beta"}
# HELP selnet_shed_requests_total Requests refused by admission control.
# TYPE selnet_shed_requests_total counter
selnet_shed_requests_total
selnet_shed_requests_total{tenant="alpha"}
selnet_shed_requests_total{tenant="beta"}
# HELP selnet_slow_requests_total Requests at or past the slow-query threshold.
# TYPE selnet_slow_requests_total counter
selnet_slow_requests_total
selnet_slow_requests_total{tenant="alpha"}
selnet_slow_requests_total{tenant="beta"}
# HELP selnet_request_latency_us End-to-end request latency (enqueue to reply), microseconds.
# TYPE selnet_request_latency_us histogram
selnet_request_latency_us_bucket
selnet_request_latency_us_sum
selnet_request_latency_us_count
selnet_request_latency_us_bucket{tenant="alpha"}
selnet_request_latency_us_sum{tenant="alpha"}
selnet_request_latency_us_count{tenant="alpha"}
selnet_request_latency_us_bucket{tenant="beta"}
selnet_request_latency_us_sum{tenant="beta"}
selnet_request_latency_us_count{tenant="beta"}
# HELP selnet_batch_rows Rows per coalesced batch evaluation (batch occupancy).
# TYPE selnet_batch_rows histogram
selnet_batch_rows_bucket
selnet_batch_rows_sum
selnet_batch_rows_count
selnet_batch_rows_bucket{tenant="alpha"}
selnet_batch_rows_sum{tenant="alpha"}
selnet_batch_rows_count{tenant="alpha"}
selnet_batch_rows_bucket{tenant="beta"}
selnet_batch_rows_sum{tenant="beta"}
selnet_batch_rows_count{tenant="beta"}
# HELP selnet_retrain_us Background retrain / publish latency, microseconds.
# TYPE selnet_retrain_us histogram
selnet_retrain_us_bucket
selnet_retrain_us_sum
selnet_retrain_us_count
selnet_retrain_us_bucket{tenant="alpha"}
selnet_retrain_us_sum{tenant="alpha"}
selnet_retrain_us_count{tenant="alpha"}
selnet_retrain_us_bucket{tenant="beta"}
selnet_retrain_us_sum{tenant="beta"}
selnet_retrain_us_count{tenant="beta"}
# HELP selnet_queue_rows (x, t) rows currently queued across every shard.
# TYPE selnet_queue_rows gauge
selnet_queue_rows
# HELP selnet_tenant_generation Model generation currently served, per tenant.
# TYPE selnet_tenant_generation gauge
selnet_tenant_generation{tenant="alpha"}
selnet_tenant_generation{tenant="beta"}
"#;

/// One sample line of the exposition without what traffic decides: the
/// value goes, and so does a bucket's `le` bound (always the last label).
fn series_of(line: &str) -> String {
    let series = line.rsplit_once(' ').expect("name, space, value").0;
    match series.find("le=\"") {
        None => series.to_string(),
        Some(at) => match series[..at].trim_end_matches(',') {
            unlabeled if unlabeled.ends_with('{') => unlabeled.trim_end_matches('{').to_string(),
            labeled => format!("{labeled}}}"),
        },
    }
}

#[test]
fn metrics_text_keeps_its_structure() {
    // no query here is negative, so none ever looks at the gate
    let model = |scale: f64| Gated {
        scale,
        gate: Arc::default(),
    };
    let registry = Arc::new(ModelRegistry::empty());
    registry.register("alpha", model(1.0)).unwrap();
    registry.register("beta", model(2.0)).unwrap();
    let engine = Engine::start(
        Arc::clone(&registry),
        &EngineConfig {
            slow_query_us: 1,
            ..Default::default()
        },
    );
    for i in 0..3 {
        engine
            .serve_blocking(&req("alpha", &[i as f32], &[1.0, 2.0]))
            .unwrap();
    }
    let handles: Vec<_> = (0..5)
        .map(|i| engine.submit(req("beta", &[i as f32], &[1.0])).unwrap())
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    registry
        .get("beta")
        .unwrap()
        .publish_traced(model(3.0), 2.5);

    let text = engine.metrics_text();
    let mut structure: Vec<String> = Vec::new();
    for line in text.lines() {
        let entry = if line.starts_with('#') {
            line.to_string()
        } else {
            series_of(line)
        };
        if structure.last() != Some(&entry) {
            structure.push(entry);
        }
    }
    let frozen: Vec<&str> = METRICS_STRUCTURE.lines().collect();
    assert_eq!(structure, frozen, "exposition:\n{text}");
    // and on these counters, the values the parent printed: the fleet
    // sample of a family is the sum (or the merge) of its tenants'
    for sample in [
        "selnet_requests_total 8",
        "selnet_requests_total{tenant=\"alpha\"} 3",
        "selnet_requests_total{tenant=\"beta\"} 5",
        "selnet_rows_total 11",
        "selnet_inline_requests_total 3",
        // every queued request waits for a worker wake-up, past the 1 µs
        // bar; an inline one can answer inside it
        "selnet_slow_requests_total{tenant=\"beta\"} 5",
        "selnet_request_latency_us_count 8",
        "selnet_request_latency_us_bucket{tenant=\"beta\",le=\"+Inf\"} 5",
        "selnet_retrain_us_sum{tenant=\"beta\"} 2500",
        "selnet_tenant_generation{tenant=\"beta\"} 1",
    ] {
        assert!(
            text.lines().any(|line| line == sample),
            "missing {sample:?} in:\n{text}"
        );
    }
    engine.shutdown();
}
