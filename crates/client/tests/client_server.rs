//! End-to-end acceptance tests for the persistent-connection client:
//! pipelined traffic from several connections across two trained tenants
//! must be **bit-identical** to calling each tenant's model directly, and
//! a saturated server must answer with typed `Overloaded` refusals that
//! show up in the scraped fleet counters.

use selnet_client::{ClientConfig, Connection, Reply};
use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_serve::protocol::ErrorCode;
use selnet_serve::registry::ModelRegistry;
use selnet_serve::server::serve_tcp;
use selnet_serve::{Engine, EngineConfig, Request};
use selnet_tensor::parallel;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn spawn_server<M: SelectivityEstimator + Send + Sync + 'static>(eng: &Arc<Engine<M>>) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let eng2 = Arc::clone(eng);
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || serve_tcp(eng2, listener, stop2));
    Server { addr, stop, handle }
}

impl Server {
    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap().unwrap();
    }
}

fn train_tiny(seed: u64) -> (selnet_data::Dataset, PartitionedSelNet) {
    let ds = fasttext_like(&GeneratorConfig::new(240, 4, 2, seed));
    let mut wcfg = WorkloadConfig::new(8, DistanceKind::Euclidean, seed ^ 1);
    wcfg.thresholds_per_query = 4;
    let workload = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 2;
    cfg.seed = seed;
    let pcfg = PartitionConfig {
        k: 2,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _report) = fit_partitioned(&ds, &workload, &cfg, &pcfg);
    (ds, model)
}

/// Acceptance criterion: four pipelined connections interleaving two
/// tenants' traffic produce, reply for reply, exactly what each tenant's
/// model computes directly with `estimate_many` — routing, coalescing,
/// caching, and FIFO reply matching leak nothing across tenants and
/// perturb no bits.
#[test]
fn four_pipelined_connections_two_tenants_match_direct_estimation() {
    let (ds_a, model_a) = train_tiny(11);
    let (_ds_b, model_b) = train_tiny(47);

    let registry = Arc::new(ModelRegistry::empty());
    registry.register("alpha", model_a).unwrap();
    registry.register("beta", model_b).unwrap();
    let direct_a = registry.get("alpha").unwrap().current().1;
    let direct_b = registry.get("beta").unwrap().current().1;

    let engine = Engine::start(Arc::clone(&registry), &EngineConfig::default());
    let server = spawn_server(&engine);

    // 48 queries over a descending threshold grid, even ones routed to
    // alpha, odd ones to beta.
    let tmax = direct_a.tmax().max(direct_b.tmax());
    let queries: Vec<(Option<&str>, Vec<f32>, Vec<f32>)> = (0..48)
        .map(|i| {
            let x = ds_a.row(i % ds_a.len()).to_vec();
            let ts: Vec<f32> = (1..=4).rev().map(|j| tmax * j as f32 / 4.0).collect();
            let model = if i % 2 == 0 {
                Some("alpha")
            } else {
                Some("beta")
            };
            (model, x, ts)
        })
        .collect();
    let expected: Vec<Vec<f64>> = queries
        .iter()
        .map(|(model, x, ts)| match model {
            Some("alpha") => direct_a.estimate_many(x, ts),
            _ => direct_b.estimate_many(x, ts),
        })
        .collect();

    // A small window forces the client through its drain-to-make-room
    // path mid-burst, not just the happy path.
    let cfg = ClientConfig { window: 6 };
    let mut conns: Vec<Connection> = (0..4)
        .map(|_| Connection::connect_with(server.addr, &cfg).unwrap())
        .collect();
    for (i, (model, x, ts)) in queries.iter().enumerate() {
        conns[i % 4].send_query(*model, x, ts).unwrap();
    }
    for (i, want) in expected.iter().enumerate() {
        match conns[i % 4].recv().unwrap() {
            Reply::Estimates(got) => assert_eq!(
                &got, want,
                "query {i} differs from direct estimate_many (bit-identity violated)"
            ),
            other => panic!("query {i}: unexpected reply {other:?}"),
        }
    }

    // A fleet scrape over the same connections: every answered request is
    // counted, under its own tenant.
    let text = conns[1].metrics().unwrap();
    for sample in [
        "selnet_requests_total 48",
        "selnet_requests_total{tenant=\"alpha\"} 24",
        "selnet_requests_total{tenant=\"beta\"} 24",
    ] {
        assert!(
            text.lines().any(|l| l == sample),
            "missing {sample:?} in:\n{text}"
        );
    }
    match conns[2].estimate(Some("ghost"), &[0.0; 4], &[1.0]) {
        Err(selnet_client::ClientError::Denied(e)) => {
            assert_eq!(e.code, ErrorCode::UnknownModel)
        }
        other => panic!("unknown tenant must be denied, got {other:?}"),
    }

    drop(conns);
    server.shutdown();
    engine.shutdown();
}

/// Answers `x[0] + t`; a query whose first coordinate is negative first
/// takes the gate, a mutex the test holds to park the engine's worker.
struct Gated(Arc<Mutex<()>>);

impl SelectivityEstimator for Gated {
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        if x[0] < 0.0 {
            drop(self.0.lock().unwrap());
        }
        f64::from(x[0]) + f64::from(t)
    }

    fn query_dim(&self) -> Option<usize> {
        Some(2)
    }

    fn name(&self) -> &str {
        "gated"
    }
}

/// Acceptance criterion: under saturation the server sheds with typed
/// `Overloaded` replies — per request, on a connection that stays healthy
/// — and the scraped fleet counters hold exactly the refusals the client
/// observed.
#[test]
fn saturated_server_sheds_overloaded_and_stats_count_it() {
    let gate = Arc::new(Mutex::new(()));
    let held_gate = gate.lock().unwrap();
    let registry = Arc::new(ModelRegistry::new(Gated(Arc::clone(&gate))));
    parallel::set_threads(1); // the engine starts one worker per thread
    let engine = Engine::start(registry, &EngineConfig::default());
    parallel::set_threads(0);
    let server = spawn_server(&engine);
    // in process: the one worker parks at the gate, then a 4096-row
    // request fills the empty queue to its bound (4096 rows per worker)
    let held = engine
        .submit(Request::new(vec![-1.0, 0.0]).thresholds(vec![0.5]))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.queued_rows_total() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let fill = engine
        .submit(Request::new(vec![0.0, 0.0]).thresholds(vec![0.5; 4096]))
        .unwrap();

    // so every query pipelined over the wire is shed, one reply each
    let cfg = ClientConfig { window: 128 };
    let mut conn = Connection::connect_with(server.addr, &cfg).unwrap();
    let total = 96usize;
    for i in 0..total {
        conn.send_query(None, &[i as f32, 0.0], &[0.5]).unwrap();
    }
    for i in 0..total {
        match conn.recv().unwrap() {
            Reply::Denied(e) => assert_eq!(e.code, ErrorCode::Overloaded, "query {i}: {e}"),
            other => panic!("query {i}: expected a shed, got {other:?}"),
        }
    }
    drop(held_gate);
    assert_eq!(held.wait().unwrap(), vec![-0.5]);
    assert_eq!(fill.wait().unwrap(), vec![0.5; 4096]);
    assert_eq!(conn.estimate(None, &[1.0, 0.0], &[0.5]).unwrap(), vec![1.5]);

    // The same connection survives and the fleet counters agree with what
    // we observed on the wire.
    let text = conn.metrics().unwrap();
    let counted: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("selnet_shed_requests_total "))
        .expect("the exposition has the unlabeled shed sample")
        .parse()
        .unwrap();
    assert_eq!(
        counted, total,
        "counters disagree with observed refusals:\n{text}"
    );

    drop(conn);
    server.shutdown();
    engine.shutdown();
}

/// The observability loop end-to-end: a traced query's ID round-trips
/// through `send_query_traced` and `recv`, a zero ID comes back
/// server-minted, and a
/// `metrics` scrape over the same connection shows the Prometheus
/// families with the counts the client just generated.
#[test]
fn traced_queries_and_metrics_scrape_round_trip() {
    let engine = Engine::start(
        Arc::new(ModelRegistry::new(Gated(Arc::default()))),
        &EngineConfig {
            slow_query_us: 1, // a worker's wake-up alone crosses 1 µs
            trace_buffer: 0,
        },
    );
    let server = spawn_server(&engine);

    let mut conn = Connection::connect(server.addr).unwrap();
    conn.send_query_traced(0xFEED, None, &[1.0, 0.0], &[0.5])
        .unwrap();
    conn.send_query_traced(0, None, &[2.0, 0.0], &[0.5])
        .unwrap();
    assert_eq!(
        conn.recv().unwrap(),
        Reply::EstimatesTraced {
            trace_id: 0xFEED,
            values: vec![1.5]
        }
    );
    match conn.recv().unwrap() {
        Reply::EstimatesTraced { trace_id, values } => {
            assert_ne!(trace_id, 0, "a zero trace ID must come back server-minted");
            assert_eq!(values, vec![2.5]);
        }
        other => panic!("expected traced estimates, got {other:?}"),
    }

    let text = conn.metrics().unwrap();
    assert!(
        text.contains("# TYPE selnet_request_latency_us histogram"),
        "metrics: {text}"
    );
    assert!(text.contains("selnet_requests_total 2"), "metrics: {text}");
    assert!(
        text.contains("selnet_slow_requests_total 2"),
        "slow-query counter must see both traced queries: {text}"
    );

    drop(conn);
    server.shutdown();
    engine.shutdown();
}
