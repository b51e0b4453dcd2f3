//! Multi-tenant serving over TCP with the persistent-connection client:
//! train two tiny estimators, register them as named tenants behind one
//! v2 server, then drive them with pipelined `selnet-client` connections
//! — routed queries, typed refusals, and a Prometheus metrics scrape.
//!
//! ```text
//! cargo run --release -p selnet-examples --example client_server
//! ```

use selnet_client::{ClientConfig, Connection, Reply};
use selnet_core::{fit_partitioned, PartitionConfig, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig};
use selnet_serve::registry::ModelRegistry;
use selnet_serve::server::serve_tcp;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // 1. two tenants: the same architecture trained on different data —
    // think one estimator per dataset/collection in a shared fleet
    let mut tenants = Vec::new();
    for (name, seed) in [("products", 7u64), ("reviews", 19u64)] {
        let ds = fasttext_like(&GeneratorConfig::new(1_200, 6, 3, seed));
        let wcfg = WorkloadConfig::new(40, DistanceKind::Euclidean, seed ^ 1);
        let workload = generate_workload(&ds, &wcfg);
        let cfg = SelNetConfig::tiny();
        let (model, _) = fit_partitioned(&ds, &workload, &cfg, &PartitionConfig::default());
        println!(
            "trained tenant {name}: K = {}, tmax = {:.3}",
            model.k(),
            model.tmax()
        );
        tenants.push((name, ds, model));
    }

    // 2. one engine serves the whole fleet: shared worker pool (one per
    // core), per-tenant generations and stats, a bounded queue for admission
    let registry = Arc::new(ModelRegistry::empty());
    for (name, _, model) in &tenants {
        registry
            .register(name, model.clone())
            .expect("register tenant");
    }
    let engine = Engine::start(Arc::clone(&registry), &EngineConfig::default());

    // 3. the v2 server on an OS-assigned port, stopped via a shared flag
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_tcp(engine, listener, stop))
    };
    println!("serving fleet on {addr}");

    // 4. pipelined clients: each connection keeps a window of requests in
    // flight, so the server coalesces rows across requests and tenants
    let cfg = ClientConfig { window: 16 };
    std::thread::scope(|scope| {
        for c in 0..3usize {
            let tenants = &tenants;
            let cfg = &cfg;
            scope.spawn(move || {
                let mut conn = Connection::connect_with(addr, cfg).expect("connect");
                let mut sent = Vec::new();
                for i in 0..120usize {
                    let (name, ds, model) = &tenants[(c + i) % tenants.len()];
                    let x = ds.row((c * 211 + i * 17) % ds.len());
                    let ts: Vec<f32> = (1..=6)
                        .rev()
                        .map(|j| model.tmax() * j as f32 / 6.0)
                        .collect();
                    conn.send_query(Some(name), x, &ts).expect("send");
                    sent.push(ts.len());
                }
                for (i, n_ts) in sent.into_iter().enumerate() {
                    match conn.recv().expect("recv") {
                        Reply::Estimates(est) => {
                            assert_eq!(est.len(), n_ts);
                            // consistency: monotone non-increasing in the
                            // descending threshold grid, always
                            assert!(est.windows(2).all(|p| p[1] <= p[0]));
                        }
                        other => panic!("client {c} reply {i}: {other:?}"),
                    }
                }
            });
        }
    });

    // 5. refusals are per-request and typed: an unknown tenant is denied,
    // the connection keeps serving
    let mut conn = Connection::connect(addr).expect("connect");
    match conn.estimate(Some("ghost"), &[0.0; 6], &[1.0]) {
        Err(selnet_client::ClientError::Denied(e)) => println!("refusal, as typed: {e}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }

    // 6. the same connection scrapes the fleet's telemetry: one
    // Prometheus exposition, each family's fleet sample then one per tenant
    let metrics = conn.metrics().expect("metrics scrape");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("selnet_requests_total"))
    {
        println!("{line}");
    }

    drop(conn);
    stop.store(true, Ordering::SeqCst);
    server.join().expect("server thread").expect("server exit");
    engine.shutdown();
}
