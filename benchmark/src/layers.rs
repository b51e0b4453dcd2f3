//! The one file that calls into the repository's crates.
//!
//! Everything else in the benchmark sees plain data and the small
//! wrappers defined here, so that a redesign of the product's public
//! surface (ROADMAP plans to collapse the `estimate_*` family and the
//! entry points around it) breaks this file and nothing else. The calls
//! used: `fasttext_like`, `generate_workload`, `fit_partitioned`,
//! `Partitioning::{build, indicator_into, refresh_assignments}`,
//! `PartitionedSelNet::{save, load, partitioning, tmax, check_and_update}`,
//! the estimator trait's `estimate` / `estimate_many` / `estimate_batch`,
//! `vectors::squared_euclidean`, `Matrix::matmul_into`,
//! `Engine::{start, submit, serve_blocking, stats_snapshot, spans,
//! recorder, registry, shutdown}`, `EngineConfig::default()` with
//! `trace_buffer`, `ModelRegistry::{empty, register, resolve}`,
//! `Tenant::{current, spawn_update}`, `serve_tcp`, the v2
//! `Frame` / `Response` / `Hello` / `HelloAck`, `Connection`,
//! `UpdateSimulator`, `DriftSchedule`, `MetricsAccumulator`.

use selnet_client::{ClientConfig, Connection, Reply};
use selnet_core::{
    fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig, UpdatePolicy,
};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::{MetricsAccumulator, SelectivityEstimator};
use selnet_index::Partitioning;
use selnet_metric::{vectors, DistanceKind};
use selnet_serve::protocol::{Frame, Hello, HelloAck, Response};
use selnet_serve::server::serve_tcp;
use selnet_serve::{Engine, EngineConfig, ModelRegistry, Request};
use selnet_tensor::Matrix;
use selnet_workload::{
    generate_workload, DriftSchedule, LabeledQuery, UpdateSimulator, WorkloadConfig,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const KIND: DistanceKind = DistanceKind::Euclidean;
/// The fixtures are constants of the benchmark: `--seed` varies the
/// traffic, never the dataset or the trained model, so that ten runs on
/// ten seeds measure the same system.
const DATA_SEED: u64 = 7;
const LABEL_SEED: u64 = 8;
/// Thresholds per labelled query.
pub const RUNGS: usize = 20;

pub type Model = PartitionedSelNet;

/// Which network widths a fixture trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Widths {
    /// `SelNetConfig::tiny()`.
    Tiny,
    /// `SelNetConfig::default()`: the paper's L = 50 and this
    /// repository's CPU-scaled paper widths.
    Paper,
}

#[derive(Clone, Copy, Debug)]
pub struct FixtureSpec {
    pub n: usize,
    pub dim: usize,
    pub clusters: usize,
    /// Labelled query objects (split 80:10:10 by the workload crate).
    pub queries: usize,
    pub widths: Widths,
    pub epochs: usize,
    pub ae_epochs: usize,
}

impl FixtureSpec {
    fn net(&self) -> SelNetConfig {
        let base = match self.widths {
            Widths::Tiny => SelNetConfig::tiny(),
            Widths::Paper => SelNetConfig::default(),
        };
        SelNetConfig {
            epochs: self.epochs,
            ae_pretrain_epochs: self.ae_epochs,
            ..base
        }
    }

    fn partitions(&self) -> PartitionConfig {
        PartitionConfig {
            k: 3,
            pretrain_epochs: 1,
            ..Default::default()
        }
    }

    /// First-layer serving GEMM shape `(rows, inner, width)`: a 64-row
    /// wave of `[x; z_x]` into the encoder's first hidden layer.
    pub fn gemm_shape(&self) -> (usize, usize, usize) {
        let net = self.net();
        (64, self.dim + net.latent_dim, net.p_hidden[0])
    }
}

/// Seconds (or the stated unit) each set-up step took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub label_s: f64,
    pub fit_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub snapshot_mb: f64,
}

pub struct Fixture {
    pub spec: FixtureSpec,
    ds: Dataset,
    train: Vec<LabeledQuery>,
    valid: Vec<LabeledQuery>,
    test: Vec<LabeledQuery>,
    pub tmax: f32,
    /// The model as a deployment would have it: saved, then loaded.
    model: Model,
    pub times: SetupTimes,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

impl Fixture {
    /// Generates, labels, partitions, trains, snapshots and re-loads.
    pub fn build(spec: FixtureSpec) -> Fixture {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let ds = fasttext_like(&GeneratorConfig::new(
            spec.n,
            spec.dim,
            spec.clusters,
            DATA_SEED,
        ));
        times.gen_s = secs(t);

        let t = Instant::now();
        let mut wcfg = WorkloadConfig::new(spec.queries, KIND, LABEL_SEED);
        wcfg.thresholds_per_query = RUNGS;
        let w = generate_workload(&ds, &wcfg);
        times.label_s = secs(t);

        let t = Instant::now();
        let (trained, _) = fit_partitioned(&ds, &w, &spec.net(), &spec.partitions());
        times.fit_s = secs(t);

        let t = Instant::now();
        let mut snapshot = Vec::new();
        trained.save(&mut snapshot).expect("snapshot to memory");
        times.save_ms = secs(t) * 1e3;
        times.snapshot_mb = snapshot.len() as f64 / 1e6;
        drop(trained);

        let t = Instant::now();
        let model = Model::load(&mut snapshot.as_slice()).expect("snapshot reads back");
        times.load_ms = secs(t) * 1e3;

        Fixture {
            spec,
            ds,
            train: w.train,
            valid: w.valid,
            test: w.test,
            tmax: w.tmax,
            model,
            times,
        }
    }

    pub fn records(&self) -> usize {
        self.ds.len()
    }

    /// The dataset rows, row-major (templates for the request pool).
    pub fn rows(&self) -> &[f32] {
        self.ds.flat()
    }

    /// The training split's ascending threshold ladders.
    pub fn ladders(&self) -> Vec<Vec<f32>> {
        self.train.iter().map(|q| q.thresholds.clone()).collect()
    }

    /// The held-out labelled split as `(x, thresholds, exact labels)`.
    pub fn held_out(&self) -> impl Iterator<Item = (&[f32], &[f32], &[f64])> {
        self.test.iter().map(|q| {
            (
                q.x.as_slice(),
                q.thresholds.as_slice(),
                q.selectivities.as_slice(),
            )
        })
    }

    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Wall time of the cover-tree partitioning alone, built again from
    /// the same inputs `fit_partitioned` gave it.
    pub fn partition_build_s(&self) -> f64 {
        let p = self.spec.partitions();
        let t = Instant::now();
        let built = Partitioning::build(&self.ds, KIND, p.method, p.k, self.spec.net().seed);
        std::hint::black_box(built.k());
        secs(t)
    }

    /// Wall time of `refresh_assignments` over the whole dataset, on a
    /// copy of the served partitioning.
    pub fn refresh_assign_s(&self) -> f64 {
        let mut p = self.model.partitioning().clone();
        let t = Instant::now();
        p.refresh_assignments(&self.ds);
        std::hint::black_box(p.k());
        secs(t)
    }
}

// ---------------------------------------------------------------- model

pub fn estimate(m: &Model, x: &[f32], t: f32) -> f64 {
    m.estimate(x, t)
}

pub fn estimate_many(m: &Model, x: &[f32], ts: &[f32]) -> Vec<f64> {
    m.estimate_many(x, ts)
}

pub fn estimate_batch(m: &Model, xs: &[&[f32]], ts: &[f32]) -> Vec<f64> {
    m.estimate_batch(xs, ts)
}

/// Runs the partition indicator on every `(x, t)` row and returns how
/// many flags came back true (out of `rows × K`).
pub fn indicator_rows(
    m: &Model,
    xs: &[&[f32]],
    ts: &[f32],
    flags: &mut Vec<bool>,
) -> (usize, usize) {
    let p = m.partitioning();
    let mut active = 0;
    for (x, &t) in xs.iter().zip(ts) {
        p.indicator_into(x, t, flags);
        active += flags.iter().filter(|&&f| f).count();
    }
    (active, xs.len() * p.k())
}

pub fn sqdist(a: &[f32], b: &[f32]) -> f32 {
    vectors::squared_euclidean(a, b)
}

/// `a [rows × inner] · b [inner × width]` into a reused output.
pub struct Gemm {
    a: Matrix,
    b: Matrix,
    out: Matrix,
}

impl Gemm {
    pub fn new((rows, inner, width): (usize, usize, usize)) -> Gemm {
        let fill = |r: usize, c: usize| ((r * 31 + c * 17) % 97) as f32 / 97.0 - 0.5;
        Gemm {
            a: Matrix::from_fn(rows, inner, fill),
            b: Matrix::from_fn(inner, width, fill),
            out: Matrix::zeros(rows, width),
        }
    }

    pub fn run(&mut self) {
        self.a.matmul_into(&self.b, &mut self.out);
        std::hint::black_box(self.out.data_mut());
    }
}

/// MSE / MAE / MAPE by the evaluation crate's own definitions.
pub fn error_metrics(pairs: impl Iterator<Item = (f64, f64)>) -> (f64, f64, f64) {
    let mut acc = MetricsAccumulator::new();
    for (pred, truth) in pairs {
        acc.push(pred, truth);
    }
    let m = acc.finish();
    (m.mse, m.mae, m.mape)
}

// ------------------------------------------------------------- protocol

fn query_frame(model: Option<&str>, x: &[f32], ts: &[f32]) -> Frame {
    Frame::Query {
        model: model.map(str::to_string),
        x: x.to_vec(),
        ts: ts.to_vec(),
    }
}

/// Appends one v2 query frame to `buf`.
pub fn encode_request(model: Option<&str>, x: &[f32], ts: &[f32], buf: &mut Vec<u8>) {
    query_frame(model, x, ts)
        .write_v2(buf)
        .expect("write to memory");
}

/// Decodes every request frame in `buf`; returns the threshold count.
pub fn decode_requests(mut buf: &[u8]) -> usize {
    let mut rows = 0;
    while let Some(frame) = Frame::read_v2(&mut buf).expect("own frames decode") {
        if let Frame::Query { ts, .. } = std::hint::black_box(frame) {
            rows += ts.len();
        }
    }
    rows
}

/// Appends one v2 estimates frame to `buf`.
pub fn encode_response(values: &[f64], buf: &mut Vec<u8>) {
    Response::Estimates(values.to_vec())
        .write_v2(buf)
        .expect("write to memory");
}

/// Decodes every response frame in `buf`; returns the estimate count.
pub fn decode_responses(mut buf: &[u8]) -> usize {
    let mut rows = 0;
    while let Some(resp) = Response::read_v2(&mut buf).expect("own frames decode") {
        if let Response::Estimates(v) = std::hint::black_box(resp) {
            rows += v.len();
        }
    }
    rows
}

// --------------------------------------------------------------- client

/// Why a request got no estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fail {
    /// A typed refusal from the server (unknown model, bad shape, shed).
    Refused,
    /// The transport or the framing broke.
    Transport,
}

fn estimates(reply: io::Result<Reply>) -> Result<Vec<f64>, Fail> {
    match reply {
        Ok(Reply::Estimates(v)) => Ok(v),
        Ok(Reply::EstimatesTraced { values, .. }) => Ok(values),
        Ok(Reply::Denied(_)) => Err(Fail::Refused),
        Ok(_) | Err(_) => Err(Fail::Transport),
    }
}

/// The shipped client on one connection.
pub struct Client(Connection);

impl Client {
    pub fn connect(addr: SocketAddr, window: usize) -> io::Result<Client> {
        Connection::connect_with(addr, &ClientConfig { window }).map(Client)
    }

    /// One request, one answer.
    pub fn ask(&mut self, model: Option<&str>, x: &[f32], ts: &[f32]) -> Result<Vec<f64>, Fail> {
        self.0
            .send_query(model, x, ts)
            .map_err(|_| Fail::Transport)?;
        estimates(self.0.recv())
    }

    /// Pipelines one request; `trace_id != 0` sends it `QueryTraced`.
    pub fn send(
        &mut self,
        trace_id: u64,
        model: Option<&str>,
        x: &[f32],
        ts: &[f32],
    ) -> Result<(), Fail> {
        if trace_id == 0 {
            self.0.send_query(model, x, ts)
        } else {
            self.0.send_query_traced(trace_id, model, x, ts)
        }
        .map_err(|_| Fail::Transport)
    }

    pub fn recv(&mut self) -> Result<Vec<f64>, Fail> {
        estimates(self.0.recv())
    }

    pub fn pending(&self) -> usize {
        self.0.pending()
    }
}

/// The write half of a split v2 connection (the open-loop driver needs
/// to send on a schedule while replies are read elsewhere, which the
/// shipped `Connection` cannot do).
pub struct PacedWriter(BufWriter<TcpStream>);
/// The read half.
pub struct PacedReader(BufReader<TcpStream>);

pub fn paced_connect(addr: SocketAddr) -> io::Result<(PacedWriter, PacedReader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    Hello::default().write(&mut writer)?;
    writer.flush()?;
    if HelloAck::read(&mut reader)?.version == 0 {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "no common version",
        ));
    }
    Ok((PacedWriter(writer), PacedReader(reader)))
}

impl PacedWriter {
    pub fn queue(&mut self, model: Option<&str>, x: &[f32], ts: &[f32]) -> io::Result<()> {
        query_frame(model, x, ts).write_v2(&mut self.0)
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl PacedReader {
    /// Gives up on a reply after `limit` (a lost reply must not hang the
    /// run).
    pub fn set_timeout(&self, limit: Duration) {
        self.0.get_ref().set_read_timeout(Some(limit)).ok();
    }

    pub fn read(&mut self) -> Result<Vec<f64>, Fail> {
        match Response::read_v2(&mut self.0) {
            Ok(Some(Response::Estimates(v))) => Ok(v),
            Ok(Some(Response::Error(_))) => Err(Fail::Refused),
            _ => Err(Fail::Transport),
        }
    }
}

// ------------------------------------------------------- serving stack

/// Engine counters the benchmark reports, copied out of the snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub requests: u64,
    /// Coalesced batch evaluations, and the rows they evaluated.
    pub batches: u64,
    pub batch_rows: f64,
    pub inline_requests: u64,
    pub shed_requests: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
}

/// One span of the engine's own flight recorder.
#[derive(Clone, Debug)]
pub struct EngineSpan {
    pub trace_id: u64,
    pub kind: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Engine + loopback listener + accept thread: the deployment in one
/// process.
pub struct Stack {
    engine: Arc<Engine<Model>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<io::Result<()>>>,
    /// `Engine::start` until the listener accepts.
    pub start_ms: f64,
}

impl Stack {
    /// Registers the tenants, starts the engine with its shipped defaults
    /// (plus a span ring of `trace_buffer` entries) and serves it on a
    /// loopback port.
    pub fn start(tenants: Vec<(&str, Model)>, trace_buffer: usize) -> Stack {
        let t = Instant::now();
        let registry = Arc::new(ModelRegistry::empty());
        for (name, model) in tenants {
            registry
                .register(name, model)
                .expect("tenant name is valid");
        }
        let engine = Engine::start(
            registry,
            &EngineConfig {
                trace_buffer,
                ..Default::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            std::thread::spawn(move || serve_tcp(engine, listener, stop))
        };
        Stack {
            engine,
            addr,
            stop,
            server: Some(server),
            start_ms: secs(t) * 1e3,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for the connection threads (every client
    /// must have hung up), then drains and stops the engine.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            server
                .join()
                .expect("server thread panicked")
                .expect("accept loop failed");
        }
        self.engine.shutdown();
    }

    pub fn counters(&self) -> Counters {
        let s = self.engine.stats_snapshot();
        Counters {
            requests: s.requests,
            batches: s.batches,
            batch_rows: s.mean_batch_rows * s.batches as f64,
            inline_requests: s.inline_requests,
            shed_requests: s.shed_requests,
            cache_hits: s.cache_hits,
            cache_evictions: s.cache_evictions(),
        }
    }

    /// The engine's span ring and how many spans it ever recorded.
    pub fn engine_spans(&self) -> (Vec<EngineSpan>, u64) {
        let spans = self
            .engine
            .spans()
            .into_iter()
            .map(|s| EngineSpan {
                trace_id: s.trace_id,
                kind: s.kind,
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
            })
            .collect();
        (spans, self.engine.recorder().recorded())
    }

    /// The generation a tenant serves now, and its model.
    pub fn current(&self, tenant: &str) -> (u64, Arc<Model>) {
        self.engine
            .registry()
            .resolve(Some(tenant))
            .expect("tenant is registered")
            .current()
    }

    /// Name → tenant lookup, as the engine does per request.
    pub fn resolve(&self, tenant: &str) -> bool {
        std::hint::black_box(self.engine.registry().resolve(Some(tenant))).is_some()
    }

    /// Submits every request, then waits for every reply: the engine's
    /// coalescing path without a socket.
    pub fn roundtrip(&self, reqs: &[(&str, &[f32], &[f32])]) -> Vec<Vec<f64>> {
        let handles: Vec<_> = reqs
            .iter()
            .map(|&(tenant, x, ts)| {
                let req = Request::new(x.to_vec())
                    .thresholds(ts.to_vec())
                    .model(tenant);
                self.engine.submit(req).expect("idle engine admits")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.wait().expect("engine answers"))
            .collect()
    }

    /// `serve_blocking`: the same-thread fast path on an idle engine.
    pub fn inline(&self, tenant: &str, x: &[f32], ts: &[f32]) -> Vec<f64> {
        let req = Request::new(x.to_vec())
            .thresholds(ts.to_vec())
            .model(tenant);
        self.engine.serve_blocking(&req).expect("engine answers")
    }

    /// Clones the tenant's model on a background thread and publishes the
    /// clone unchanged; returns the new generation.
    pub fn republish(&self, tenant: &str) -> u64 {
        let tenant = self
            .engine
            .registry()
            .resolve(Some(tenant))
            .expect("tenant is registered");
        tenant.spawn_update(|_: &mut Model| ()).wait().1
    }
}

// ---------------------------------------------------------- update feed

/// What one retrain cycle did.
pub struct Retrain {
    pub generation: u64,
    /// When the retrain was triggered.
    pub triggered: Instant,
    /// Trigger until the new generation was published.
    pub publish_s: f64,
}

/// The write side of `small_update`: a copy of the tenant's dataset and
/// labelled splits that an abrupt-drift update stream mutates (labels
/// kept exact incrementally), and the §5.4 retrain that follows.
pub struct UpdateFeed {
    ds: Dataset,
    train: Vec<LabeledQuery>,
    valid: Vec<LabeledQuery>,
    sim: UpdateSimulator,
    schedule: DriftSchedule,
    ops: usize,
}

impl UpdateFeed {
    /// The drift jumps after `jump_at` operations.
    pub fn new(fx: &Fixture, seed: u64, jump_at: usize) -> UpdateFeed {
        UpdateFeed {
            ds: fx.ds.clone(),
            train: fx.train.clone(),
            valid: fx.valid.clone(),
            sim: UpdateSimulator::new(seed),
            schedule: DriftSchedule::abrupt(fx.spec.dim, seed, 0.25 * fx.tmax, jump_at),
            ops: 0,
        }
    }

    /// Applies `ops` insert/delete operations (five records each).
    pub fn apply(&mut self, ops: usize) {
        for _ in 0..ops {
            let step = self.schedule.at(self.ops);
            let mut splits = [self.train.as_mut_slice(), self.valid.as_mut_slice()];
            self.sim
                .step_drifted(&mut self.ds, &mut splits, KIND, &step);
            self.ops += 1;
        }
    }

    pub fn records(&self) -> usize {
        self.ds.len()
    }

    /// Retrains a clone of the tenant's model on the mutated data in the
    /// background (the old generation keeps serving) and publishes it.
    /// The tolerance is zero so that every cycle retrains.
    pub fn retrain(&self, stack: &Stack, tenant: &str, max_epochs: usize) -> Retrain {
        let tenant = stack
            .engine
            .registry()
            .resolve(Some(tenant))
            .expect("tenant is registered");
        let policy = UpdatePolicy {
            mae_tolerance: 0.0,
            patience: 1,
            max_epochs,
        };
        let triggered = Instant::now();
        let (ds, train, valid) = (self.ds.clone(), self.train.clone(), self.valid.clone());
        let handle = tenant.spawn_update(move |m: &mut Model| {
            m.check_and_update(&ds, KIND, &train, &valid, &policy)
        });
        let (_decision, generation) = handle.wait();
        Retrain {
            generation,
            triggered,
            publish_s: secs(triggered),
        }
    }
}
