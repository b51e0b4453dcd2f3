//! Connection handling: the TCP accept loop, draining every connection
//! into one shared [`Engine`].
//!
//! The TCP loop speaks one wire dialect. A connection opens with the
//! [`HELLO_MAGIC`](protocol::HELLO_MAGIC) handshake; first bytes that are
//! anything else (the retired handshake-less v1 framing included) close
//! that connection with `InvalidData` and leave the engine serving. After
//! the handshake the connection is **pipelined**: a reader loop submits
//! frames to the engine as fast as they arrive while a writer thread
//! answers in FIFO order, so one client with several requests in flight
//! exercises the engine's cross-request coalescing all by itself.
//! Refusals travel as typed [`Response::Error`] frames that answer
//! exactly one request — the connection survives. A [`Frame::Metrics`]
//! scrape is also the flight-recorder readout: the exposition, then the
//! span rings and the slow-query log as `# ` comment lines.

use crate::engine::{Engine, ReplyHandle, Request, SubmitError};
use crate::protocol::{self, ErrorCode, ErrorReply, Frame, Hello, HelloAck, Response};
use selnet_eval::SelectivityEstimator;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;

/// Bound on unanswered pipelined requests per v2 connection: the reader
/// loop stops pulling new frames off the socket once this many replies
/// are pending, so one connection cannot queue unbounded work (TCP
/// backpressure does the rest). A client sweep over caps 64 and 256
/// found throughput flat once the client window is ≥ the coalescing
/// batch — 256 is deep enough for any sane client window, shallow enough
/// to bound a misbehaving one.
pub const MAX_INFLIGHT_PER_CONNECTION: usize = 256;

/// Maps an engine refusal onto the v2 typed error vocabulary.
fn submit_err_to_reply(e: &SubmitError) -> ErrorReply {
    let code = match e {
        SubmitError::ShutDown => ErrorCode::ShuttingDown,
        SubmitError::UnknownModel { .. } => ErrorCode::UnknownModel,
        SubmitError::DimensionMismatch { .. } => ErrorCode::BadDim,
        SubmitError::Overloaded { .. } => ErrorCode::Overloaded,
        SubmitError::NonFinite { .. } => ErrorCode::NonFinite,
    };
    ErrorReply {
        code,
        message: e.to_string(),
    }
}

/// Serves the binary protocol on `listener` until `stop` is set (checked
/// between accepts; the listener must be non-blocking for prompt
/// shutdown) or the listener errors. Each connection gets its own thread;
/// all of them share `engine`, so concurrent connections coalesce into
/// the same batches.
pub fn serve_tcp<M>(
    engine: Arc<Engine<M>>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> io::Result<()>
where
    M: SelectivityEstimator + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    if let Err(e) = serve_connection(&engine, stream) {
                        eprintln!("selnet-serve: connection error: {e}");
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    })
}

/// One binary-protocol connection: the handshake, then the pipelined
/// loop until EOF.
pub fn serve_connection<M>(engine: &Engine<M>, stream: TcpStream) -> io::Result<()>
where
    M: SelectivityEstimator + Send + Sync + 'static,
{
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut first = [0u8; 4];
    if !protocol::read_exact_or_clean_eof(&mut reader, &mut first)? {
        return Ok(()); // closed before a single byte: nothing to serve
    }
    if first != protocol::HELLO_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("connection opened with {first:02x?}, not the handshake magic"),
        ));
    }
    let hello = Hello::read_after_magic(&mut reader)?;
    let Some(version) = hello.negotiate() else {
        // no common version: say so (version 0) and close
        HelloAck { version: 0 }.write(&mut writer)?;
        writer.flush()?;
        return Ok(());
    };
    HelloAck { version }.write(&mut writer)?;
    writer.flush()?;
    serve_v2(engine, &mut reader, writer)
}

/// What the v2 reader loop hands the writer thread for one request:
/// either an answer it could produce immediately (metrics, refusals) or a
/// handle the engine will fulfill.
enum PendingReply {
    Ready(Response),
    /// A handle the engine will fulfill; `Some(trace_id)` when the reply
    /// must echo a trace ID back (a [`Frame::QueryTraced`] request).
    Wait(ReplyHandle, Option<u64>),
}

fn resolve(pending: PendingReply) -> Response {
    match pending {
        PendingReply::Ready(resp) => resp,
        PendingReply::Wait(handle, trace) => match handle.wait() {
            Ok(values) => match trace {
                Some(trace_id) => Response::EstimatesTraced { trace_id, values },
                None => Response::Estimates(values),
            },
            Err(_) => Response::Error(ErrorReply {
                code: ErrorCode::ShuttingDown,
                message: "engine shut down before answering".into(),
            }),
        },
    }
}

/// Submits one query frame to the engine. `trace` is `Some` for a
/// [`Frame::QueryTraced`], whose reply echoes the ID: a `0` is minted here
/// (not in the engine), so the echo tells the client which ID to look for
/// in the slow-query log.
fn submit<M>(
    engine: &Engine<M>,
    trace: Option<u64>,
    model: Option<String>,
    x: Vec<f32>,
    ts: Vec<f32>,
) -> PendingReply
where
    M: SelectivityEstimator + Send + Sync + 'static,
{
    let trace = trace.map(|id| {
        if id == 0 {
            selnet_obs::next_trace_id()
        } else {
            id
        }
    });
    let req = Request::new(x)
        .thresholds(ts)
        .model_opt(model)
        .traced(trace.unwrap_or(0));
    match engine.submit(req) {
        Ok(handle) => PendingReply::Wait(handle, trace),
        // a typed refusal answers this request only — the connection (and
        // its other in-flight requests) keep going
        Err(e) => PendingReply::Ready(Response::Error(submit_err_to_reply(&e))),
    }
}

/// The pipelined v2 loop: this thread reads frames and submits them; a
/// writer thread resolves the replies in FIFO order (matching the
/// protocol's "responses in request order" contract) and batches its
/// flushes. The bounded channel is the in-flight window.
fn serve_v2<M, W>(engine: &Engine<M>, reader: &mut impl Read, writer: W) -> io::Result<()>
where
    M: SelectivityEstimator + Send + Sync + 'static,
    W: Write + Send,
{
    let (tx, rx) = mpsc::sync_channel::<PendingReply>(MAX_INFLIGHT_PER_CONNECTION);
    std::thread::scope(|scope| {
        let writer_thread = scope.spawn(move || -> io::Result<()> {
            let mut writer = writer;
            while let Ok(pending) = rx.recv() {
                resolve(pending).write_v2(&mut writer)?;
                // drain whatever is already resolved before flushing, so a
                // burst of pipelined replies costs one syscall
                loop {
                    match rx.try_recv() {
                        Ok(pending) => resolve(pending).write_v2(&mut writer)?,
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => break,
                    }
                }
                writer.flush()?;
            }
            writer.flush()
        });
        let read_result: io::Result<()> = (|| {
            while let Some(frame) = Frame::read_v2(reader)? {
                let pending = match frame {
                    Frame::Query { model, x, ts } => submit(engine, None, model, x, ts),
                    Frame::QueryTraced {
                        trace_id,
                        model,
                        x,
                        ts,
                    } => submit(engine, Some(trace_id), model, x, ts),
                    Frame::Metrics => PendingReply::Ready(Response::Metrics(metrics_reply(engine))),
                };
                if tx.send(pending).is_err() {
                    break; // writer hit an error and hung up
                }
            }
            Ok(())
        })();
        drop(tx);
        let write_result = writer_thread.join().expect("writer thread panicked");
        read_result.and(write_result)
    })
}

/// The reply to a [`Frame::Metrics`] scrape: [`Engine::metrics_text`],
/// then the flight recorder as `# ` comment lines that exposition parsers
/// skip — the engine's span ring, the global one (curve forward, snapshot,
/// retrain), then the slow-query log. Disarmed, they add nothing.
///
/// Each ring stamps `start_ns` from its own epoch, and the global one is
/// older than the engine's by however long the snapshots took to load;
/// every `# span` line is rendered on the older of the two clocks, so a
/// `curve_forward` line sits inside the `plan_replay` line that ran it.
fn metrics_reply<M>(engine: &Engine<M>) -> String
where
    M: SelectivityEstimator + Send + Sync + 'static,
{
    let mut text = engine.metrics_text();
    let global = selnet_obs::trace::global();
    let (engine_ns, global_ns) = (engine.recorder().now_ns(), global.now_ns());
    let rings = [
        (engine.spans(), global_ns.saturating_sub(engine_ns)),
        (global.snapshot(), engine_ns.saturating_sub(global_ns)),
    ];
    for (spans, shift_ns) in &rings {
        for span in spans {
            text.push_str(&format!(
                "# span {} trace={} start_us={} dur_us={} a={} b={}\n",
                span.kind,
                span.trace_id,
                (span.start_ns + shift_ns) / 1_000,
                span.dur_ns / 1_000,
                span.a,
                span.b
            ));
        }
    }
    for q in engine.slow_queries() {
        text.push_str(&format!(
            "# slow trace={} rows={} latency_us={}\n",
            q.trace_id, q.rows, q.latency_us
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::registry::ModelRegistry;

    struct Linear;
    impl SelectivityEstimator for Linear {
        fn estimate(&self, x: &[f32], t: f32) -> f64 {
            x[0] as f64 + t as f64
        }
        fn query_dim(&self) -> Option<usize> {
            Some(1)
        }
        fn name(&self) -> &str {
            "linear"
        }
    }

    /// `scale * t` — distinguishable from `Linear` so routing mistakes
    /// show up in the numbers.
    struct Scaled(f64);
    impl SelectivityEstimator for Scaled {
        fn estimate(&self, _x: &[f32], t: f32) -> f64 {
            self.0 * t as f64
        }
        fn query_dim(&self) -> Option<usize> {
            Some(1)
        }
        fn name(&self) -> &str {
            "scaled"
        }
    }

    fn engine() -> Arc<Engine<Linear>> {
        Engine::start(
            Arc::new(ModelRegistry::new(Linear)),
            &EngineConfig::default(),
        )
    }

    struct Server {
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        handle: std::thread::JoinHandle<io::Result<()>>,
    }

    fn spawn_server<M: SelectivityEstimator + Send + Sync + 'static>(
        eng: &Arc<Engine<M>>,
    ) -> Server {
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

    fn handshake(stream: &TcpStream) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        Hello::default().write(&mut writer).unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let ack = HelloAck::read(&mut reader).unwrap();
        assert_eq!(ack.version, 2);
        (reader, writer)
    }

    /// A connection whose first word is not the handshake magic — here a
    /// frame in the retired v1 layout (`u32 len | u32 dim | x | u32 m |
    /// ts`), mis-dimensioned on top — is closed without a reply, and the
    /// engine stays alive for other connections (no worker panic, no hang).
    #[test]
    fn mis_dimensioned_v1_frame_closes_connection_but_not_engine() {
        let eng = engine();
        let server = spawn_server(&eng);

        // hostile client: no handshake, dim 3 against a dim-1 model
        let mut bad = TcpStream::connect(server.addr).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&24u32.to_le_bytes());
        frame.extend_from_slice(&3u32.to_le_bytes());
        for v in [1.0f32, 2.0, 3.0] {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&1.0f32.to_le_bytes());
        bad.write_all(&frame).unwrap();
        bad.flush().unwrap();
        // the connection is closed without a response frame
        let mut reader = BufReader::new(bad);
        assert!(!matches!(Response::read_v2(&mut reader), Ok(Some(_))));
        // and the same bytes through the connection entry point are a
        // typed refusal
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(probe.local_addr().unwrap()).unwrap();
        client.write_all(&frame).unwrap();
        let (accepted, _) = probe.accept().unwrap();
        let err = serve_connection(&eng, accepted)
            .expect_err("a first word that is not the magic is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // the engine still serves a healthy connection
        let good = TcpStream::connect(server.addr).unwrap();
        let (mut reader, mut writer) = handshake(&good);
        Frame::Query {
            model: None,
            x: vec![2.0],
            ts: vec![1.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        writer.flush().unwrap();
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Estimates(e) => assert_eq!(e, vec![3.0]),
            other => panic!("expected estimates, got {other:?}"),
        }
        drop((good, reader, writer));
        server.shutdown();
        eng.shutdown();
    }

    /// The v2 contract: handshake, routed queries, a metrics scrape, and
    /// typed errors that answer one request while the connection (and the
    /// requests pipelined behind it) keep going.
    #[test]
    fn v2_connection_routes_pipelines_and_survives_refusals() {
        let registry = Arc::new(ModelRegistry::empty());
        registry.register("one", Scaled(1.0)).unwrap();
        registry.register("ten", Scaled(10.0)).unwrap();
        let eng = Engine::start(Arc::clone(&registry), &EngineConfig::default());
        let server = spawn_server(&eng);

        let stream = TcpStream::connect(server.addr).unwrap();
        let (mut reader, mut writer) = handshake(&stream);

        // pipeline a burst before reading anything: queries to both
        // tenants, a refusal in the middle, and a metrics scrape at the end
        for i in 0..4 {
            Frame::Query {
                model: Some(if i % 2 == 0 { "one" } else { "ten" }.into()),
                x: vec![1.0],
                ts: vec![i as f32],
            }
            .write_v2(&mut writer)
            .unwrap();
        }
        Frame::Query {
            model: Some("ghost".into()),
            x: vec![1.0],
            ts: vec![1.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        Frame::Query {
            model: Some("ten".into()),
            x: vec![1.0, 2.0], // wrong dim
            ts: vec![1.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        Frame::Query {
            model: Some("ten".into()),
            x: vec![1.0],
            ts: vec![7.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        Frame::Metrics.write_v2(&mut writer).unwrap();
        writer.flush().unwrap();

        // replies arrive in request order
        for i in 0..4 {
            let scale = if i % 2 == 0 { 1.0 } else { 10.0 };
            match Response::read_v2(&mut reader).unwrap().unwrap() {
                Response::Estimates(e) => assert_eq!(e, vec![scale * i as f64]),
                other => panic!("reply {i}: expected estimates, got {other:?}"),
            }
        }
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownModel),
            other => panic!("expected unknown-model error, got {other:?}"),
        }
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadDim),
            other => panic!("expected bad-dim error, got {other:?}"),
        }
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Estimates(e) => assert_eq!(e, vec![70.0]),
            other => panic!("expected estimates after refusals, got {other:?}"),
        }
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            // answered as it is read, so the queries ahead of it may not
            // be counted yet: only the tenant set is certain
            Response::Metrics(text) => {
                assert!(
                    text.contains("selnet_tenant_generation{tenant=\"ten\"} 0"),
                    "metrics: {text}"
                );
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        drop(writer);
        drop(reader);
        drop(stream);
        server.shutdown();
        eng.shutdown();
    }

    /// A fleet metrics scrape over v2 lists every tenant.
    #[test]
    fn v2_fleet_stats_lists_all_tenants() {
        let registry = Arc::new(ModelRegistry::empty());
        registry.register("one", Scaled(1.0)).unwrap();
        registry.register("ten", Scaled(10.0)).unwrap();
        let eng = Engine::start(Arc::clone(&registry), &EngineConfig::default());
        let server = spawn_server(&eng);

        let stream = TcpStream::connect(server.addr).unwrap();
        let (mut reader, mut writer) = handshake(&stream);
        Frame::Metrics.write_v2(&mut writer).unwrap();
        writer.flush().unwrap();
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Metrics(text) => {
                assert!(
                    text.contains("selnet_requests_total 0\n"),
                    "metrics: {text}"
                );
                for name in ["one", "ten"] {
                    let sample = format!("selnet_tenant_generation{{tenant=\"{name}\"}} 0\n");
                    assert!(text.contains(&sample), "metrics: {text}");
                }
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        drop(writer);
        drop(reader);
        drop(stream);
        server.shutdown();
        eng.shutdown();
    }

    /// Slow enough that any request trips a 1µs slow-query threshold.
    struct Sleepy;
    impl SelectivityEstimator for Sleepy {
        fn estimate(&self, x: &[f32], t: f32) -> f64 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            x[0] as f64 + t as f64
        }
        fn query_dim(&self) -> Option<usize> {
            Some(1)
        }
        fn name(&self) -> &str {
            "sleepy"
        }
    }

    /// A v2 metrics scrape returns Prometheus text with fleet and
    /// per-tenant families.
    #[test]
    fn v2_metrics_frame_returns_prometheus_text() {
        let registry = Arc::new(ModelRegistry::empty());
        registry.register("alpha", Scaled(1.0)).unwrap();
        let eng = Engine::start(Arc::clone(&registry), &EngineConfig::default());
        let server = spawn_server(&eng);

        let stream = TcpStream::connect(server.addr).unwrap();
        let (mut reader, mut writer) = handshake(&stream);
        Frame::Query {
            model: Some("alpha".into()),
            x: vec![1.0],
            ts: vec![2.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        writer.flush().unwrap();
        // read the estimate before scraping: counters are recorded before
        // the reply is staged, so the scrape deterministically sees them
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Estimates(e) => assert_eq!(e, vec![2.0]),
            other => panic!("expected estimates, got {other:?}"),
        }
        Frame::Metrics.write_v2(&mut writer).unwrap();
        writer.flush().unwrap();
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Metrics(text) => {
                assert!(
                    text.contains("# TYPE selnet_requests_total counter"),
                    "metrics: {text}"
                );
                assert!(text.contains("selnet_requests_total 1"), "metrics: {text}");
                assert!(
                    text.contains("selnet_requests_total{tenant=\"alpha\"} 1"),
                    "metrics: {text}"
                );
                assert!(
                    text.contains("selnet_request_latency_us_bucket"),
                    "metrics: {text}"
                );
                assert!(
                    text.contains("selnet_tenant_generation{tenant=\"alpha\"} 0"),
                    "metrics: {text}"
                );
                assert!(!(text.contains("# span") || text.contains("# slow")));
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        drop(writer);
        drop(reader);
        drop(stream);
        server.shutdown();
        eng.shutdown();
    }

    /// The tracing acceptance criterion: a trace ID submitted over TCP is
    /// echoed in the v2 reply and appears in the slow-query log; a zero
    /// trace ID is minted server-side and echoed nonzero. A metrics scrape
    /// reads both back, with the traced request's spans.
    #[test]
    fn v2_traced_query_echoes_trace_id_and_lands_in_slow_log() {
        let eng = Engine::start(
            Arc::new(ModelRegistry::new(Sleepy)),
            &EngineConfig {
                slow_query_us: 1,
                trace_buffer: 64,
            },
        );
        let server = spawn_server(&eng);

        let stream = TcpStream::connect(server.addr).unwrap();
        let (mut reader, mut writer) = handshake(&stream);
        Frame::QueryTraced {
            trace_id: 0xC0FFEE,
            model: None,
            x: vec![1.0],
            ts: vec![2.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        Frame::QueryTraced {
            trace_id: 0, // ask the server to mint one
            model: None,
            x: vec![1.0],
            ts: vec![3.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        writer.flush().unwrap();

        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::EstimatesTraced { trace_id, values } => {
                assert_eq!(trace_id, 0xC0FFEE);
                assert_eq!(values, vec![3.0]);
            }
            other => panic!("expected traced estimates, got {other:?}"),
        }
        let minted = match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::EstimatesTraced { trace_id, values } => {
                assert_ne!(trace_id, 0, "server must mint a nonzero trace ID");
                assert_eq!(values, vec![4.0]);
                trace_id
            }
            other => panic!("expected traced estimates, got {other:?}"),
        };

        Frame::Metrics.write_v2(&mut writer).unwrap();
        writer.flush().unwrap();
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Metrics(text) => {
                for line in [
                    "# slow trace=12648430 rows=1 ".to_string(),
                    format!("# slow trace={minted} rows=1 "),
                    "# span submit trace=12648430 ".to_string(),
                ] {
                    assert!(text.contains(&format!("\n{line}")), "{line:?}: {text}");
                }
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        drop(writer);
        drop(reader);
        drop(stream);
        server.shutdown();
        eng.shutdown();
    }

    /// A `NaN` or an infinity in the query vector or the threshold grid is
    /// refused before it reaches a model — in process and over v2 — and
    /// the connection keeps serving.
    #[test]
    fn non_finite_queries_are_refused_on_every_path() {
        let eng = engine();
        let bad = [
            (vec![f32::NAN], vec![1.0]),
            (vec![1.0], vec![f32::NAN]),
            (vec![f32::INFINITY], vec![1.0]),
            (vec![1.0], vec![0.5, f32::NEG_INFINITY]),
        ];
        for (x, ts) in &bad {
            let req = Request::new(x.clone()).thresholds(ts.clone());
            for err in [
                eng.serve_blocking(&req).err(),
                eng.submit(req.clone()).err(),
            ] {
                assert!(
                    matches!(err, Some(SubmitError::NonFinite { .. })),
                    "{x:?} | {ts:?}: {err:?}"
                );
            }
        }

        let server = spawn_server(&eng);
        let stream = TcpStream::connect(server.addr).unwrap();
        let (mut reader, mut writer) = handshake(&stream);
        for (x, ts) in &bad {
            Frame::Query {
                model: None,
                x: x.clone(),
                ts: ts.clone(),
            }
            .write_v2(&mut writer)
            .unwrap();
        }
        Frame::Query {
            model: None,
            x: vec![1.0],
            ts: vec![2.0],
        }
        .write_v2(&mut writer)
        .unwrap();
        writer.flush().unwrap();
        for _ in &bad {
            match Response::read_v2(&mut reader).unwrap().unwrap() {
                Response::Error(e) => assert_eq!(e.code, ErrorCode::NonFinite),
                other => panic!("expected non-finite error, got {other:?}"),
            }
        }
        match Response::read_v2(&mut reader).unwrap().unwrap() {
            Response::Estimates(e) => assert_eq!(e, vec![3.0]),
            other => panic!("expected estimates after refusals, got {other:?}"),
        }
        drop((stream, reader, writer));
        server.shutdown();
        eng.shutdown();
    }

    /// A client whose version range doesn't overlap ours gets a version-0
    /// ack and a closed connection — not silence, not a hang.
    #[test]
    fn v2_handshake_rejects_alien_version_range() {
        let eng = engine();
        let server = spawn_server(&eng);
        let stream = TcpStream::connect(server.addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        Hello {
            min_version: 7,
            max_version: 9,
        }
        .write(&mut writer)
        .unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let ack = HelloAck::read(&mut reader).unwrap();
        assert_eq!(ack.version, 0, "no-overlap must be an explicit rejection");
        // and the server closes
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        drop(writer);
        server.shutdown();
        eng.shutdown();
    }
}
