//! Connection handling: the TCP accept loop and the stdin (text) loop,
//! both draining into one shared [`Engine`].
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
//! exactly one request — the connection survives.

use crate::engine::{Engine, ReplyHandle, Request, SubmitError};
use crate::protocol::{self, ErrorCode, ErrorReply, Frame, Hello, HelloAck, Response, TextLine};
use selnet_eval::SelectivityEstimator;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
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

/// Maps an engine refusal onto the text loop's `io::Error`
/// vocabulary: shutdown reads as a broken pipe, anything else (a
/// mis-routed or mis-shaped query) as invalid data.
fn submit_err_to_io(e: SubmitError) -> io::Error {
    match e {
        SubmitError::ShutDown => io::Error::new(io::ErrorKind::BrokenPipe, "engine shut down"),
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

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
                    Frame::Query { model, x, ts } => {
                        let req = Request::new(x).thresholds(ts).model_opt(model);
                        match engine.submit(req) {
                            Ok(handle) => PendingReply::Wait(handle, None),
                            // a typed refusal answers this request only —
                            // the connection (and its other in-flight
                            // requests) keep going
                            Err(e) => PendingReply::Ready(Response::Error(submit_err_to_reply(&e))),
                        }
                    }
                    Frame::Metrics => PendingReply::Ready(Response::Metrics(engine.metrics_text())),
                    Frame::QueryTraced {
                        trace_id,
                        model,
                        x,
                        ts,
                    } => {
                        // mint here (not in the engine) when the client
                        // sent 0, so the echo can tell the client which ID
                        // to look for in the slow-query log
                        let trace_id = if trace_id == 0 {
                            selnet_obs::next_trace_id()
                        } else {
                            trace_id
                        };
                        let req = Request::new(x)
                            .thresholds(ts)
                            .model_opt(model)
                            .traced(trace_id);
                        match engine.submit(req) {
                            Ok(handle) => PendingReply::Wait(handle, Some(trace_id)),
                            Err(e) => PendingReply::Ready(Response::Error(submit_err_to_reply(&e))),
                        }
                    }
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

/// The CI-friendly text loop: parses [`TextLine`]s from `input`, answers
/// each on one line of `output`, and returns the number of queries
/// answered with estimates. Parse errors abort with `InvalidData` (a
/// replay file is trusted input; silently skipping a bad line would hide
/// a broken generator), but **engine refusals** — an unknown `@model`, a
/// mis-shaped query, a non-finite value, admission control — are
/// mirrored as typed `!error <code> <message>` lines and the loop
/// continues, matching the v2 wire contract. A `?metrics` line answers
/// with the Prometheus
/// exposition, one `# `-prefixed line per metric line (comments to any
/// downstream parser).
pub fn serve_lines<M>(
    engine: &Engine<M>,
    input: &mut impl BufRead,
    output: &mut impl Write,
) -> io::Result<u64>
where
    M: SelectivityEstimator + Send + Sync + 'static,
{
    let mut served = 0u64;
    for line in input.lines() {
        let line = line?;
        let parsed =
            TextLine::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        match parsed {
            None => continue,
            Some(TextLine::Metrics) => {
                for mline in engine.metrics_text().lines() {
                    writeln!(output, "# {mline}")?;
                }
            }
            Some(TextLine::Query(q)) => {
                let req = Request::new(q.x).thresholds(q.ts).model_opt(q.model);
                match engine.serve_blocking(&req) {
                    Ok(estimates) => {
                        let rendered: Vec<String> =
                            estimates.iter().map(|v| v.to_string()).collect();
                        writeln!(output, "{}", rendered.join(" "))?;
                        served += 1;
                    }
                    Err(SubmitError::ShutDown) => {
                        return Err(submit_err_to_io(SubmitError::ShutDown))
                    }
                    Err(e) => {
                        writeln!(
                            output,
                            "{}",
                            protocol::render_text_error(&submit_err_to_reply(&e))
                        )?;
                    }
                }
            }
        }
    }
    output.flush()?;
    Ok(served)
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
            &EngineConfig {
                workers: 2,
                ..Default::default()
            },
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

    #[test]
    fn text_loop_answers_queries_and_skips_comments() {
        let eng = engine();
        let input = "# header\n1.0 | 0.5 1.5\n\n2.0 | 3.0\n";
        let mut out = Vec::new();
        let served = serve_lines(&eng, &mut input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["1.5 2.5", "5"]);
        eng.shutdown();
    }

    #[test]
    fn text_loop_rejects_malformed_lines() {
        let eng = engine();
        let mut out = Vec::new();
        let err =
            serve_lines(&eng, &mut "not a query\n".as_bytes(), &mut out).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        eng.shutdown();
    }

    #[test]
    fn text_loop_routes_models_reports_stats_and_mirrors_errors() {
        let registry = Arc::new(ModelRegistry::empty());
        registry.register("one", Scaled(1.0)).unwrap();
        registry.register("ten", Scaled(10.0)).unwrap();
        let eng = Engine::start(Arc::clone(&registry), &EngineConfig::default());
        let input = "@ten 1.0 | 2.0\n@one 1.0 | 2.0\n@ghost 1.0 | 2.0\n?metrics\n";
        let mut out = Vec::new();
        let served = serve_lines(&eng, &mut input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 2, "the ghost query is refused, not served");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "20");
        assert_eq!(lines[1], "2");
        assert!(
            lines[2].starts_with("!error unknown-model"),
            "line: {}",
            lines[2]
        );
        // the exposition: every line comment-prefixed so downstream
        // parsers skip it, the fleet and each tenant counted apart
        assert!(lines[3..].iter().all(|l| l.starts_with("# ")), "{text}");
        for sample in [
            "# selnet_requests_total 2",
            "# selnet_requests_total{tenant=\"one\"} 1",
            "# selnet_requests_total{tenant=\"ten\"} 1",
            "# selnet_tenant_generation{tenant=\"ten\"} 0",
        ] {
            assert!(lines.contains(&sample), "missing {sample:?} in:\n{text}");
        }
        eng.shutdown();
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
        let eng = Engine::start(
            Arc::clone(&registry),
            &EngineConfig {
                workers: 2,
                ..Default::default()
            },
        );
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
    /// per-tenant families, and `?metrics` mirrors it over the text loop.
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
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        drop(writer);
        drop(reader);
        drop(stream);
        server.shutdown();
        eng.shutdown();

        // the text protocol exposes the same text, comment-prefixed
        let eng = engine();
        let mut out = Vec::new();
        serve_lines(&eng, &mut "?metrics\n".as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.lines().all(|l| l.starts_with("# ")),
            "metrics lines must be comments: {text}"
        );
        assert!(text.contains("selnet_requests_total"), "text: {text}");
        eng.shutdown();
    }

    /// The tracing acceptance criterion: a trace ID submitted over TCP is
    /// echoed in the v2 reply and appears in the slow-query log; a zero
    /// trace ID is minted server-side and echoed nonzero.
    #[test]
    fn v2_traced_query_echoes_trace_id_and_lands_in_slow_log() {
        let eng = Engine::start(
            Arc::new(ModelRegistry::new(Sleepy)),
            &EngineConfig {
                workers: 1,
                slow_query_us: 1,
                ..Default::default()
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

        let slow = eng.slow_queries();
        assert!(
            slow.iter().any(|q| q.trace_id == 0xC0FFEE),
            "client trace ID missing from slow-query log: {slow:?}"
        );
        assert!(
            slow.iter().any(|q| q.trace_id == minted),
            "minted trace ID missing from slow-query log: {slow:?}"
        );
        drop(writer);
        drop(reader);
        drop(stream);
        server.shutdown();
        eng.shutdown();
    }

    /// A `NaN` or an infinity in the query vector or the threshold grid is
    /// refused before it reaches a model — in process, over v2 and over
    /// the text loop — and the connection keeps serving.
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

        let input = "NaN | 1.0\n1.0 | NaN\n1.0 | inf\n1.0 | 2.0\n";
        let mut out = Vec::new();
        let served = serve_lines(&eng, &mut input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 1, "only the finite query is answered");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        for line in &lines[..3] {
            assert!(line.starts_with("!error non-finite"), "line: {line}");
        }
        assert_eq!(lines[3], "3");
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
