//! # selnet-client
//!
//! A persistent-connection client for the `selnet-serve` v2 wire
//! protocol: one TCP connection per [`Connection`], negotiated up front
//! ([`Hello`]/ack), then **pipelined** request/reply traffic — up to a
//! bounded window of requests in flight at once, replies matched FIFO
//! (the protocol guarantees responses arrive in request order).
//!
//! Pipelining is what makes the server's cross-request coalescing real
//! over a network: a client that writes its next query before reading the
//! previous answer keeps the server's queue non-empty, so worker threads
//! drain multi-row batches instead of one row at a time. The
//! [`Connection::estimate`] / [`Connection::metrics`] conveniences cover
//! the blocking one-at-a-time case; [`Connection::send_query`] +
//! [`Connection::recv`] are the pipelined pair.
//!
//! Refusals are first-class: a server that doesn't know the model, rejects
//! the query shape, or sheds under load answers *that request* with a
//! typed error frame, surfaced here as [`Reply::Denied`] /
//! [`ClientError::Denied`] — the connection (and every other in-flight
//! request) keeps working.
//!
//! ```no_run
//! use selnet_client::Connection;
//!
//! let mut conn = Connection::connect("127.0.0.1:7878")?;
//! // blocking convenience: one routed request, one answer
//! let estimates = conn.estimate(Some("alpha"), &[0.1, 0.2], &[1.0, 0.5])?;
//! assert_eq!(estimates.len(), 2);
//! // scrape the fleet's counters (Prometheus text exposition)
//! let exposition = conn.metrics()?;
//! print!("{exposition}");
//! # Ok::<(), selnet_client::ClientError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use selnet_serve::protocol::{ErrorReply, Frame, Hello, HelloAck, Response};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Maximum requests in flight before [`Connection::send_query`]
    /// blocks to drain a reply. Larger windows coalesce better on the
    /// server; 1 degenerates to strict request/reply.
    pub window: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { window: 32 }
    }
}

/// What the server answered one request with.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Estimates, one per requested threshold, in request order.
    Estimates(Vec<f64>),
    /// Estimates plus the echoed trace ID (from
    /// [`Connection::send_query_traced`]).
    EstimatesTraced {
        /// The trace ID the server tagged this request with — the one the
        /// client sent, or a server-minted one if the client sent 0.
        trace_id: u64,
        /// Estimates, one per requested threshold, in request order.
        values: Vec<f64>,
    },
    /// A Prometheus-text metrics scrape (from
    /// [`Connection::send_metrics`]).
    Metrics(String),
    /// A typed refusal — this request was denied; the connection is fine.
    Denied(ErrorReply),
}

/// Why a blocking convenience call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connection refused, reset, protocol
    /// violation…). The connection is dead.
    Io(io::Error),
    /// The server refused this request with a typed error. The
    /// connection is still usable.
    Denied(ErrorReply),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Denied(e) => write!(f, "request denied: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One persistent, version-negotiated, pipelined connection to a
/// `selnet-serve` endpoint.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    version: u16,
    window: usize,
    /// Requests written (or buffered) whose replies have not been read
    /// off the socket yet.
    inflight: usize,
    /// Replies already read off the socket (to make window room) but not
    /// yet handed to the caller — still in FIFO order.
    ready: VecDeque<Reply>,
}

impl Connection {
    /// Connects and negotiates with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        Connection::connect_with(addr, &ClientConfig::default())
    }

    /// Connects, performs the version handshake, and returns the ready
    /// connection. Fails with `ConnectionRefused` if the server rejects
    /// our version range (ack version 0) and `InvalidData` if it answers
    /// with a version we never offered.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream);
        let hello = Hello::default();
        hello.write(&mut writer)?;
        writer.flush()?;
        let ack = HelloAck::read(&mut reader)?;
        if ack.version == 0 {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!(
                    "server rejected protocol versions {}..={}",
                    hello.min_version, hello.max_version
                ),
            ));
        }
        if ack.version < hello.min_version || ack.version > hello.max_version {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server chose version {} we never offered", ack.version),
            ));
        }
        Ok(Connection {
            reader,
            writer,
            version: ack.version,
            window: cfg.window.max(1),
            inflight: 0,
            ready: VecDeque::new(),
        })
    }

    /// The negotiated protocol version.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Requests written whose replies the caller has not received yet
    /// (whether or not they are still on the server).
    pub fn pending(&self) -> usize {
        self.inflight + self.ready.len()
    }

    /// Reads one reply off the socket (flushing buffered writes first —
    /// the server can't answer a request it hasn't seen).
    fn read_one(&mut self) -> io::Result<Reply> {
        self.writer.flush()?;
        match Response::read_v2(&mut self.reader)? {
            Some(Response::Estimates(v)) => Ok(Reply::Estimates(v)),
            Some(Response::EstimatesTraced { trace_id, values }) => {
                Ok(Reply::EstimatesTraced { trace_id, values })
            }
            Some(Response::Metrics(s)) => Ok(Reply::Metrics(s)),
            Some(Response::Error(e)) => Ok(Reply::Denied(e)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection with replies in flight",
            )),
        }
    }

    /// Writes one frame, first blocking to drain a reply if the in-flight
    /// window is full (the drained reply queues for [`Connection::recv`]).
    fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        while self.inflight >= self.window {
            let reply = self.read_one()?;
            self.inflight -= 1;
            self.ready.push_back(reply);
        }
        frame.write_v2(&mut self.writer)?;
        self.inflight += 1;
        Ok(())
    }

    /// Pipelines one estimation request (`model: None` = the server's
    /// default tenant) without waiting for its answer. Blocks only when
    /// the in-flight window is full. The matching [`Connection::recv`]
    /// returns replies in send order.
    pub fn send_query(&mut self, model: Option<&str>, x: &[f32], ts: &[f32]) -> io::Result<()> {
        self.send_frame(&Frame::Query {
            model: model.map(str::to_string),
            x: x.to_vec(),
            ts: ts.to_vec(),
        })
    }

    /// Pipelines one **traced** estimation request. The server tags the
    /// request with `trace_id` (0 = let the server mint one), echoes it in
    /// the [`Reply::EstimatesTraced`] answer, and records it in the
    /// slow-query log if the request crosses the slow threshold.
    pub fn send_query_traced(
        &mut self,
        trace_id: u64,
        model: Option<&str>,
        x: &[f32],
        ts: &[f32],
    ) -> io::Result<()> {
        self.send_frame(&Frame::QueryTraced {
            trace_id,
            model: model.map(str::to_string),
            x: x.to_vec(),
            ts: ts.to_vec(),
        })
    }

    /// Pipelines one metrics scrape (Prometheus text exposition: fleet
    /// aggregates plus per-tenant families).
    pub fn send_metrics(&mut self) -> io::Result<()> {
        self.send_frame(&Frame::Metrics)
    }

    /// Receives the oldest outstanding reply (FIFO). Errors if nothing is
    /// in flight.
    pub fn recv(&mut self) -> io::Result<Reply> {
        if let Some(reply) = self.ready.pop_front() {
            return Ok(reply);
        }
        if self.inflight == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recv with no request in flight",
            ));
        }
        let reply = self.read_one()?;
        self.inflight -= 1;
        Ok(reply)
    }

    /// Sends one request and waits for **its** reply, preserving FIFO
    /// order for any requests already pipelined (their replies queue for
    /// [`Connection::recv`]).
    fn call(&mut self, frame: &Frame) -> Result<Reply, ClientError> {
        self.send_frame(frame)?;
        while self.inflight > 1 {
            let reply = self.read_one()?;
            self.inflight -= 1;
            self.ready.push_back(reply);
        }
        let reply = self.read_one()?;
        self.inflight -= 1;
        Ok(reply)
    }

    /// Blocking convenience: one routed estimation request, one answer
    /// (one estimate per threshold, in order).
    pub fn estimate(
        &mut self,
        model: Option<&str>,
        x: &[f32],
        ts: &[f32],
    ) -> Result<Vec<f64>, ClientError> {
        let reply = self.call(&Frame::Query {
            model: model.map(str::to_string),
            x: x.to_vec(),
            ts: ts.to_vec(),
        })?;
        match reply {
            Reply::Estimates(v) => Ok(v),
            Reply::Denied(e) => Err(ClientError::Denied(e)),
            other => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mismatched reply to a query frame (FIFO order violated): {other:?}"),
            ))),
        }
    }

    /// Blocking convenience: one traced request, one answer — the echoed
    /// trace ID (server-minted when `trace_id` is 0) and the estimates.
    pub fn estimate_traced(
        &mut self,
        trace_id: u64,
        model: Option<&str>,
        x: &[f32],
        ts: &[f32],
    ) -> Result<(u64, Vec<f64>), ClientError> {
        let reply = self.call(&Frame::QueryTraced {
            trace_id,
            model: model.map(str::to_string),
            x: x.to_vec(),
            ts: ts.to_vec(),
        })?;
        match reply {
            Reply::EstimatesTraced { trace_id, values } => Ok((trace_id, values)),
            Reply::Denied(e) => Err(ClientError::Denied(e)),
            other => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mismatched reply to a traced query (FIFO order violated): {other:?}"),
            ))),
        }
    }

    /// Blocking convenience: one Prometheus-text metrics scrape of the
    /// whole serving fleet.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let reply = self.call(&Frame::Metrics)?;
        match reply {
            Reply::Metrics(text) => Ok(text),
            Reply::Denied(e) => Err(ClientError::Denied(e)),
            other => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mismatched reply to a metrics frame (FIFO order violated): {other:?}"),
            ))),
        }
    }
}
