//! The `selnet-serve` wire formats: versioned, type-tagged binary frames
//! and the line-oriented text protocol.
//!
//! ## Version negotiation
//!
//! A client opens the connection with a [`Hello`] — the 4-byte magic
//! `"SNV2"` followed by the lowest and highest protocol version it
//! speaks — and the server answers with a [`HelloAck`] carrying the
//! version it chose (the highest both sides support). A connection whose
//! first four bytes are *not* the magic is closed with `InvalidData`: the
//! handshake-less v1 framing of earlier builds is no longer served. The
//! magic decodes as a little-endian `u32` far above [`MAX_FRAME_LEN`], so
//! a length-prefixed frame sent without a handshake can never be taken
//! for one.
//!
//! ## Frames (after the handshake)
//!
//! Little-endian, length-prefixed, opcode-tagged:
//!
//! ```text
//! frame    := u32 payload_len | u8 opcode | body
//!
//! requests (client -> server)
//!   0x01 Query       : u16 model_len | model utf8 | u32 dim | dim x f32 query
//!                      | u32 m | m x f32 thresholds (model_len 0 = default)
//!   0x03 Metrics     : (empty body — asks for the fleet's Prometheus text)
//!   0x04 QueryTraced : u64 trace_id | then the Query body — the client's
//!                      trace ID is echoed back on the paired 0x84 reply
//!
//! responses (server -> client, one per request, in request order)
//!   0x81 Estimates       : u32 m | m x f64
//!   0x83 MetricsReply    : u32 len | len bytes utf8 (Prometheus text format)
//!   0x84 EstimatesTraced : u64 trace_id | u32 m | m x f64
//!   0xEE Error           : u8 code | u16 len | len bytes utf8 message
//! ```
//!
//! Opcodes `0x02` and `0x82` (a hand-formatted `key=value` stats report
//! and its reply) are retired and never reused: a frame carrying either
//! is refused like any unknown opcode. The Prometheus exposition is the
//! one counter report.
//!
//! Error codes are typed ([`ErrorCode`]): `1` unknown model, `2` bad
//! query dimension, `3` overloaded (admission control shed the request),
//! `4` shutting down, `5` non-finite query (a `NaN` or infinite value in
//! the query vector or the threshold grid). An error reply answers
//! exactly one request — the connection stays open and later pipelined
//! requests still get their own replies.
//!
//! ## Text protocol (stdin mode, used by CI)
//!
//! One query per line: an optional `@model` routing token, the query
//! vector, a `|` separator, then the threshold grid; the response is one
//! line of estimates. The one other command, `?metrics`, requests the
//! fleet's Prometheus text exposition, written as one `# ` comment line
//! per metric line. Blank lines and `#` comments are ignored. Refusals are mirrored as typed `!error <code> <message>`
//! lines.
//!
//! ```text
//! 0.12 -0.3 0.5 | 2.0 1.5 1.0 0.5
//! @alpha 0.12 -0.3 0.5 | 2.0 1.5 1.0 0.5
//! ?metrics
//! ```

use selnet_tensor::bytes::{read_u16, read_u32, read_u64, read_u8};
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (16 MiB) — a corrupt or hostile length
/// prefix must not trigger an absurd allocation.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Upper bound on a model-id field (bytes). Tenant names are short
/// human-chosen labels; anything longer is a corrupt frame.
pub const MAX_MODEL_LEN: u16 = 256;

/// The 4 bytes a client leads with. As a little-endian `u32` this is
/// `0x3256_4E53`, orders of magnitude above [`MAX_FRAME_LEN`] — a
/// length-prefixed frame can never begin with it.
pub const HELLO_MAGIC: [u8; 4] = *b"SNV2";

/// Lowest protocol version this build speaks.
pub const MIN_VERSION: u16 = 2;
/// Highest protocol version this build speaks.
pub const MAX_VERSION: u16 = 2;

/// Request opcodes (client to server).
mod opcode {
    pub const QUERY: u8 = 0x01;
    pub const METRICS: u8 = 0x03;
    pub const QUERY_TRACED: u8 = 0x04;
    pub const ESTIMATES: u8 = 0x81;
    pub const METRICS_REPLY: u8 = 0x83;
    pub const ESTIMATES_TRACED: u8 = 0x84;
    pub const ERROR: u8 = 0xEE;
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads a `u16 len | len bytes` UTF-8 model-id field.
fn read_model(p: &mut &[u8]) -> io::Result<Option<String>> {
    let len = read_u16(p)?;
    if len > MAX_MODEL_LEN {
        return Err(invalid(format!("model id of {len} bytes exceeds cap")));
    }
    if len == 0 {
        return Ok(None);
    }
    if p.len() < len as usize {
        return Err(invalid("model id truncated"));
    }
    let (head, tail) = p.split_at(len as usize);
    let name = std::str::from_utf8(head).map_err(|_| invalid("model id not utf8"))?;
    *p = tail;
    Ok(Some(name.to_string()))
}

fn write_model(buf: &mut Vec<u8>, model: Option<&str>) -> io::Result<()> {
    let bytes = model.unwrap_or("").as_bytes();
    if bytes.len() > MAX_MODEL_LEN as usize {
        return Err(invalid("model id too long"));
    }
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
    Ok(())
}

/// Writes a complete length-prefixed frame from an assembled payload.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(invalid("frame payload exceeds cap"));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads a length prefix + payload, enforcing the size cap. `Ok(None)`
/// only on clean EOF before the first byte.
fn read_payload(r: &mut impl Read, min_len: u32) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_clean_eof(r, &mut len_buf)? {
        return Ok(None);
    }
    let payload_len = u32::from_le_bytes(len_buf);
    if payload_len > MAX_FRAME_LEN {
        return Err(invalid(format!("frame length {payload_len} exceeds cap")));
    }
    if payload_len < min_len {
        return Err(invalid("frame too short"));
    }
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One parsed request frame. `Frame` is the protocol's primary request
/// type: a type-tagged enum on the wire (opcode byte under the length
/// prefix).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// An estimation request: query object + threshold grid, routed to
    /// `model` (`None` = the server's default tenant).
    Query {
        /// The tenant to route to; `None` is the default tenant.
        model: Option<String>,
        /// The query vector `x`.
        x: Vec<f32>,
        /// The thresholds to estimate at, in the client's order.
        ts: Vec<f32>,
    },
    /// A metrics scrape: asks for the whole fleet's telemetry in
    /// Prometheus text exposition format.
    Metrics,
    /// A [`Frame::Query`] carrying the client's own trace ID, echoed
    /// back on the paired [`Response::EstimatesTraced`] reply and
    /// attached to the server's slow-query log.
    QueryTraced {
        /// The client-chosen trace ID (`0` lets the server mint one, but
        /// then the echo is the only place the client learns it).
        trace_id: u64,
        /// The tenant to route to; `None` is the default tenant.
        model: Option<String>,
        /// The query vector `x`.
        x: Vec<f32>,
        /// The thresholds to estimate at, in the client's order.
        ts: Vec<f32>,
    },
}

impl Frame {
    /// Writes this request as a v2 opcode-tagged frame.
    pub fn write_v2(&self, w: &mut impl Write) -> io::Result<()> {
        let mut buf = Vec::new();
        match self {
            Frame::Query { model, x, ts } => {
                buf.push(opcode::QUERY);
                write_model(&mut buf, model.as_deref())?;
                buf.extend_from_slice(&(x.len() as u32).to_le_bytes());
                for &v in x {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&(ts.len() as u32).to_le_bytes());
                for &v in ts {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::Metrics => {
                buf.push(opcode::METRICS);
            }
            Frame::QueryTraced {
                trace_id,
                model,
                x,
                ts,
            } => {
                buf.push(opcode::QUERY_TRACED);
                buf.extend_from_slice(&trace_id.to_le_bytes());
                write_model(&mut buf, model.as_deref())?;
                buf.extend_from_slice(&(x.len() as u32).to_le_bytes());
                for &v in x {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&(ts.len() as u32).to_le_bytes());
                for &v in ts {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        write_frame(w, &buf)
    }

    /// Reads one v2 request frame. `Ok(None)` means the peer closed the
    /// connection cleanly (EOF before any frame byte); EOF *inside* a
    /// frame is `UnexpectedEof`.
    pub fn read_v2(r: &mut impl Read) -> io::Result<Option<Frame>> {
        let Some(payload) = read_payload(r, 1)? else {
            return Ok(None);
        };
        let mut p = payload.as_slice();
        let op = read_u8(&mut p)?;
        let frame = match op {
            opcode::QUERY => {
                let model = read_model(&mut p)?;
                let dim = read_u32(&mut p)?;
                let x = read_f32s(&mut p, dim, "query")?;
                let m = read_u32(&mut p)?;
                let ts = read_f32s(&mut p, m, "threshold grid")?;
                Frame::Query { model, x, ts }
            }
            opcode::METRICS => Frame::Metrics,
            opcode::QUERY_TRACED => {
                let trace_id = read_u64(&mut p)?;
                let model = read_model(&mut p)?;
                let dim = read_u32(&mut p)?;
                let x = read_f32s(&mut p, dim, "query")?;
                let m = read_u32(&mut p)?;
                let ts = read_f32s(&mut p, m, "threshold grid")?;
                Frame::QueryTraced {
                    trace_id,
                    model,
                    x,
                    ts,
                }
            }
            other => return Err(invalid(format!("unknown request opcode {other:#04x}"))),
        };
        if !p.is_empty() {
            return Err(invalid("trailing bytes in request frame"));
        }
        Ok(Some(frame))
    }
}

/// Fills `buf` completely, returning `Ok(false)` only when EOF arrived
/// before the *first* byte (a clean close). A partial fill is
/// `UnexpectedEof` — unlike `read_exact`, which can't tell the two apart.
pub(crate) fn read_exact_or_clean_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn read_f32s(p: &mut &[u8], count: u32, what: &str) -> io::Result<Vec<f32>> {
    if (p.len() as u64) < count as u64 * 4 {
        return Err(invalid(format!("{what} truncated: {count} floats claimed")));
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let mut b = [0u8; 4];
        p.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

/// The client half of the handshake: magic + the version range spoken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Lowest protocol version the client accepts.
    pub min_version: u16,
    /// Highest protocol version the client accepts.
    pub max_version: u16,
}

impl Default for Hello {
    fn default() -> Self {
        Hello {
            min_version: MIN_VERSION,
            max_version: MAX_VERSION,
        }
    }
}

impl Hello {
    /// Writes the magic + version range.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&HELLO_MAGIC)?;
        w.write_all(&self.min_version.to_le_bytes())?;
        w.write_all(&self.max_version.to_le_bytes())
    }

    /// Reads the version range, the magic having already been consumed
    /// (the server peeks it to pick a dialect before committing).
    pub fn read_after_magic(r: &mut impl Read) -> io::Result<Hello> {
        let min_version = read_u16(r)?;
        let max_version = read_u16(r)?;
        if min_version > max_version {
            return Err(invalid("hello version range is inverted"));
        }
        Ok(Hello {
            min_version,
            max_version,
        })
    }

    /// The version the server should speak for this client: the highest
    /// version both sides support, or `None` when the ranges don't
    /// overlap.
    pub fn negotiate(&self) -> Option<u16> {
        let high = self.max_version.min(MAX_VERSION);
        (high >= self.min_version && high >= MIN_VERSION).then_some(high)
    }
}

/// The server half of the handshake: the chosen version (`0` = no
/// overlap; the server closes the connection after sending it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloAck {
    /// The protocol version the server chose; `0` rejects the client.
    pub version: u16,
}

impl HelloAck {
    /// Writes the magic + chosen version.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&HELLO_MAGIC)?;
        w.write_all(&self.version.to_le_bytes())
    }

    /// Reads and validates the server's acknowledgement (client side).
    pub fn read(r: &mut impl Read) -> io::Result<HelloAck> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != HELLO_MAGIC {
            return Err(invalid("bad handshake magic from server"));
        }
        Ok(HelloAck {
            version: read_u16(r)?,
        })
    }
}

/// Typed refusal codes carried by [`Response::Error`] replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request named a model the registry does not hold.
    UnknownModel,
    /// The query vector's length does not match the routed model.
    BadDim,
    /// Admission control shed the request (bounded queue saturated).
    /// Safe to retry after backing off.
    Overloaded,
    /// The engine is shutting down; the connection is about to close.
    ShuttingDown,
    /// The query vector or the threshold grid holds a `NaN` or an
    /// infinity.
    NonFinite,
}

impl ErrorCode {
    /// The on-wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            ErrorCode::UnknownModel => 1,
            ErrorCode::BadDim => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::NonFinite => 5,
        }
    }

    /// Parses the on-wire byte.
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::UnknownModel),
            2 => Some(ErrorCode::BadDim),
            3 => Some(ErrorCode::Overloaded),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::NonFinite),
            _ => None,
        }
    }

    /// The token used by the text protocol's `!error` lines.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::BadDim => "bad-dim",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::NonFinite => "non-finite",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed per-request refusal: the connection survives, the request
/// does not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// What went wrong.
    pub code: ErrorCode,
    /// Human-readable detail (the tenant name, the expected dimension…).
    pub message: String,
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ErrorReply {}

/// A parsed response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Estimates, one per requested threshold, in request order.
    Estimates(Vec<f64>),
    /// Prometheus text exposition from a [`Frame::Metrics`] request.
    Metrics(String),
    /// Estimates answering a [`Frame::QueryTraced`], echoing the trace
    /// ID the server used.
    EstimatesTraced {
        /// The trace ID of the request this answers (the client's, or a
        /// server-minted one when the client sent `0`).
        trace_id: u64,
        /// Estimates, one per requested threshold, in request order.
        values: Vec<f64>,
    },
    /// A typed refusal.
    Error(ErrorReply),
}

impl Response {
    /// Writes this response as a v2 opcode-tagged frame.
    pub fn write_v2(&self, w: &mut impl Write) -> io::Result<()> {
        let mut buf = Vec::new();
        match self {
            Response::Estimates(values) => {
                buf.push(opcode::ESTIMATES);
                buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for &v in values {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Metrics(text) => {
                buf.push(opcode::METRICS_REPLY);
                buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
                buf.extend_from_slice(text.as_bytes());
            }
            Response::EstimatesTraced { trace_id, values } => {
                buf.push(opcode::ESTIMATES_TRACED);
                buf.extend_from_slice(&trace_id.to_le_bytes());
                buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for &v in values {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Error(e) => {
                buf.push(opcode::ERROR);
                buf.push(e.code.to_byte());
                let msg = e.message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                buf.extend_from_slice(&(len as u16).to_le_bytes());
                buf.extend_from_slice(&msg[..len]);
            }
        }
        write_frame(w, &buf)
    }

    /// Reads one v2 response frame (client side). `Ok(None)` on clean
    /// EOF.
    pub fn read_v2(r: &mut impl Read) -> io::Result<Option<Response>> {
        let Some(payload) = read_payload(r, 1)? else {
            return Ok(None);
        };
        let mut p = payload.as_slice();
        let op = read_u8(&mut p)?;
        let resp = match op {
            opcode::ESTIMATES => Response::Estimates(read_f64s(&mut p)?),
            opcode::METRICS_REPLY => {
                let len = read_u32(&mut p)? as usize;
                if p.len() != len {
                    return Err(invalid("metrics text length mismatch"));
                }
                let text =
                    String::from_utf8(p.to_vec()).map_err(|_| invalid("metrics text not utf8"))?;
                p = &[];
                Response::Metrics(text)
            }
            opcode::ESTIMATES_TRACED => {
                let trace_id = read_u64(&mut p)?;
                Response::EstimatesTraced {
                    trace_id,
                    values: read_f64s(&mut p)?,
                }
            }
            opcode::ERROR => {
                let code = ErrorCode::from_byte(read_u8(&mut p)?)
                    .ok_or_else(|| invalid("unknown error code"))?;
                let len = read_u16(&mut p)? as usize;
                if p.len() != len {
                    return Err(invalid("error message length mismatch"));
                }
                let message =
                    String::from_utf8(p.to_vec()).map_err(|_| invalid("error text not utf8"))?;
                p = &[];
                Response::Error(ErrorReply { code, message })
            }
            other => return Err(invalid(format!("unknown response opcode {other:#04x}"))),
        };
        if !p.is_empty() {
            return Err(invalid("trailing bytes in response frame"));
        }
        Ok(Some(resp))
    }
}

fn read_f64s(p: &mut &[u8]) -> io::Result<Vec<f64>> {
    let m = read_u32(p)? as usize;
    if (p.len() as u64) != m as u64 * 8 {
        return Err(invalid("estimate payload length mismatch"));
    }
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        let mut b = [0u8; 8];
        p.read_exact(&mut b)?;
        out.push(f64::from_le_bytes(b));
    }
    Ok(out)
}

/// One parsed line of the text protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum TextLine {
    /// An estimation request.
    Query(TextQuery),
    /// A metrics scrape (`?metrics`): the fleet's Prometheus text,
    /// written back as `# `-prefixed comment lines.
    Metrics,
}

impl TextLine {
    /// Parses one text-protocol line. Returns `Ok(None)` for blank lines
    /// and `#` comments.
    pub fn parse(line: &str) -> Result<Option<TextLine>, String> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        if let Some(rest) = trimmed.strip_prefix("?metrics") {
            if !rest.trim().is_empty() {
                return Err(format!("?metrics takes no arguments: {trimmed:?}"));
            }
            return Ok(Some(TextLine::Metrics));
        }
        Ok(TextQuery::parse(trimmed)?.map(TextLine::Query))
    }
}

/// One parsed query line of the text protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct TextQuery {
    /// The tenant to route to (`@model` token); `None` is the default
    /// tenant.
    pub model: Option<String>,
    /// The query vector.
    pub x: Vec<f32>,
    /// The threshold grid.
    pub ts: Vec<f32>,
}

impl TextQuery {
    /// Parses a `[@model] x... | t...` line. Returns `Ok(None)` for blank
    /// lines and `#` comments.
    pub fn parse(line: &str) -> Result<Option<TextQuery>, String> {
        let mut line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut model = None;
        if let Some(rest) = line.strip_prefix('@') {
            let (name, tail) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("@model token without a query in {line:?}"))?;
            if name.is_empty() {
                return Err(format!("empty @model token in {line:?}"));
            }
            model = Some(name.to_string());
            line = tail.trim();
        }
        let (xs, ts) = line
            .split_once('|')
            .ok_or_else(|| format!("missing '|' separator in {line:?}"))?;
        let parse_floats = |s: &str, what: &str| -> Result<Vec<f32>, String> {
            s.split_whitespace()
                .map(|tok| {
                    tok.parse::<f32>()
                        .map_err(|e| format!("bad {what} value {tok:?}: {e}"))
                })
                .collect()
        };
        let x = parse_floats(xs, "query")?;
        let ts = parse_floats(ts, "threshold")?;
        if x.is_empty() {
            return Err("empty query vector".into());
        }
        Ok(Some(TextQuery { model, x, ts }))
    }

    /// Renders this query as a text-protocol line.
    pub fn render(&self) -> String {
        let xs: Vec<String> = self.x.iter().map(|v| v.to_string()).collect();
        let ts: Vec<String> = self.ts.iter().map(|v| v.to_string()).collect();
        match &self.model {
            Some(m) => format!("@{} {} | {}", m, xs.join(" "), ts.join(" ")),
            None => format!("{} | {}", xs.join(" "), ts.join(" ")),
        }
    }
}

/// Renders a typed refusal as a text-protocol `!error` line.
pub fn render_text_error(e: &ErrorReply) -> String {
    format!("!error {} {}", e.code, e.message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_v2(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        frame.write_v2(&mut buf).unwrap();
        Frame::read_v2(&mut buf.as_slice()).unwrap().unwrap()
    }

    fn roundtrip_resp_v2(resp: &Response) -> Response {
        let mut buf = Vec::new();
        resp.write_v2(&mut buf).unwrap();
        Response::read_v2(&mut buf.as_slice()).unwrap().unwrap()
    }

    #[test]
    fn v2_roundtrip_query_stats_and_responses() {
        for model in [None, Some("alpha".to_string())] {
            let q = Frame::Query {
                model: model.clone(),
                x: vec![0.25, -1.5, 3.0],
                ts: vec![0.1, 0.2],
            };
            assert_eq!(roundtrip_v2(&q), q);
        }
        let e = Response::Estimates(vec![13.0, 12.5]);
        assert_eq!(roundtrip_resp_v2(&e), e);
        assert_eq!(roundtrip_v2(&Frame::Metrics), Frame::Metrics);
        let tq = Frame::QueryTraced {
            trace_id: 0xDEAD_BEEF_0042,
            model: Some("alpha".into()),
            x: vec![0.25, -1.5],
            ts: vec![0.1],
        };
        assert_eq!(roundtrip_v2(&tq), tq);
        let m = Response::Metrics("# TYPE selnet_requests_total counter\n".into());
        assert_eq!(roundtrip_resp_v2(&m), m);
        let te = Response::EstimatesTraced {
            trace_id: 0xDEAD_BEEF_0042,
            values: vec![13.0, 12.5],
        };
        assert_eq!(roundtrip_resp_v2(&te), te);
        for code in [
            ErrorCode::UnknownModel,
            ErrorCode::BadDim,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::NonFinite,
        ] {
            let err = Response::Error(ErrorReply {
                code,
                message: format!("details about {code}"),
            });
            assert_eq!(roundtrip_resp_v2(&err), err);
        }
    }

    #[test]
    fn handshake_roundtrip_and_negotiation() {
        let hello = Hello::default();
        let mut buf = Vec::new();
        hello.write(&mut buf).unwrap();
        assert_eq!(&buf[..4], &HELLO_MAGIC);
        let mut r = &buf[4..];
        let back = Hello::read_after_magic(&mut r).unwrap();
        assert_eq!(back, hello);
        assert_eq!(back.negotiate(), Some(MAX_VERSION));

        // a client from the future that still speaks our range
        let future = Hello {
            min_version: 2,
            max_version: 9,
        };
        assert_eq!(future.negotiate(), Some(MAX_VERSION));
        // a client that only speaks versions we don't
        let alien = Hello {
            min_version: 7,
            max_version: 9,
        };
        assert_eq!(alien.negotiate(), None);
        // inverted range is a decode error
        let mut buf = Vec::new();
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        assert!(Hello::read_after_magic(&mut buf.as_slice()).is_err());

        let ack = HelloAck { version: 2 };
        let mut buf = Vec::new();
        ack.write(&mut buf).unwrap();
        assert_eq!(HelloAck::read(&mut buf.as_slice()).unwrap(), ack);
        // corrupt ack magic
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(HelloAck::read(&mut bad.as_slice()).is_err());
    }

    /// A handshake-less (v1-style) connection starts with a length
    /// prefix; no admissible one reads as the magic, so the server's
    /// refusal of such a connection is never ambiguous — and a stray
    /// hello fed to a frame reader is refused by the length cap.
    #[test]
    fn hello_magic_can_never_be_a_v1_length_prefix() {
        assert!(u32::from_le_bytes(HELLO_MAGIC) > MAX_FRAME_LEN);
        let mut hello = Vec::new();
        Hello::default().write(&mut hello).unwrap();
        assert!(Frame::read_v2(&mut hello.as_slice()).is_err());
    }

    /// The PR 4 corruption-hardening standard, applied to v2: every
    /// strict prefix of every valid frame must be a read error, never a
    /// panic, never a silent partial parse.
    #[test]
    fn v2_truncation_sweep_every_prefix_errors() {
        let frames = [
            Frame::Query {
                model: Some("alpha".into()),
                x: vec![1.0, 2.0],
                ts: vec![0.5],
            },
            Frame::Query {
                model: None,
                x: vec![1.0],
                ts: vec![],
            },
            Frame::Metrics,
            Frame::QueryTraced {
                trace_id: 42,
                model: Some("alpha".into()),
                x: vec![1.0, 2.0],
                ts: vec![0.5],
            },
        ];
        for frame in &frames {
            let mut buf = Vec::new();
            frame.write_v2(&mut buf).unwrap();
            for cut in 1..buf.len() {
                assert!(
                    Frame::read_v2(&mut &buf[..cut]).is_err(),
                    "{frame:?}: prefix of {cut}/{} bytes must be an error",
                    buf.len()
                );
            }
        }
        let responses = [
            Response::Estimates(vec![1.0, 2.0]),
            Response::Metrics("# TYPE m counter\nm 1\n".into()),
            Response::EstimatesTraced {
                trace_id: 42,
                values: vec![1.0, 2.0],
            },
            Response::Error(ErrorReply {
                code: ErrorCode::Overloaded,
                message: "shed".into(),
            }),
        ];
        for resp in &responses {
            let mut buf = Vec::new();
            resp.write_v2(&mut buf).unwrap();
            for cut in 1..buf.len() {
                assert!(
                    Response::read_v2(&mut &buf[..cut]).is_err(),
                    "{resp:?}: prefix of {cut}/{} bytes must be an error",
                    buf.len()
                );
            }
        }
        // clean EOF before any byte is not an error
        assert_eq!(Frame::read_v2(&mut [].as_slice()).unwrap(), None);
        assert_eq!(Response::read_v2(&mut [].as_slice()).unwrap(), None);
    }

    #[test]
    fn v2_bad_opcode_is_rejected() {
        for op in [0x00u8, 0x05, 0x7F, 0x80, 0x83, 0xFF] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.push(op);
            assert!(
                Frame::read_v2(&mut buf.as_slice()).is_err(),
                "request opcode {op:#04x} must be rejected"
            );
        }
        for op in [0x00u8, 0x01, 0x02, 0x80, 0x85, 0x7F, 0xFF] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.push(op);
            assert!(
                Response::read_v2(&mut buf.as_slice()).is_err(),
                "response opcode {op:#04x} must be rejected"
            );
        }
        // the retired stats pair, well formed as it once was: a fleet
        // request (`u16 0` = no model) and an empty report
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.push(0x02);
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert!(Frame::read_v2(&mut buf.as_slice()).is_err());
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.push(0x82);
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(Response::read_v2(&mut buf.as_slice()).is_err());
        // unknown error code inside an otherwise well-formed error frame
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.push(opcode::ERROR);
        buf.push(0xAA); // no such code
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert!(Response::read_v2(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // huge frame length
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(Frame::read_v2(&mut huge.as_slice()).is_err());
        assert!(Response::read_v2(&mut huge.as_slice()).is_err());
        // inner float count larger than the payload (v2 query)
        let mut buf = Vec::new();
        buf.extend_from_slice(&11u32.to_le_bytes());
        buf.push(opcode::QUERY);
        buf.extend_from_slice(&0u16.to_le_bytes()); // default model
        buf.extend_from_slice(&1000u32.to_le_bytes()); // dim = 1000
        buf.extend_from_slice(&[0u8; 4]);
        assert!(Frame::read_v2(&mut buf.as_slice()).is_err());
        // model id longer than the cap
        let mut buf = Vec::new();
        let huge = MAX_MODEL_LEN + 1;
        buf.extend_from_slice(&(3u32 + huge as u32).to_le_bytes());
        buf.push(opcode::QUERY);
        buf.extend_from_slice(&huge.to_le_bytes());
        buf.extend(std::iter::repeat_n(b'a', huge as usize));
        assert!(Frame::read_v2(&mut buf.as_slice()).is_err());
        // model id claiming more bytes than the payload holds
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.push(opcode::QUERY);
        buf.extend_from_slice(&200u16.to_le_bytes());
        assert!(Frame::read_v2(&mut buf.as_slice()).is_err());
        // non-utf8 model id
        let mut buf = Vec::new();
        buf.extend_from_slice(&13u32.to_le_bytes());
        buf.push(opcode::QUERY);
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        buf.extend_from_slice(&0u32.to_le_bytes()); // dim 0
        buf.extend_from_slice(&0u32.to_le_bytes()); // no thresholds
        assert!(Frame::read_v2(&mut buf.as_slice()).is_err());
        // trailing garbage after a well-formed metrics request
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.push(opcode::METRICS);
        buf.push(0x00);
        assert!(Frame::read_v2(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn text_lines_parse_and_render() {
        let q = TextQuery::parse("0.5 -1 2.5 | 3 2 1").unwrap().unwrap();
        assert_eq!(q.model, None);
        assert_eq!(q.x, vec![0.5, -1.0, 2.5]);
        assert_eq!(q.ts, vec![3.0, 2.0, 1.0]);
        let back = TextQuery::parse(&q.render()).unwrap().unwrap();
        assert_eq!(back, q);
        assert_eq!(TextQuery::parse("  ").unwrap(), None);
        assert_eq!(TextQuery::parse("# comment").unwrap(), None);
        assert!(TextQuery::parse("1 2 3").is_err(), "missing separator");
        assert!(TextQuery::parse("a b | 1").is_err(), "bad float");
        assert!(TextQuery::parse("| 1").is_err(), "empty query");
    }

    #[test]
    fn text_model_routing_parses_and_renders() {
        let q = TextQuery::parse("@alpha 0.5 -1 | 3 2").unwrap().unwrap();
        assert_eq!(q.model.as_deref(), Some("alpha"));
        assert_eq!(q.x, vec![0.5, -1.0]);
        let back = TextQuery::parse(&q.render()).unwrap().unwrap();
        assert_eq!(back, q);
        assert!(TextQuery::parse("@ 0.5 | 1").is_err(), "empty model");
        assert!(TextQuery::parse("@alpha").is_err(), "model without query");
    }

    #[test]
    fn text_stats_lines_parse() {
        // `?metrics` is the one stats command: any other `?` word is
        // neither a command nor a query
        assert!(TextLine::parse("?counters").is_err());
        assert!(TextLine::parse("?counters alpha").is_err());
        assert_eq!(
            TextLine::parse("?metrics").unwrap(),
            Some(TextLine::Metrics)
        );
        assert_eq!(
            TextLine::parse("  ?metrics  ").unwrap(),
            Some(TextLine::Metrics)
        );
        assert!(TextLine::parse("?metrics alpha").is_err());
        assert_eq!(TextLine::parse("# comment").unwrap(), None);
        match TextLine::parse("@beta 1 | 2").unwrap() {
            Some(TextLine::Query(q)) => assert_eq!(q.model.as_deref(), Some("beta")),
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn text_error_lines_render_typed_codes() {
        let e = ErrorReply {
            code: ErrorCode::UnknownModel,
            message: "no tenant \"gamma\"".into(),
        };
        assert_eq!(
            render_text_error(&e),
            "!error unknown-model no tenant \"gamma\""
        );
    }
}
