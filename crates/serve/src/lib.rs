//! # selnet-serve
//!
//! The online-serving subsystem: everything between a trained
//! [`PartitionedSelNet`](selnet_core::PartitionedSelNet) and a query
//! optimizer that needs selectivity estimates *now*, under concurrency,
//! while §5.4 drift-triggered retraining runs in the background — for a
//! whole **fleet of models behind one endpoint**, not just one.
//!
//! The subsystem is four layers, each usable on its own:
//!
//! * [`registry`] — a **multi-tenant** model registry: named tenants,
//!   each with its own generation counter, atomic hot-swap slot,
//!   background-update handle, and [`stats`] record; readers grab an
//!   `Arc` snapshot, a publisher replaces it without blocking in-flight
//!   requests;
//! * [`engine`] — a sharded, multi-threaded request queue that resolves
//!   each [`Request`] to its tenant up front, coalesces
//!   concurrent queries into **batched** plan replays (grouped per
//!   tenant, one `estimate_into` call per group, bit-identical to
//!   per-query evaluation), and **sheds load** with
//!   [`SubmitError::Overloaded`] when
//!   its bounded queues saturate;
//! * [`protocol`] — the versioned binary wire format (handshake,
//!   opcode-tagged frames, model routing, typed error replies) and the
//!   line-oriented text format spoken by the `selnet-serve` binary over
//!   TCP and stdin respectively;
//! * [`stats`] — per-tenant telemetry on `selnet-obs` primitives:
//!   lock-free latency / batch-occupancy / retrain histograms (unbounded,
//!   zero dropped samples), throughput / inline / shed / slow-request
//!   counters, and the bounded slow-query log. An event is counted once,
//!   in its tenant's record; the fleet view is their fold at read time,
//!   and the Prometheus exposition below is the one report of both.
//!
//! On top of those, the engine is a **flight recorder**: per-request
//! trace IDs (client-supplied or server-minted, echoed on v2
//! `EstimatesTraced` replies), a ring-buffer span recorder covering the
//! request pipeline (batch-stage spans `coalesce` → `generation_bind` →
//! `plan_replay` → `reply` for every batch; per-request spans sampled —
//! paid only by requests that bring a trace ID), and a Prometheus text
//! exposition
//! ([`Engine::metrics_text`], served by the v2 `Metrics` frame and the
//! `?metrics` text command). All of it is contractually free:
//! observability on vs off serves bit-identical answers, and CI bounds
//! the armed engine's hot-path overhead at 3%.
//!
//! The `selnet-client` crate speaks the binary protocol over persistent
//! pipelined connections; [`server`] hosts it behind one listener and
//! closes, with a typed error, a connection that does not open with the
//! handshake.
//!
//! Model snapshots travel as `SELNETP1` streams (see
//! `selnet_core::persist`): `selnet-serve train-tiny` writes one, the
//! server loads one per tenant (`--model NAME=PATH`), and a background
//! [`spawn_update`](registry::Tenant::spawn_update) retrain publishes a
//! fresh generation for its tenant while every other tenant keeps
//! serving undisturbed.
//!
//! ## Consistency guarantees
//!
//! * Every request is answered by exactly **one** generation of **its
//!   own** tenant: routing happens before queueing, a batch binds each
//!   tenant's snapshot once, and a request is never split across batches.
//!   A hot swap mid-traffic therefore can never produce a response that
//!   mixes two models — every response is monotone in `t` (Lemma 1) no
//!   matter when the swap lands — and can never perturb another tenant.
//! * Batching never changes an answer: the batched forward is bit-identical
//!   per row to single-query evaluation (pinned by
//!   `predict_batch_matches_predict_many` in `selnet-core`), so results
//!   under any concurrency are bit-identical to a sequential
//!   `estimate_many` over the same generation.
//! * Refusals are typed and cheap: an unknown model, a mis-shaped query,
//!   a `NaN` or infinite value, or a saturated queue answers with a v2
//!   error frame (or a text-mode `!error` line) before a worker thread
//!   ever sees the request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;

pub use engine::{Engine, EngineConfig, Request, SubmitError};
pub use protocol::{ErrorCode, ErrorReply, Frame, Response, TextQuery};
pub use registry::{ModelRegistry, Tenant, UpdateHandle};
pub use stats::{ServeStats, StatsSnapshot};
