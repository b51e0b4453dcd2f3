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
//! * [`engine`] — a multi-threaded engine that resolves each [`Request`]
//!   to its tenant up front, queues it on the one request queue its
//!   workers drain, coalesces concurrent queries into **batched** curve
//!   forwards (grouped per
//!   tenant, one `estimate_into` call per group, bit-identical to
//!   per-query evaluation), and **sheds load** with
//!   [`SubmitError::Overloaded`] when
//!   its bounded queue saturates. It sizes itself: one worker per
//!   `selnet_tensor::parallel::fork_threads()`, waves of at most 64
//!   `(x, t)` rows, and a bound of 4096 queued rows per worker;
//! * [`protocol`] — the versioned binary wire format the `selnet-serve`
//!   binary speaks over TCP (handshake, opcode-tagged frames, model
//!   routing, typed error replies) and the line-oriented replay format
//!   `selnet-client replay` reads;
//! * [`stats`] — per-tenant telemetry on `selnet-obs` primitives:
//!   lock-free latency / batch-occupancy / retrain histograms (unbounded,
//!   zero dropped samples), throughput / shed / slow-request
//!   counters, and the bounded slow-query log. An event is counted once,
//!   in its tenant's record; the fleet view is their fold at read time,
//!   and the Prometheus exposition below is the one report of both.
//!
//! On top of those, the engine is a **flight recorder**: per-request
//! trace IDs (client-supplied or server-minted, echoed on v2
//! `EstimatesTraced` replies), a ring-buffer span recorder covering the
//! request pipeline (batch-stage spans `coalesce` → `generation_bind` →
//! `plan_replay` → `reply` for every batch; per-request spans sampled —
//! paid only by requests that bring a trace ID; `plan_replay` times the
//! wave's `estimate_into` call and keeps its name because the benchmark
//! reads it as `engine.plan_replay_us_p50`), and a Prometheus text
//! exposition ([`Engine::metrics_text`]). A v2 `Metrics` frame reads all of it:
//! the exposition, then the span rings and the slow-query log as `# `
//! comment lines. Observability never changes an answer: on vs off
//! serves bit-identical answers (pinned by
//! `observability_on_and_off_serve_bit_identical_answers`); its cost is
//! recorded, not guarded, as the benchmark's `obs.trace_overhead_ratio`.
//!
//! The `selnet-client` crate speaks the binary protocol over persistent
//! pipelined connections; [`server`] hosts it behind one listener and
//! closes, with a typed error, a connection that does not open with the
//! handshake. Both binaries read their flags with [`cli::Options`].
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
//!   under any concurrency are bit-identical to the model's own
//!   sequential `estimate_many` over the same generation.
//! * Refusals are typed and cheap: an unknown model, a mis-shaped query,
//!   a `NaN` or infinite value, or a saturated queue answers with a v2
//!   error frame before a worker thread ever sees the request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod engine;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;

pub use engine::{Engine, EngineConfig, Request, SubmitError};
pub use protocol::{ErrorCode, ErrorReply, Frame, Response, TextQuery};
pub use registry::{ModelRegistry, Tenant, UpdateHandle};
pub use stats::{ServeStats, StatsSnapshot};
