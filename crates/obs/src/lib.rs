//! # selnet-obs
//!
//! The dependency-free observability core of the SelNet serving stack:
//!
//! * **Metrics** — lock-free log-bucketed [`Histogram`]s with mergeable
//!   [`HistogramSnapshot`]s and quantile queries ([`hist`]), plus the
//!   atomic [`Counter`] ([`metrics`]). Recording is a relaxed atomic op
//!   per sample — no lock, no allocation, no sample cap — so percentiles
//!   stay exact-to-bucket over unbounded serving runs with zero dropped
//!   samples. Both are plain fields of whoever counts the events; a
//!   wider view (a fleet of tenants) is the sum of the counters and the
//!   [`HistogramSnapshot::merge`] of the snapshots, taken at read time.
//! * **Tracing** — a fixed-capacity ring-buffer [`SpanRecorder`] with
//!   RAII [`SpanGuard`]s and nanosecond timestamps, per-request
//!   trace IDs ([`next_trace_id`]), and a bounded [`SlowQueryLog`]
//!   ([`trace`]). A process-global recorder ([`trace::global`]) lets
//!   library stages (the curve forward, retrain decisions, snapshot
//!   IO) record without plumbing.
//! * **Exposition** — Prometheus text format rendering ([`expo`]):
//!   `# HELP`/`# TYPE` headers, labeled sample lines, and the cumulative
//!   `_bucket{le=...}`/`_sum`/`_count` histogram convention, as free
//!   functions a scrape calls family by family — there is no registry.
//!
//! The crate deliberately depends on nothing (std only), so every layer
//! of the workspace — tensor substrate, SelNet core, the serving stack —
//! can record into it without dependency cycles. The structural contract
//! consumers rely on: observability never perturbs served results, and a
//! disabled recorder costs one relaxed atomic load per probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::{bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot, SUB_BUCKETS};
pub use metrics::Counter;
pub use trace::{next_trace_id, SlowQuery, SlowQueryLog, Span, SpanGuard, SpanRecorder};
