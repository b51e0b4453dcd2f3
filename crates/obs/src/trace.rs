//! The flight recorder: a fixed-capacity ring of timing spans, trace-ID
//! minting, and the bounded slow-query log.
//!
//! A [`SpanRecorder`] is a preallocated ring of span slots: recording a
//! span claims the next slot with one atomic increment and writes it
//! under that slot's own (uncontended) mutex — no allocation after the
//! ring is enabled, and a disabled recorder costs one relaxed load per
//! probe. Spans carry nanosecond timestamps relative to the recorder's
//! epoch, a static stage name, the request's trace ID, and two
//! kind-specific detail words (row counts, generations, epochs).
//!
//! [`next_trace_id`] mints process-unique request IDs; the serving stack
//! stamps one on every request at submit and threads it through queueing,
//! batching, and the wire protocol, so one slow request's spans can be
//! joined across stages after the fact.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique trace ID (never 0 — 0 means "unassigned").
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// One recorded timing span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The request's trace ID (0 for batch- or system-level spans).
    pub trace_id: u64,
    /// Static stage name (`"plan_replay"`, `"queue_wait"`, ...).
    pub kind: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// First kind-specific detail word (e.g. rows, generation, epochs).
    pub a: u64,
    /// Second kind-specific detail word.
    pub b: u64,
}

/// A fixed-capacity ring of [`Span`]s. Disabled by default; enabling
/// allocates the ring once, after which recording never allocates.
pub struct SpanRecorder {
    epoch: Instant,
    enabled: AtomicBool,
    head: AtomicU64,
    slots: RwLock<Vec<Mutex<Span>>>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl SpanRecorder {
    /// A recorder with no ring: every probe is a single relaxed load and
    /// every record is a no-op until [`SpanRecorder::enable`].
    pub fn disabled() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            head: AtomicU64::new(0),
            slots: RwLock::new(Vec::new()),
        }
    }

    /// A recorder with a `capacity`-span ring, already enabled
    /// (`capacity == 0` gives a disabled recorder).
    pub fn with_capacity(capacity: usize) -> Self {
        let rec = Self::disabled();
        rec.enable(capacity);
        rec
    }

    /// Allocates a `capacity`-span ring and starts recording. The one
    /// allocation of the recorder's lifetime; `0` disables instead.
    pub fn enable(&self, capacity: usize) {
        let mut slots = self.slots.write().expect("span ring poisoned");
        if capacity == 0 {
            self.enabled.store(false, Ordering::Release);
            slots.clear();
            return;
        }
        let empty = Span {
            trace_id: 0,
            kind: "",
            start_ns: 0,
            dur_ns: 0,
            a: 0,
            b: 0,
        };
        *slots = (0..capacity).map(|_| Mutex::new(empty.clone())).collect();
        self.head.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording (the ring's contents stay readable via
    /// [`SpanRecorder::snapshot`]).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether spans are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one finished span (no-op while disabled).
    pub fn record(
        &self,
        kind: &'static str,
        trace_id: u64,
        start_ns: u64,
        dur_ns: u64,
        a: u64,
        b: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let slots = self.slots.read().expect("span ring poisoned");
        if slots.is_empty() {
            return;
        }
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) % slots.len() as u64) as usize;
        *slots[idx].lock().expect("span slot poisoned") = Span {
            trace_id,
            kind,
            start_ns,
            dur_ns,
            a,
            b,
        };
    }

    /// Records a span that started at `started` and ends now.
    pub fn record_since(
        &self,
        kind: &'static str,
        trace_id: u64,
        started: Instant,
        a: u64,
        b: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let dur_ns = started.elapsed().as_nanos() as u64;
        let end_ns = self.now_ns();
        self.record(kind, trace_id, end_ns.saturating_sub(dur_ns), dur_ns, a, b);
    }

    /// Opens a RAII span guard: the span is recorded when the guard
    /// drops. On a disabled recorder the guard is inert and costs only
    /// the enabled probe.
    pub fn span(&self, kind: &'static str, trace_id: u64) -> SpanGuard<'_> {
        let armed = self.is_enabled();
        SpanGuard {
            recorder: self,
            kind,
            trace_id,
            started: armed.then(Instant::now),
            a: 0,
            b: 0,
        }
    }

    /// The recorded spans, oldest first, skipping never-written slots.
    /// Total spans ever recorded may exceed the capacity — the ring keeps
    /// the newest.
    pub fn snapshot(&self) -> Vec<Span> {
        let slots = self.slots.read().expect("span ring poisoned");
        if slots.is_empty() {
            return Vec::new();
        }
        let head = self.head.load(Ordering::Relaxed);
        let n = slots.len() as u64;
        let written = head.min(n);
        let start = head.saturating_sub(written);
        (start..head)
            .map(|i| {
                slots[(i % n) as usize]
                    .lock()
                    .expect("span slot poisoned")
                    .clone()
            })
            .filter(|s| !s.kind.is_empty())
            .collect()
    }

    /// Total spans recorded since the ring was (re-)enabled — may exceed
    /// the ring capacity.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }
}

/// RAII span: times from creation to drop, then records into its
/// [`SpanRecorder`]. Created by [`SpanRecorder::span`] or the
/// [`span!`](crate::span) macro.
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    kind: &'static str,
    trace_id: u64,
    /// `None` when the recorder was disabled at creation (inert guard).
    started: Option<Instant>,
    a: u64,
    b: u64,
}

impl SpanGuard<'_> {
    /// Attaches the two kind-specific detail words.
    pub fn detail(mut self, a: u64, b: u64) -> Self {
        self.a = a;
        self.b = b;
        self
    }

    /// Updates the detail words on an already-open guard.
    pub fn set_detail(&mut self, a: u64, b: u64) {
        self.a = a;
        self.b = b;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.recorder
                .record_since(self.kind, self.trace_id, started, self.a, self.b);
        }
    }
}

/// Opens a RAII span on a recorder: `span!(recorder, "stage", trace_id)`.
/// Sugar for [`SpanRecorder::span`].
#[macro_export]
macro_rules! span {
    ($recorder:expr, $kind:expr, $trace_id:expr) => {
        $recorder.span($kind, $trace_id)
    };
}

/// The process-global recorder that instrumented library stages (the
/// curve forward, retrain decisions and snapshot IO in `selnet-core`)
/// record into. Disabled until someone —
/// normally the `selnet-serve` binary's `--trace-buffer` knob — calls
/// [`SpanRecorder::enable`] on it.
pub fn global() -> &'static SpanRecorder {
    static GLOBAL: OnceLock<SpanRecorder> = OnceLock::new();
    GLOBAL.get_or_init(SpanRecorder::disabled)
}

/// One slow request: which request (trace ID), how big, how slow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// The request's trace ID.
    pub trace_id: u64,
    /// `(x, t)` rows the request carried.
    pub rows: u64,
    /// End-to-end latency, microseconds.
    pub latency_us: u64,
}

/// A bounded ring of the most recent slow queries. The caller owns the
/// threshold decision; the log just keeps the newest `capacity` entries
/// (and a total count of everything ever pushed).
pub struct SlowQueryLog {
    capacity: usize,
    total: AtomicU64,
    entries: Mutex<Vec<SlowQuery>>,
    head: AtomicU64,
}

impl SlowQueryLog {
    /// An empty log keeping at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SlowQueryLog {
            capacity,
            total: AtomicU64::new(0),
            entries: Mutex::new(Vec::with_capacity(capacity)),
            head: AtomicU64::new(0),
        }
    }

    /// Pushes one slow query, evicting the oldest entry when full.
    pub fn push(&self, entry: SlowQuery) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock().expect("slow log poisoned");
        if entries.len() < self.capacity {
            entries.push(entry);
        } else {
            let idx = (self.head.load(Ordering::Relaxed) % self.capacity as u64) as usize;
            entries[idx] = entry;
        }
        self.head.fetch_add(1, Ordering::Relaxed);
    }

    /// Every slow query ever pushed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQuery> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let entries = self.entries.lock().expect("slow log poisoned");
        if entries.len() < self.capacity {
            return entries.clone();
        }
        let split = (self.head.load(Ordering::Relaxed) % self.capacity as u64) as usize;
        let mut out = Vec::with_capacity(entries.len());
        out.extend_from_slice(&entries[split..]);
        out.extend_from_slice(&entries[..split]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = SpanRecorder::disabled();
        rec.record("x", 1, 0, 10, 0, 0);
        drop(rec.span("y", 2));
        assert!(rec.snapshot().is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn ring_keeps_the_newest_spans_in_order() {
        let rec = SpanRecorder::with_capacity(4);
        for i in 1..=6u64 {
            rec.record("stage", i, i * 100, 10, 0, 0);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 4);
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![3, 4, 5, 6], "oldest evicted, order kept");
        assert_eq!(rec.recorded(), 6);
    }

    #[test]
    fn guard_records_on_drop_with_details() {
        let rec = SpanRecorder::with_capacity(8);
        {
            let _g = rec.span("plan_replay", 42).detail(64, 3);
        }
        {
            let mut g = span!(rec, "queue_wait", 43);
            g.set_detail(1, 0);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, "plan_replay");
        assert_eq!((spans[0].trace_id, spans[0].a, spans[0].b), (42, 64, 3));
        assert_eq!(spans[1].kind, "queue_wait");
    }

    #[test]
    fn partially_filled_ring_skips_empty_slots() {
        let rec = SpanRecorder::with_capacity(16);
        rec.record("only", 7, 1, 2, 0, 0);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, 7);
    }

    #[test]
    fn concurrent_recording_is_safe_and_bounded() {
        let rec = Arc::new(SpanRecorder::with_capacity(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        rec.record("w", t * 10_000 + i, i, 1, 0, 0);
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 4000);
        assert!(rec.snapshot().len() <= 64);
    }

    #[test]
    fn reenabling_resizes_and_resets() {
        let rec = SpanRecorder::with_capacity(2);
        rec.record("a", 1, 0, 0, 0, 0);
        rec.enable(8);
        assert!(rec.snapshot().is_empty(), "re-enable clears the ring");
        rec.record("b", 2, 0, 0, 0, 0);
        assert_eq!(rec.snapshot().len(), 1);
        rec.enable(0);
        assert!(!rec.is_enabled());
    }

    #[test]
    fn slow_log_is_bounded_and_keeps_newest() {
        let log = SlowQueryLog::new(3);
        for i in 1..=5u64 {
            log.push(SlowQuery {
                trace_id: i,
                rows: 1,
                latency_us: i * 100,
            });
        }
        assert_eq!(log.total(), 5);
        let entries = log.snapshot();
        let ids: Vec<u64> = entries.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        let empty = SlowQueryLog::new(0);
        empty.push(SlowQuery {
            trace_id: 9,
            rows: 1,
            latency_us: 1,
        });
        assert_eq!(empty.total(), 1);
        assert!(empty.snapshot().is_empty());
    }

    #[test]
    fn global_recorder_starts_disabled() {
        // other tests may have enabled it; only assert it exists and is
        // callable without panicking
        let rec = global();
        rec.record("noop", 0, 0, 0, 0, 0);
    }
}
