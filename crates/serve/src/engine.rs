//! The batched inference engine: a sharded request queue drained by
//! worker threads that coalesce concurrent queries into single batched
//! plan replays, routed across a multi-tenant model registry.
//!
//! ## Request lifecycle
//!
//! 1. [`Engine::submit`] takes a [`Request`] (model id + query +
//!    thresholds), resolves its tenant **before** anything is queued
//!    ([`SubmitError::UnknownModel`] / [`SubmitError::DimensionMismatch`]
//!    / [`SubmitError::NonFinite`] — a worker can never see a misrouted,
//!    mis-shaped or non-finite row), applies
//!    admission control (bounded per-shard queues; a saturated engine
//!    sheds with [`SubmitError::Overloaded`] instead of queueing without
//!    bound), then round-robins the request onto a queue shard (one per
//!    worker) and wakes a worker;
//! 2. a worker drains up to `max_batch_rows` `(x, t)` rows from its home
//!    shard (stealing from other shards when idle), **never splitting a
//!    request across batches**;
//! 3. the worker groups the drained requests **per tenant**, binds each
//!    tenant's model generation once, hands its requests — un-expanded,
//!    one `(x, ts)` per request — to one
//!    [`estimate_into`](selnet_eval::SelectivityEstimator::estimate_into)
//!    call over that tenant's compiled curve plan (a request costs one
//!    network row however many thresholds it carries), writing into a
//!    per-worker scratch buffer, scatters the estimates back per request,
//!    and replies;
//!    counters and latency samples land in the tenant's own
//!    [`ServeStats`] and nowhere else — the fleet view is the fold of the
//!    tenants', taken when somebody asks ([`Engine::stats_snapshot`],
//!    [`Engine::metrics_text`]).
//!
//! Blocking callers ([`Engine::serve_blocking`] / [`Engine::estimate_many`]
//! and the TCP/stdin connection loops) additionally get a **same-thread
//! fast path**: when every queue is idle there is nothing to coalesce
//! with, so the submitting thread binds a generation and evaluates the
//! single request itself, through the same `estimate_into` hook. Blocking
//! callers are also never shed — when
//! the queues are saturated they evaluate inline as well, which *is*
//! backpressure (one in-flight request per caller); only the pipelined
//! [`Engine::submit`] path sheds.
//!
//! Because the batched forward is bit-identical per row to single-query
//! evaluation, coalescing never changes an answer — any interleaving of
//! client threads yields exactly the results of a sequential
//! `estimate_many` (pinned by the `engine_concurrency` stress test). And
//! because a request is answered entirely by the one generation its
//! tenant group bound (inline serving binds one too), a hot swap can
//! never tear a response, and one tenant's requests never ride another
//! tenant's model.

use crate::registry::{ModelRegistry, Tenant};
use crate::stats::{ServeStats, StatsSnapshot};
use selnet_eval::SelectivityEstimator;
use selnet_obs::{expo, next_trace_id, HistogramSnapshot, SlowQuery, Span, SpanRecorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One-shot reply cell: a single `Arc` allocation per request, replacing
/// the `mpsc` channel a request used to carry (channel creation plus its
/// send-side node allocation dominated the per-request overhead of the
/// coalesced path once evaluation itself got cheap).
struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

enum SlotState {
    Pending,
    Ready(Vec<f64>),
    /// The serving side dropped the request without answering (only
    /// possible on shutdown races).
    Abandoned,
    /// The value was already taken by `wait`.
    Taken,
}

/// Serving-side handle; fulfills the slot, or marks it abandoned on drop.
/// The `Option` is `Some` until the reply is staged — staging takes the
/// `Arc` out, so the `Drop` marker becomes a no-op without leaking a
/// reference count (and without `unsafe`).
struct ReplySender(Option<Arc<ReplySlot>>);

impl ReplySender {
    /// Stores the value **without waking the waiter** — the worker stages
    /// a whole batch of replies first and notifies afterwards, so a woken
    /// client finds every other reply of its batch already in place
    /// instead of ping-ponging the (single) CPU with the worker once per
    /// reply.
    fn stage(mut self, values: Vec<f64>) -> StagedReply {
        let slot = self.0.take().expect("reply staged once");
        *slot.state.lock().expect("reply slot poisoned") = SlotState::Ready(values);
        StagedReply(slot)
    }
}

/// A fulfilled reply whose waiter has not been woken yet.
struct StagedReply(Arc<ReplySlot>);

impl StagedReply {
    fn notify(self) {
        self.0.ready.notify_one();
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        let Some(slot) = &self.0 else { return };
        let mut state = slot.state.lock().expect("reply slot poisoned");
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Abandoned;
            slot.ready.notify_one();
        }
    }
}

/// The engine dropped a request without answering it (only possible on a
/// shutdown race).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request dropped unanswered (engine shut down)")
    }
}

impl std::error::Error for Disconnected {}

/// Client-side handle to an in-flight request, returned by
/// [`Engine::submit`].
pub struct ReplyHandle(Arc<ReplySlot>);

impl ReplyHandle {
    /// Blocks until the engine answers; [`Disconnected`] means the
    /// request was dropped unanswered (engine shutdown race).
    pub fn wait(self) -> Result<Vec<f64>, Disconnected> {
        let mut state = self.0.state.lock().expect("reply slot poisoned");
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(values) => return Ok(values),
                SlotState::Abandoned => return Err(Disconnected),
                SlotState::Taken => unreachable!("wait consumes the handle"),
                SlotState::Pending => {
                    *state = SlotState::Pending;
                    state = self.0.ready.wait(state).expect("reply slot poisoned");
                }
            }
        }
    }
}

fn reply_pair() -> (ReplySender, ReplyHandle) {
    let slot = Arc::new(ReplySlot {
        state: Mutex::new(SlotState::Pending),
        ready: Condvar::new(),
    });
    (ReplySender(Some(Arc::clone(&slot))), ReplyHandle(slot))
}

/// One routed estimation request: which tenant, which query object,
/// which threshold grid. Built builder-style:
///
/// ```
/// use selnet_serve::engine::Request;
/// let req = Request::new(vec![0.1, 0.2])
///     .thresholds(vec![1.0, 0.5])
///     .model("alpha");
/// assert_eq!(req.model_id(), Some("alpha"));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    model: Option<String>,
    x: Vec<f32>,
    ts: Vec<f32>,
    trace: u64,
}

impl Request {
    /// A request for the **default tenant** with an empty threshold grid;
    /// chain [`Request::thresholds`] and [`Request::model`] to fill it
    /// in.
    pub fn new(x: Vec<f32>) -> Request {
        Request {
            model: None,
            x,
            ts: Vec::new(),
            trace: 0,
        }
    }

    /// Sets the thresholds to estimate at (the reply has one estimate per
    /// threshold, in this order).
    pub fn thresholds(mut self, ts: Vec<f32>) -> Request {
        self.ts = ts;
        self
    }

    /// Routes the request to a named tenant.
    pub fn model(mut self, name: impl Into<String>) -> Request {
        self.model = Some(name.into());
        self
    }

    /// Routes the request to `Some` tenant or the default (`None`) — the
    /// shape wire decoding produces.
    pub fn model_opt(mut self, name: Option<String>) -> Request {
        self.model = name;
        self
    }

    /// Attaches a caller-chosen trace ID (`0` = let the engine mint one
    /// at submit). Traced wire requests carry the client's ID here so the
    /// reply — and any slow-query log entry — can be joined back to the
    /// caller's own records.
    pub fn traced(mut self, trace_id: u64) -> Request {
        self.trace = trace_id;
        self
    }

    /// The request's trace ID (`0` until the engine mints one).
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// The tenant this request is routed to (`None` = default tenant).
    pub fn model_id(&self) -> Option<&str> {
        self.model.as_deref()
    }

    /// The query vector.
    pub fn query(&self) -> &[f32] {
        &self.x
    }

    /// The threshold grid.
    pub fn threshold_grid(&self) -> &[f32] {
        &self.ts
    }

    /// The `(x, t)` row count this request contributes to a batch (at
    /// least 1 — an empty grid still occupies a queue slot).
    pub fn rows(&self) -> usize {
        self.ts.len().max(1)
    }
}

/// Engine knobs. `..Default::default()` gives a sensible server: one
/// worker per configured tensor thread, batches of 64 rows, 4096 queued
/// rows per shard before admission control sheds. Every worker has one
/// queue shard of its own and steals from the others when it is idle.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads draining the queue (`0` = the tensor dispatcher's
    /// configured thread count, see `selnet_tensor::parallel`).
    pub workers: usize,
    /// Maximum `(x, t)` rows coalesced into one batched evaluation. A
    /// single request larger than this still runs (alone, unsplit).
    pub max_batch_rows: usize,
    /// Admission-control bound: maximum `(x, t)` rows queued per shard
    /// before [`Engine::submit`] sheds with [`SubmitError::Overloaded`]
    /// (`0` = unbounded, the pre-admission-control behaviour). The bound
    /// is approximate under submit races, and an oversized single request
    /// is always admitted to an **empty** shard so it cannot be starved
    /// by its own size. Blocking callers are never shed — they fall back
    /// to inline evaluation, which is its own backpressure.
    pub max_queue_rows: usize,
    /// Slow-query threshold in microseconds (`0` disables the slow-query
    /// log). A request whose end-to-end latency reaches the threshold is
    /// counted and appended — with its trace ID and row count — to its
    /// tenant's bounded slow-query log.
    pub slow_query_us: u64,
    /// Capacity of the engine's span ring (`0` disables span recording
    /// entirely — the flight recorder then costs one relaxed load per
    /// probe). When set, the engine records batch-stage spans
    /// (`coalesce` / `generation_bind` / `plan_replay` / `reply`) for
    /// every drained batch, plus per-request spans (`submit` /
    /// `queue_wait` / `inline_serve`) for requests that arrived with a
    /// caller-supplied trace ID — per-request tracing is sampled by the
    /// client, so untraced traffic only pays the amortized batch-stage
    /// cost. The ring keeps the newest `trace_buffer` spans.
    pub trace_buffer: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            max_batch_rows: 64,
            max_queue_rows: 4096,
            slow_query_us: 0,
            trace_buffer: 0,
        }
    }
}

/// Per-worker scratch reused across batches: the wave's flat estimates
/// and the latency samples — neither re-allocates once warm.
#[derive(Default)]
struct BatchScratch {
    flat: Vec<f64>,
    served: Vec<(u64, u64)>,
}

/// Why [`Engine::submit`] refused a request. Routing and shape errors
/// surface here — **before** a worker thread can see the request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The engine has been shut down.
    ShutDown,
    /// The request named a model the registry does not hold (or the
    /// registry is empty and the request wanted the default tenant).
    UnknownModel {
        /// The model id the request carried (`"<default>"` when the
        /// request was unrouted but no tenant exists).
        model: String,
    },
    /// The query vector's length does not match the routed model's
    /// dimension.
    DimensionMismatch {
        /// The tenant the request was routed to.
        model: String,
        /// The dimension the served model expects.
        expected: usize,
        /// The dimension the request carried.
        got: usize,
    },
    /// Admission control shed the request: every queue shard is at
    /// [`EngineConfig::max_queue_rows`]. Retry after backing off.
    Overloaded {
        /// Rows waiting on the fullest shard probed.
        queued_rows: usize,
        /// The configured per-shard bound.
        limit: usize,
    },
    /// The query vector or the threshold grid holds a `NaN` or an
    /// infinity — input no model can answer meaningfully.
    NonFinite {
        /// The tenant the request was routed to.
        model: String,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShutDown => write!(f, "engine is shut down"),
            SubmitError::UnknownModel { model } => {
                write!(f, "unknown model {model:?}")
            }
            SubmitError::DimensionMismatch {
                model,
                expected,
                got,
            } => {
                write!(
                    f,
                    "query dimension mismatch for model {model:?}: expects {expected}, got {got}"
                )
            }
            SubmitError::Overloaded { queued_rows, limit } => {
                write!(
                    f,
                    "overloaded: {queued_rows} rows queued against a per-shard bound of {limit}"
                )
            }
            SubmitError::NonFinite { model } => {
                write!(f, "a NaN or infinity in the query for model {model:?}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A queued request, its tenant already resolved — workers never touch
/// the registry's name map.
struct Queued<M> {
    tenant: Arc<Tenant<M>>,
    x: Vec<f32>,
    ts: Vec<f32>,
    trace: u64,
    /// Caller supplied the trace ID — this request pays for its own
    /// per-request spans (untraced requests get only batch-stage spans).
    sampled: bool,
    enqueued: Instant,
    reply: ReplySender,
}

struct Shard<M> {
    queue: Mutex<VecDeque<Queued<M>>>,
    signal: Condvar,
    /// `(x, t)` rows currently queued — the admission-control gauge,
    /// updated under the queue lock.
    rows: AtomicUsize,
}

/// How [`Engine::metrics_text`] reads one metric family off a tenant's
/// [`ServeStats`]; the variant is the family's Prometheus `# TYPE`.
enum Read {
    Counter(fn(&ServeStats) -> u64),
    Histogram(fn(&ServeStats) -> HistogramSnapshot),
}

/// Every family of the exposition that is counted per tenant — name,
/// `# HELP` text, reader — in exposition order. A new family is one
/// [`ServeStats`] field and one row here.
const FAMILIES: [(&str, &str, Read); 9] = [
    (
        "selnet_requests_total",
        "Requests answered (shed refusals excluded).",
        Read::Counter(|s| s.requests.get()),
    ),
    (
        "selnet_rows_total",
        "(x, t) rows evaluated.",
        Read::Counter(|s| s.rows.get()),
    ),
    (
        "selnet_batches_total",
        "Coalesced batch evaluations run.",
        Read::Counter(|s| s.batches.get()),
    ),
    (
        "selnet_inline_requests_total",
        "Requests served synchronously on the submitting thread.",
        Read::Counter(|s| s.inline_requests.get()),
    ),
    (
        "selnet_shed_requests_total",
        "Requests refused by admission control.",
        Read::Counter(|s| s.shed_requests.get()),
    ),
    (
        "selnet_slow_requests_total",
        "Requests at or past the slow-query threshold.",
        Read::Counter(|s| s.slow_requests.get()),
    ),
    (
        "selnet_request_latency_us",
        "End-to-end request latency (enqueue to reply), microseconds.",
        Read::Histogram(ServeStats::latency_histogram),
    ),
    (
        "selnet_batch_rows",
        "Rows per coalesced batch evaluation (batch occupancy).",
        Read::Histogram(ServeStats::batch_size_histogram),
    ),
    (
        "selnet_retrain_us",
        "Background retrain / publish latency, microseconds.",
        Read::Histogram(ServeStats::retrain_histogram),
    ),
];

/// The serving engine. Create with [`Engine::start`]; submit work with
/// [`Engine::submit`] / [`Engine::estimate_many`]; stop with
/// [`Engine::shutdown`] (queued requests are drained first).
pub struct Engine<M> {
    registry: Arc<ModelRegistry<M>>,
    /// One queue shard per worker.
    shards: Vec<Shard<M>>,
    /// This engine's own flight recorder (never the process-global one,
    /// so two engines — say an instrumented and an uninstrumented one in
    /// the same benchmark — cannot contaminate each other's rings).
    recorder: SpanRecorder,
    slow_query_us: u64,
    max_batch_rows: usize,
    max_queue_rows: usize,
    next_shard: AtomicUsize,
    stop: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M> Engine<M>
where
    M: SelectivityEstimator + Send + Sync + 'static,
{
    /// Spawns the worker threads and returns the running engine.
    pub fn start(registry: Arc<ModelRegistry<M>>, cfg: &EngineConfig) -> Arc<Engine<M>> {
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            selnet_tensor::parallel::configured_threads()
        }
        .max(1);
        let shards = (0..workers)
            .map(|_| Shard {
                queue: Mutex::new(VecDeque::new()),
                signal: Condvar::new(),
                rows: AtomicUsize::new(0),
            })
            .collect();
        let engine = Arc::new(Engine {
            registry,
            shards,
            recorder: SpanRecorder::with_capacity(cfg.trace_buffer),
            slow_query_us: cfg.slow_query_us,
            max_batch_rows: cfg.max_batch_rows.max(1),
            max_queue_rows: cfg.max_queue_rows,
            next_shard: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let eng = Arc::clone(&engine);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("selnet-serve-{w}"))
                    .spawn(move || eng.worker_loop(w))
                    .expect("spawn worker"),
            );
        }
        *engine.workers.lock().expect("worker list poisoned") = handles;
        engine
    }

    /// Resolves a request's tenant and validates its query — dimension,
    /// and every value finite — the routing checks both entry points
    /// share. Errors surface here so a worker thread can never observe a
    /// misrouted, mis-shaped or non-finite row.
    fn route(&self, req: &Request) -> Result<Arc<Tenant<M>>, SubmitError> {
        let tenant =
            self.registry
                .resolve(req.model_id())
                .ok_or_else(|| SubmitError::UnknownModel {
                    model: req.model_id().unwrap_or("<default>").to_string(),
                })?;
        if let Some(expected) = tenant.current().1.query_dim() {
            if req.query().len() != expected {
                return Err(SubmitError::DimensionMismatch {
                    model: tenant.name().to_string(),
                    expected,
                    got: req.query().len(),
                });
            }
        }
        let mut values = req.query().iter().chain(req.threshold_grid());
        if !values.all(|v| v.is_finite()) {
            return Err(SubmitError::NonFinite {
                model: tenant.name().to_string(),
            });
        }
        Ok(tenant)
    }

    /// Enqueues one routed request; the returned handle yields the
    /// estimates (one per threshold, in order) on [`ReplyHandle::wait`].
    ///
    /// Routing ([`SubmitError::UnknownModel`]), shape
    /// ([`SubmitError::DimensionMismatch`], [`SubmitError::NonFinite`]) and
    /// admission
    /// ([`SubmitError::Overloaded`]) are all decided **here**, before the
    /// request can reach a worker: the estimators assert on mis-shaped
    /// input, and a panicking worker must never be reachable from
    /// untrusted wire bytes; likewise a saturated engine must refuse
    /// cheaply rather than grow its queues without bound.
    pub fn submit(&self, req: Request) -> Result<ReplyHandle, SubmitError> {
        // per-request spans are sampled, not blanket: only a request that
        // arrived with a caller-supplied trace ID pays for one. Batch-stage
        // spans, histograms, counters, and the slow-query log stay on for
        // every request — that always-on remainder is what the CI overhead
        // guard holds under its floor.
        let sampled = req.trace != 0;
        let trace = self.mint_trace(req.trace);
        let _span = sampled.then(|| self.recorder.span("submit", trace));
        let tenant = self.route(&req)?;
        // a refusal is final here (a blocking caller serves itself instead),
        // so this is where a shed is counted
        let shard = self
            .admit(req.rows())
            .inspect_err(|_| tenant.stats().record_shed())?;
        self.enqueue(shard, tenant, req.x, req.ts, trace, sampled)
    }

    /// The request's trace ID: the caller's if it brought one, a freshly
    /// minted one otherwise (every served request has a nonzero ID).
    fn mint_trace(&self, trace: u64) -> u64 {
        if trace != 0 {
            trace
        } else {
            next_trace_id()
        }
    }

    /// Admission control: probes round-robin for a shard with room for
    /// `rows` more and returns its index, or [`SubmitError::Overloaded`]
    /// when every shard is at the bound. The gauge is read without the
    /// queue lock, so the bound is approximate under submit races — by
    /// design; shedding exists to stop unbounded growth, not to enforce an
    /// exact ceiling.
    fn admit(&self, rows: usize) -> Result<usize, SubmitError> {
        let n = self.shards.len();
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed);
        let mut fullest = 0usize;
        for offset in 0..n {
            let idx = (start + offset) % n;
            let queued = self.shards[idx].rows.load(Ordering::Relaxed);
            fullest = fullest.max(queued);
            if self.max_queue_rows == 0
                || queued == 0 // an empty shard always admits (oversized single requests)
                || queued + rows <= self.max_queue_rows
            {
                return Ok(idx);
            }
        }
        Err(SubmitError::Overloaded {
            queued_rows: fullest,
            limit: self.max_queue_rows,
        })
    }

    /// Queues an admitted request on shard `idx` and wakes a worker.
    fn enqueue(
        &self,
        idx: usize,
        tenant: Arc<Tenant<M>>,
        x: Vec<f32>,
        ts: Vec<f32>,
        trace: u64,
        sampled: bool,
    ) -> Result<ReplyHandle, SubmitError> {
        let rows = ts.len().max(1);
        let (tx, rx) = reply_pair();
        let req = Queued {
            tenant,
            x,
            ts,
            trace,
            sampled,
            enqueued: Instant::now(),
            reply: tx,
        };
        let shard = &self.shards[idx];
        {
            // the stop re-check happens under the queue lock: a worker's
            // exit decision (stop && queue empty) takes the same lock, so
            // a request pushed here is guaranteed to be drained
            let mut q = shard.queue.lock().expect("queue lock poisoned");
            if self.stop.load(Ordering::SeqCst) {
                return Err(SubmitError::ShutDown);
            }
            shard.rows.fetch_add(rows, Ordering::Relaxed);
            q.push_back(req);
        }
        shard.signal.notify_one();
        Ok(rx)
    }

    /// Serves one request, blocking until the answer is ready — the entry
    /// point for callers that wait anyway (connection loops, synchronous
    /// clients).
    ///
    /// When every queue is idle there is nothing to coalesce with, so the
    /// request is evaluated **inline on this thread** against one bound
    /// generation, skipping the queue, the worker wake-up, and the reply
    /// channel. Under saturation the request also evaluates inline rather
    /// than shedding — a
    /// blocking caller has at most one request in flight, so making it do
    /// its own work *is* the backpressure. Otherwise it falls back to
    /// queued submission, so concurrent load still coalesces.
    pub fn serve_blocking(&self, req: &Request) -> Result<Vec<f64>, SubmitError> {
        // same span-sampling rule as `submit`
        let sampled = req.trace_id() != 0;
        let trace = self.mint_trace(req.trace_id());
        let tenant = self.route(req)?;
        if self.stop.load(Ordering::SeqCst) {
            return Err(SubmitError::ShutDown);
        }
        let (x, ts) = (req.query(), req.threshold_grid());
        if self.queues_idle() {
            return Ok(self.serve_inline(&tenant, trace, sampled, x, ts));
        }
        match self.admit(req.rows()) {
            Ok(shard) => self
                .enqueue(shard, tenant, x.to_vec(), ts.to_vec(), trace, sampled)?
                .wait()
                .map_err(|Disconnected| SubmitError::ShutDown),
            // saturated: evaluate on the caller's own thread instead of
            // shedding a blocking caller (nothing was refused, so nothing
            // is counted as shed)
            Err(_) => Ok(self.serve_inline(&tenant, trace, sampled, x, ts)),
        }
    }

    /// Whether every shard queue is currently observably empty (a busy
    /// lock counts as non-idle — a worker is draining it).
    fn queues_idle(&self) -> bool {
        self.shards.iter().all(|s| match s.queue.try_lock() {
            Ok(q) => q.is_empty(),
            Err(_) => false,
        })
    }

    /// Evaluates one request synchronously against one bound generation
    /// of its tenant, through the same `estimate_into` hook as the worker
    /// path.
    fn serve_inline(
        &self,
        tenant: &Tenant<M>,
        trace: u64,
        sampled: bool,
        x: &[f32],
        ts: &[f32],
    ) -> Vec<f64> {
        let started = Instant::now();
        let _span = sampled.then(|| {
            self.recorder
                .span("inline_serve", trace)
                .detail(ts.len() as u64, 0)
        });
        let mut values = Vec::new();
        tenant.current().1.estimate_into(&[(x, ts)], 1, &mut values);
        let us = started.elapsed().as_micros() as u64;
        tenant.stats().record_inline();
        tenant.stats().record_request(ts.len() as u64, us);
        self.note_slow(tenant, trace, ts.len() as u64, us);
        values
    }

    /// Counts a request that crossed the configured threshold and
    /// appends it to its tenant's slow-query log (no-op when disabled).
    /// The fleet's log is the per-tenant merge ([`Engine::slow_queries`]).
    #[inline]
    fn note_slow(&self, tenant: &Tenant<M>, trace: u64, rows: u64, us: u64) {
        if self.slow_query_us > 0 && us >= self.slow_query_us {
            tenant.stats().record_slow(trace, rows, us);
        }
    }

    /// Blocking convenience wrapper around [`Engine::serve_blocking`] for
    /// the default tenant.
    ///
    /// # Panics
    /// Panics if the engine has been shut down or the query is mis-shaped
    /// (use [`Engine::serve_blocking`] to handle those as errors).
    pub fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        self.serve_blocking(&Request::new(x.to_vec()).thresholds(ts.to_vec()))
            .expect("engine stopped while serving")
    }

    /// The fleet stats snapshot — every tenant's counters folded into
    /// one (counters summed, latency histograms merged). A tenant
    /// registered after
    /// start is in the next call; one tenant's own view is
    /// [`ServeStats::snapshot`] of its [`Tenant::stats`].
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let tenants = self.registry.tenants();
        let stats: Vec<&ServeStats> = tenants.iter().map(|t| t.stats().as_ref()).collect();
        StatsSnapshot::fold(&stats)
    }

    /// `(x, t)` rows currently waiting across every queue shard — the
    /// admission-control gauge the metrics exposition scrapes.
    pub fn queued_rows_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.rows.load(Ordering::Relaxed) as u64)
            .sum()
    }

    /// The engine's flight recorder (enabled by
    /// [`EngineConfig::trace_buffer`]; the returned snapshot of
    /// [`Engine::spans`] is what the binary dumps on shutdown).
    pub fn recorder(&self) -> &SpanRecorder {
        &self.recorder
    }

    /// The newest recorded spans, oldest first (empty when the flight
    /// recorder is disabled).
    pub fn spans(&self) -> Vec<Span> {
        self.recorder.snapshot()
    }

    /// The fleet's retained slow queries — the merge of every tenant's
    /// bounded log, grouped by tenant and oldest first within each
    /// (empty when [`EngineConfig::slow_query_us`] is `0`).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.registry
            .tenants()
            .iter()
            .flat_map(|t| t.stats().slow_queries())
            .collect()
    }

    /// Renders the whole fleet's telemetry in Prometheus text exposition
    /// format: per family of the `FAMILIES` table, the fleet sample
    /// (unlabeled — the tenants' counters summed, their histograms merged)
    /// then every tenant's (`tenant="<name>"`), and after them the
    /// scrape-time gauges (queue depth, per-tenant generation). Served by
    /// the v2 `Metrics` frame and the `?metrics` text command.
    pub fn metrics_text(&self) -> String {
        let tenants = self.registry.tenants();
        let labels: Vec<[(String, String); 1]> = tenants
            .iter()
            .map(|t| [("tenant".to_string(), t.name().to_string())])
            .collect();
        let mut out = String::new();
        for (name, help, read) in FAMILIES {
            match read {
                Read::Counter(read) => {
                    expo::write_header(&mut out, name, help, "counter");
                    let values: Vec<u64> = tenants.iter().map(|t| read(t.stats())).collect();
                    let fleet: u64 = values.iter().sum();
                    expo::write_sample(&mut out, name, &[], &fleet.to_string());
                    for (labels, v) in labels.iter().zip(values) {
                        expo::write_sample(&mut out, name, labels, &v.to_string());
                    }
                }
                Read::Histogram(read) => {
                    expo::write_header(&mut out, name, help, "histogram");
                    let snaps: Vec<HistogramSnapshot> =
                        tenants.iter().map(|t| read(t.stats())).collect();
                    let mut fleet = HistogramSnapshot::empty();
                    snaps.iter().for_each(|snap| fleet.merge(snap));
                    expo::write_histogram(&mut out, name, &[], &fleet);
                    for (labels, snap) in labels.iter().zip(&snaps) {
                        expo::write_histogram(&mut out, name, labels, snap);
                    }
                }
            }
        }
        // volatile values are read at scrape time, not kept in counters
        let (queue, generation) = ("selnet_queue_rows", "selnet_tenant_generation");
        let help = "(x, t) rows currently queued across every shard.";
        expo::write_header(&mut out, queue, help, "gauge");
        expo::write_sample(&mut out, queue, &[], &self.queued_rows_total().to_string());
        let help = "Model generation currently served, per tenant.";
        expo::write_header(&mut out, generation, help, "gauge");
        for (labels, t) in labels.iter().zip(tenants.iter()) {
            expo::write_sample(&mut out, generation, labels, &t.generation().to_string());
        }
        out
    }

    /// The registry this engine serves from (for hot swaps and tenant
    /// registration).
    pub fn registry(&self) -> &Arc<ModelRegistry<M>> {
        &self.registry
    }

    /// Stops accepting new requests, drains everything already queued,
    /// and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in &self.shards {
            s.signal.notify_all();
        }
        let mut workers = self.workers.lock().expect("worker list poisoned");
        for h in workers.drain(..) {
            let _ = h.join();
        }
        // Belt and braces: the under-lock stop check in `enqueue` means no
        // request can land after the workers exit, but if that invariant
        // ever broke, dropping the stragglers (and their reply senders)
        // turns a would-be infinite `recv()` hang into a recv error.
        for s in &self.shards {
            s.queue.lock().expect("queue lock poisoned").clear();
            s.rows.store(0, Ordering::Relaxed);
        }
    }

    fn worker_loop(self: &Arc<Self>, worker: usize) {
        let home = worker % self.shards.len();
        let mut scratch = BatchScratch::default();
        loop {
            match self.collect_batch(home) {
                Some(batch) => self.serve_batch(batch, &mut scratch),
                None => {
                    if self.stop.load(Ordering::SeqCst) && self.all_queues_empty() {
                        return;
                    }
                }
            }
        }
    }

    fn all_queues_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.queue.lock().expect("queue lock poisoned").is_empty())
    }

    /// Pops up to `max_batch_rows` rows of requests, preferring the home
    /// shard and stealing from the others, without ever splitting one
    /// request across batches. Returns `None` after an idle wait so the
    /// caller can re-check for shutdown.
    fn collect_batch(&self, home: usize) -> Option<Vec<Queued<M>>> {
        let n = self.shards.len();
        for offset in 0..n {
            let shard = &self.shards[(home + offset) % n];
            let mut q = shard.queue.lock().expect("queue lock poisoned");
            if let Some(batch) = Self::drain_requests(shard, &mut q, self.max_batch_rows) {
                return Some(batch);
            }
        }
        // nothing anywhere: park briefly on the home shard
        let shard = &self.shards[home];
        let q = shard.queue.lock().expect("queue lock poisoned");
        let (mut q, _) = shard
            .signal
            .wait_timeout(q, Duration::from_millis(5))
            .expect("queue lock poisoned");
        Self::drain_requests(shard, &mut q, self.max_batch_rows)
    }

    /// Drains up to `max_rows` rows of requests (called with the queue
    /// lock held), keeping the shard's admission gauge in step.
    fn drain_requests(
        shard: &Shard<M>,
        q: &mut VecDeque<Queued<M>>,
        max_rows: usize,
    ) -> Option<Vec<Queued<M>>> {
        if q.is_empty() {
            return None;
        }
        let mut batch = Vec::new();
        let mut rows = 0usize;
        while let Some(front) = q.front() {
            let r = front.ts.len().max(1);
            if !batch.is_empty() && rows + r > max_rows {
                break;
            }
            rows += r;
            batch.push(q.pop_front().expect("front exists"));
            if rows >= max_rows {
                break;
            }
        }
        // saturating: shutdown's gauge reset can race a final drain
        let _ = shard
            .rows
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(rows))
            });
        Some(batch)
    }

    /// Answers a drained batch: requests are grouped **per tenant** (a
    /// batched evaluation can only ride one model), then each group is
    /// served from one bound generation of its tenant.
    fn serve_batch(&self, requests: Vec<Queued<M>>, scratch: &mut BatchScratch) {
        type TenantGroup<M> = (Arc<Tenant<M>>, Vec<Queued<M>>);
        let mut groups: Vec<TenantGroup<M>> = Vec::new();
        for req in requests {
            match groups.iter_mut().find(|(t, _)| Arc::ptr_eq(t, &req.tenant)) {
                Some((_, group)) => group.push(req),
                None => {
                    let tenant = Arc::clone(&req.tenant);
                    groups.push((tenant, vec![req]));
                }
            }
        }
        for (tenant, group) in groups {
            self.serve_tenant_batch(&tenant, group, scratch);
        }
    }

    /// Answers one tenant's share of a batch from **one** generation of
    /// that tenant's model: a single coalesced `estimate_into` over every
    /// request, written into the worker's reusable scratch.
    fn serve_tenant_batch(
        &self,
        tenant: &Arc<Tenant<M>>,
        requests: Vec<Queued<M>>,
        scratch: &mut BatchScratch,
    ) {
        let traced = self.recorder.is_enabled();
        let mut coalesce = self
            .recorder
            .span("coalesce", 0)
            .detail(requests.len() as u64, 0);
        if traced {
            // one queue-wait span per *sampled* request: how long it sat
            // between enqueue and a worker picking its batch up. Untraced
            // requests skip it — per-request spans are opt-in by trace ID,
            // which is what keeps the always-on overhead under the CI floor.
            for req in requests.iter().filter(|r| r.sampled) {
                self.recorder.record_since(
                    "queue_wait",
                    req.trace,
                    req.enqueued,
                    req.ts.len().max(1) as u64,
                    0,
                );
            }
        }
        let (generation, model) = {
            let _bind = self.recorder.span("generation_bind", 0);
            tenant.current()
        };
        scratch.served.clear();
        let total_rows: usize = requests.iter().map(|r| r.ts.len()).sum();
        coalesce.set_detail(requests.len() as u64, total_rows as u64);
        {
            let queries: Vec<(&[f32], &[f32])> = requests
                .iter()
                .map(|req| (req.x.as_slice(), req.ts.as_slice()))
                .collect();
            let _replay = self
                .recorder
                .span("plan_replay", 0)
                .detail(total_rows as u64, generation);
            model.estimate_into(&queries, 1, &mut scratch.flat);
        }
        tenant.stats().record_batch(total_rows as u64);
        let mut offset = 0usize;
        // slice the results and record the stats BEFORE any reply becomes
        // observable — a client returning from wait() must always find its
        // request already counted in a snapshot
        let mut replies = Vec::with_capacity(requests.len());
        for req in requests {
            let m = req.ts.len();
            let values = scratch.flat[offset..offset + m].to_vec();
            offset += m;
            let us = req.enqueued.elapsed().as_micros() as u64;
            self.note_slow(tenant, req.trace, m as u64, us);
            scratch.served.push((m as u64, us));
            replies.push((req.reply, values));
        }
        tenant.stats().record_requests(&scratch.served);
        // stage every reply, then wake the waiters: a woken client then
        // drains its whole batch without sleeping again per reply
        let _reply_span = self
            .recorder
            .span("reply", 0)
            .detail(replies.len() as u64, 0);
        let staged: Vec<StagedReply> = replies
            .into_iter()
            .map(|(reply, values)| reply.stage(values))
            .collect();
        for reply in staged {
            reply.notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic estimator: `scale * t`, ignoring `x` except for its
    /// first coordinate which is added in — enough to distinguish both
    /// queries and models.
    struct Affine {
        scale: f64,
    }

    impl SelectivityEstimator for Affine {
        fn estimate(&self, x: &[f32], t: f32) -> f64 {
            self.scale * t as f64 + x[0] as f64
        }
        fn name(&self) -> &str {
            "affine"
        }
    }

    fn engine(scale: f64, cfg: &EngineConfig) -> Arc<Engine<Affine>> {
        Engine::start(Arc::new(ModelRegistry::new(Affine { scale })), cfg)
    }

    fn req(x: Vec<f32>, ts: Vec<f32>) -> Request {
        Request::new(x).thresholds(ts)
    }

    #[test]
    fn answers_match_direct_evaluation() {
        let eng = engine(
            3.0,
            &EngineConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let got = eng.estimate_many(&[1.0, 0.0], &[0.5, 1.0, 2.0]);
        assert_eq!(got, vec![2.5, 4.0, 7.0]);
        eng.shutdown();
    }

    #[test]
    fn requests_route_to_their_named_tenant() {
        let registry = Arc::new(ModelRegistry::empty());
        registry.register("alpha", Affine { scale: 2.0 }).unwrap();
        registry.register("beta", Affine { scale: 5.0 }).unwrap();
        let eng = Engine::start(
            Arc::clone(&registry),
            &EngineConfig {
                workers: 2,
                ..Default::default()
            },
        );
        // routed blocking requests
        let a = eng
            .serve_blocking(&req(vec![1.0], vec![1.0, 2.0]).model("alpha"))
            .unwrap();
        let b = eng
            .serve_blocking(&req(vec![1.0], vec![1.0, 2.0]).model("beta"))
            .unwrap();
        assert_eq!(a, vec![3.0, 5.0]);
        assert_eq!(b, vec![6.0, 11.0]);
        // unrouted goes to the first registered tenant
        assert_eq!(eng.estimate_many(&[0.0], &[1.0]), vec![2.0]);
        // routed pipelined requests interleave tenants in one queue
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let name = if i % 2 == 0 { "alpha" } else { "beta" };
                eng.submit(req(vec![0.0], vec![1.0]).model(name))
                    .expect("engine running")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let want = if i % 2 == 0 { 2.0 } else { 5.0 };
            assert_eq!(h.wait().expect("served"), vec![want]);
        }
        // per-tenant stats saw their own traffic only
        let stats: Vec<StatsSnapshot> = registry
            .tenants()
            .iter()
            .map(|t| t.stats().snapshot())
            .collect();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.requests > 0));
        let total: u64 = stats.iter().map(|s| s.requests).sum();
        assert_eq!(total, eng.stats_snapshot().requests);
        eng.shutdown();
    }

    #[test]
    fn unknown_model_is_rejected_before_queueing() {
        let eng = engine(1.0, &EngineConfig::default());
        assert_eq!(
            eng.submit(req(vec![0.0], vec![1.0]).model("nope")).err(),
            Some(SubmitError::UnknownModel {
                model: "nope".into()
            })
        );
        assert_eq!(
            eng.serve_blocking(&req(vec![0.0], vec![1.0]).model("nope"))
                .err(),
            Some(SubmitError::UnknownModel {
                model: "nope".into()
            })
        );
        // the engine is unaffected
        assert_eq!(eng.estimate_many(&[0.0], &[1.0]), vec![1.0]);
        eng.shutdown();
    }

    #[test]
    fn empty_registry_reports_unknown_default() {
        let eng = Engine::start(
            Arc::new(ModelRegistry::<Affine>::empty()),
            &EngineConfig::default(),
        );
        assert_eq!(
            eng.submit(req(vec![0.0], vec![1.0])).err(),
            Some(SubmitError::UnknownModel {
                model: "<default>".into()
            })
        );
        eng.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests_then_rejects() {
        let eng = engine(
            1.0,
            &EngineConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let receivers: Vec<_> = (0..32)
            .map(|i| {
                eng.submit(req(vec![i as f32], vec![1.0]))
                    .expect("engine running")
            })
            .collect();
        eng.shutdown();
        for (i, rx) in receivers.into_iter().enumerate() {
            assert_eq!(rx.wait().expect("drained"), vec![1.0 + i as f64]);
        }
        assert_eq!(
            eng.submit(req(vec![0.0], vec![1.0])).err(),
            Some(SubmitError::ShutDown)
        );
        eng.shutdown(); // idempotent
    }

    /// A model that declares its dimension: mis-shaped queries must be
    /// rejected before they can reach (and panic) a worker.
    struct FixedDim;
    impl SelectivityEstimator for FixedDim {
        fn estimate(&self, x: &[f32], t: f32) -> f64 {
            x.iter().sum::<f32>() as f64 + t as f64
        }
        fn query_dim(&self) -> Option<usize> {
            Some(3)
        }
        fn name(&self) -> &str {
            "fixed-dim"
        }
    }

    #[test]
    fn mis_shaped_query_is_rejected_before_evaluation() {
        let eng = Engine::start(
            Arc::new(ModelRegistry::new(FixedDim)),
            &EngineConfig {
                workers: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            eng.submit(req(vec![0.0; 2], vec![1.0])).err(),
            Some(SubmitError::DimensionMismatch {
                model: "default".into(),
                expected: 3,
                got: 2
            })
        );
        // the engine is still healthy and serves well-shaped queries
        assert_eq!(eng.estimate_many(&[1.0, 2.0, 3.0], &[1.0]), vec![7.0]);
        eng.shutdown();
    }

    /// An estimator slow enough that a tiny bounded queue saturates:
    /// admission control must shed with `Overloaded` (counted in the
    /// tenant's stats, and so in the fleet's) instead of queueing without
    /// bound, while accepted requests still serve correctly.
    struct Slow;
    impl SelectivityEstimator for Slow {
        fn estimate(&self, _x: &[f32], t: f32) -> f64 {
            std::thread::sleep(Duration::from_millis(2));
            t as f64
        }
        fn name(&self) -> &str {
            "slow"
        }
    }

    #[test]
    fn saturated_queue_sheds_overloaded_and_counts_it() {
        let eng = Engine::start(
            Arc::new(ModelRegistry::new(Slow)),
            &EngineConfig {
                workers: 1,
                max_batch_rows: 1,
                max_queue_rows: 2,
                slow_query_us: 0,
                trace_buffer: 0,
            },
        );
        let mut accepted = Vec::new();
        let mut shed = 0usize;
        for i in 0..64 {
            match eng.submit(req(vec![i as f32], vec![1.0])) {
                Ok(handle) => accepted.push(handle),
                Err(SubmitError::Overloaded { limit, .. }) => {
                    assert_eq!(limit, 2);
                    shed += 1;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(shed > 0, "a 2-row bound under 64 instant submits must shed");
        assert!(!accepted.is_empty(), "an empty queue must always admit");
        for handle in accepted {
            assert_eq!(handle.wait().expect("served"), vec![1.0]);
        }
        let fleet = eng.stats_snapshot();
        assert_eq!(fleet.shed_requests, shed as u64, "fleet shed count");
        let tenants = eng.registry().tenants();
        assert_eq!(tenants[0].stats().snapshot().shed_requests, shed as u64);
        // shed requests are refusals, not answers: they never count as
        // served requests
        assert_eq!(fleet.requests as usize + shed, 64);
        // blocking callers are never shed, even while saturated
        assert_eq!(eng.estimate_many(&[0.0], &[3.0]), vec![3.0]);
        eng.shutdown();
    }

    #[test]
    fn unbounded_queue_never_sheds() {
        let eng = engine(
            1.0,
            &EngineConfig {
                workers: 1,
                max_queue_rows: 0,
                ..Default::default()
            },
        );
        let handles: Vec<_> = (0..256)
            .map(|i| {
                eng.submit(req(vec![i as f32], vec![1.0]))
                    .expect("unbounded queue must always admit")
            })
            .collect();
        for h in handles {
            h.wait().expect("served");
        }
        assert_eq!(eng.stats_snapshot().shed_requests, 0);
        eng.shutdown();
    }

    #[test]
    fn empty_threshold_grid_yields_empty_response() {
        let eng = engine(1.0, &EngineConfig::default());
        assert_eq!(eng.estimate_many(&[0.0], &[]), Vec::<f64>::new());
        eng.shutdown();
    }

    #[test]
    fn inline_fast_path_serves_idle_queues() {
        let eng = engine(
            2.0,
            &EngineConfig {
                workers: 1,
                ..Default::default()
            },
        );
        // with no concurrent load every blocking call finds idle queues
        // and is served on the calling thread
        assert_eq!(eng.estimate_many(&[1.0], &[0.5, 1.0]), vec![2.0, 3.0]);
        assert_eq!(eng.estimate_many(&[0.0], &[2.0]), vec![4.0]);
        let snap = eng.stats_snapshot();
        assert_eq!(snap.requests, 2);
        assert!(
            snap.inline_requests >= 1,
            "idle-queue blocking calls should take the inline path, got {}",
            snap.inline_requests
        );
        eng.shutdown();
    }

    #[test]
    fn oversized_request_is_served_unsplit() {
        let eng = engine(
            1.0,
            &EngineConfig {
                workers: 1,
                max_batch_rows: 4,
                ..Default::default()
            },
        );
        let ts: Vec<f32> = (0..17).map(|i| i as f32).collect();
        let got = eng.estimate_many(&[0.0], &ts);
        assert_eq!(got.len(), 17);
        assert_eq!(got[16], 16.0);
        eng.shutdown();
    }

    #[test]
    fn trace_ids_are_minted_and_slow_queries_logged() {
        let eng = Engine::start(
            Arc::new(ModelRegistry::new(Slow)),
            &EngineConfig {
                workers: 1,
                slow_query_us: 1, // a 2 ms estimator always crosses 1 µs
                trace_buffer: 64,
                ..Default::default()
            },
        );
        // a caller-supplied trace ID survives into the slow-query log
        let _ = eng
            .serve_blocking(&req(vec![0.0], vec![1.0]).traced(7777))
            .unwrap();
        // an engine-minted one is nonzero
        let _ = eng.serve_blocking(&req(vec![0.5], vec![1.0])).unwrap();
        let slow = eng.slow_queries();
        assert!(slow.len() >= 2, "both requests crossed the threshold");
        assert!(slow.iter().any(|q| q.trace_id == 7777));
        assert!(slow.iter().all(|q| q.trace_id != 0));
        assert_eq!(eng.stats_snapshot().slow_requests, slow.len() as u64);
        // the tenant's own log saw the same traffic
        let tenant = &eng.registry().tenants()[0];
        assert_eq!(tenant.stats().snapshot().slow_requests, slow.len() as u64);
        // the flight recorder captured the inline spans
        let spans = eng.spans();
        assert!(
            spans.iter().any(|s| s.kind == "inline_serve"),
            "spans: {spans:?}"
        );
        assert!(spans.iter().any(|s| s.trace_id == 7777), "spans: {spans:?}");
        eng.shutdown();
    }

    #[test]
    fn queued_requests_record_pipeline_spans() {
        let eng = Engine::start(
            Arc::new(ModelRegistry::new(Slow)),
            &EngineConfig {
                workers: 1,
                trace_buffer: 256,
                ..Default::default()
            },
        );
        // per-request spans are sampled by trace ID: even-indexed requests
        // bring one, odd-indexed requests stay untraced
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let mut r = req(vec![i as f32], vec![1.0]);
                if i % 2 == 0 {
                    r = r.traced(9000 + i as u64);
                }
                eng.submit(r).unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        eng.shutdown();
        let spans = eng.spans();
        // batch-stage spans cover every drained batch regardless of tracing
        for kind in ["submit", "queue_wait", "coalesce", "plan_replay", "reply"] {
            assert!(
                spans.iter().any(|s| s.kind == kind),
                "missing {kind:?} in {spans:?}"
            );
        }
        // every per-request span belongs to a request that opted in
        for s in spans
            .iter()
            .filter(|s| s.kind == "submit" || s.kind == "queue_wait")
        {
            assert!(
                (9000..9008).contains(&s.trace_id),
                "untraced request got a per-request span: {s:?}"
            );
        }
        assert!(spans.iter().any(|s| s.trace_id == 9000), "spans: {spans:?}");
    }

    #[test]
    fn disabled_recorder_stays_empty() {
        let eng = engine(1.0, &EngineConfig::default());
        let _ = eng.estimate_many(&[0.0], &[1.0]);
        assert!(eng.spans().is_empty());
        assert!(eng.slow_queries().is_empty());
        eng.shutdown();
    }

    #[test]
    fn metrics_text_exposes_fleet_and_tenant_families() {
        let registry = Arc::new(ModelRegistry::empty());
        registry.register("alpha", Affine { scale: 1.0 }).unwrap();
        registry.register("beta", Affine { scale: 2.0 }).unwrap();
        let eng = Engine::start(Arc::clone(&registry), &EngineConfig::default());
        let _ = eng
            .serve_blocking(&req(vec![0.0], vec![1.0, 2.0]).model("alpha"))
            .unwrap();
        let text = eng.metrics_text();
        assert!(
            text.contains("# TYPE selnet_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("selnet_requests_total 1"), "fleet: {text}");
        assert!(
            text.contains("selnet_requests_total{tenant=\"alpha\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("selnet_requests_total{tenant=\"beta\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("selnet_rows_total{tenant=\"alpha\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("selnet_request_latency_us_bucket{tenant=\"alpha\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("selnet_tenant_generation{tenant=\"alpha\"} 0"),
            "{text}"
        );
        assert!(text.contains("selnet_queue_rows 0"), "{text}");
        // scraping twice neither duplicates families nor double-counts
        let again = eng.metrics_text();
        assert_eq!(
            again
                .matches("# TYPE selnet_requests_total counter")
                .count(),
            1
        );
        eng.shutdown();
    }
}
