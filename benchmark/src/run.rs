//! One run of one workload: set up, check, drive the phases, report.

use crate::drive::{self, Ctx, Oracle, Tally, TENANTS};
use crate::gen::{Req, Shape, Source, Stream, Thresholds, GRID};
use crate::layers::{self, Client, Fail, Fixture, Stack, UpdateFeed};
use crate::ledger::{self, Values};
use crate::metrics::{Workload, PACED_SHARE, SAT_SHARE, SOLO_SHARE, WARM_SHARE};
use crate::spans::SpanStore;
use crate::stats::{highest_supported, median, quantile, window_rates};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The measured phases run this many times, interleaved.
const ROUNDS: usize = 3;
/// Throughput is the median of this many equal windows of every `sat`
/// stretch.
const RATE_WINDOWS: usize = 4;
/// Update operations (five records each) between retrains, and the
/// operation at which the drift jumps.
const OPS_PER_CYCLE: usize = 40;
/// Epoch cap of each §5.4 retrain.
const RETRAIN_EPOCHS: usize = 2;
/// Size of the engine's span ring in the traced phase.
const TRACE_BUFFER: usize = 65_536;
/// One request in this many goes out `QueryTraced` in the traced phase.
const TRACE_EVERY: u64 = 64;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub span_file: Option<std::path::PathBuf>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// User + system CPU of this process so far, µs (`/proc/self/stat`,
/// fields 14 and 15, in the kernel's 100 Hz ticks).
fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10_000.0
}

/// `(stolen, total)` CPU ticks of the whole machine so far (`/proc/stat`):
/// time the hypervisor gave this guest's cores to someone else.
fn host_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    (
        fields.get(7).copied().unwrap_or(0.0),
        fields.iter().take(8).sum(),
    )
}

/// Peak resident set of this process, MB (`VmHWM`).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn span(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// The serving stack of one workload, warmed: every tenant serves a
/// clone of the fixture's loaded model and has answered one request (the
/// first estimate of a generation compiles its plans).
fn start_stack(fx: &Fixture, w: &Workload, trace_buffer: usize) -> Stack {
    let tenants = TENANTS[..w.tenants()]
        .iter()
        .map(|name| (*name, fx.model().clone()))
        .collect();
    let stack = Stack::start(tenants, trace_buffer);
    let mut client = Client::connect(stack.addr(), 1).expect("connect to own listener");
    let x = &fx.rows()[..fx.spec.dim];
    for name in &TENANTS[..w.tenants()] {
        client
            .ask(Some(name), x, &[0.5 * fx.tmax])
            .expect("a fresh stack answers");
    }
    stack
}

/// Seed of the request pools: a constant, like the fixtures.
const POOL_SEED: u64 = 9;

fn source(fx: &Fixture, w: &Workload) -> Source {
    let hot = if w.shape == Shape::Curve { w.pool } else { 1 };
    Source::new(
        POOL_SEED,
        fx.spec.dim,
        fx.rows(),
        fx.ladders(),
        fx.tmax,
        w.pool,
        hot,
    )
}

fn oracle(fx: &Fixture, w: &Workload, src: &Source) -> Oracle {
    let objects = (0..w.oracle_objects.min(src.pool()) as u32).map(|o| (o, src.x(o)));
    let (mut rungs, mut canonical) = (Vec::new(), Vec::new());
    if w.shape == Shape::Curve {
        let mut grid = Vec::new();
        let any = Req {
            tenant: 0,
            obj: 0,
            ts: Thresholds::Canonical,
        };
        src.thresholds(&any, &mut grid);
        canonical = objects
            .map(|(_, x)| layers::estimate_many(fx.model(), x, &grid))
            .collect();
    } else {
        rungs = objects
            .map(|(o, x)| layers::estimate_many(fx.model(), x, src.ladder(o)))
            .collect();
    }
    Oracle {
        rungs,
        canonical,
        upper: 2.0 * fx.records() as f64,
        // `alpha` is the tenant the update workload retrains
        frozen: [w.shape != Shape::Update, true],
    }
}

/// Accuracy of served replies on the held-out split.
struct Eval {
    mse: f64,
    mae: f64,
    mape: f64,
    qerr_p50: f64,
    qerr_p95: f64,
}

/// The correctness gate: serves the fixture's whole held-out labelled
/// split over TCP, to every tenant, and requires right length, finite
/// values in `[0, N]`, non-decreasing estimates along every ascending
/// ladder (Lemma 1) and bit-identity with direct `estimate_many` on the
/// loaded model.
fn gate(fx: &Fixture, w: &Workload, stack: &Stack, tally: &mut Tally) -> Eval {
    let mut client = Client::connect(stack.addr(), 1).ok();
    let mut pairs = Vec::new();
    let upper = fx.records() as f64;
    for (x, ts, labels) in fx.held_out() {
        let direct = layers::estimate_many(fx.model(), x, ts);
        for (i, name) in TENANTS[..w.tenants()].iter().enumerate() {
            tally.sent += 1;
            let reply = client
                .as_mut()
                .ok_or(Fail::Transport)
                .and_then(|c| c.ask(Some(name), x, ts));
            if reply == Err(Fail::Transport) {
                client = None; // the connection is dead
            }
            let served = drive::book(reply, ts.len(), upper, Some(&direct), tally);
            if let (0, Some(values)) = (i, served) {
                pairs.extend(values.into_iter().zip(labels.iter().copied()));
            }
        }
    }
    let mut qerr: Vec<f64> = pairs
        .iter()
        .map(|&(p, y)| {
            let (p, y) = (p.max(1.0), y.max(1.0));
            (p / y).max(y / p)
        })
        .collect();
    qerr.sort_by(f64::total_cmp);
    let q = |p: f64| qerr.get(((qerr.len() as f64 * p) as usize).min(qerr.len().saturating_sub(1)));
    let (qerr_p50, qerr_p95) = (
        q(0.50).copied().unwrap_or(0.0),
        q(0.95).copied().unwrap_or(0.0),
    );
    let (mse, mae, mape) = layers::error_metrics(pairs.into_iter());
    Eval {
        mse,
        mae,
        mape,
        qerr_p50,
        qerr_p95,
    }
}

/// What the update thread saw.
#[derive(Default)]
struct UpdateLog {
    /// Retrain trigger → first reply served by the new generation, s.
    swap_s: Vec<f64>,
    /// Retrain trigger → publish, s.
    retrain_s: Vec<f64>,
    tally: Tally,
}

/// The write side of `small_update`, cycle after cycle until `stop`:
/// mutate `alpha`'s dataset, retrain and hot-swap, then ask the new
/// generation one ladder over TCP. That reply is the swap's end point,
/// and — the tenant being quiescent right then — it must equal the new
/// generation's direct evaluation bit for bit.
fn update_loop(
    fx: &Fixture,
    stack: &Stack,
    src: &Source,
    seed: u64,
    stop: &AtomicBool,
) -> UpdateLog {
    let mut log = UpdateLog::default();
    let mut feed = UpdateFeed::new(fx, seed ^ 0xd21f7, OPS_PER_CYCLE);
    let mut client = Client::connect(stack.addr(), 1).ok();
    let mut probe = 0u32;
    while !stop.load(Ordering::SeqCst) {
        feed.apply(OPS_PER_CYCLE);
        let done = feed.retrain(stack, TENANTS[0], RETRAIN_EPOCHS);
        probe = (probe + 1) % src.pool() as u32;
        let (x, ts) = (src.x(probe), src.ladder(probe));
        log.tally.sent += 1;
        let reply = client
            .as_mut()
            .ok_or(Fail::Transport)
            .and_then(|c| c.ask(Some(TENANTS[0]), x, ts));
        let swap_s = done.triggered.elapsed().as_secs_f64();
        if reply == Err(Fail::Transport) {
            client = None; // the connection is dead
        }
        let (generation, model) = stack.current(TENANTS[0]);
        // only this thread publishes, so the generation that answered is
        // the one just published; anything else is a mismatch
        let direct = if generation == done.generation {
            layers::estimate_many(&model, x, ts)
        } else {
            Vec::new()
        };
        let upper = 2.0 * feed.records() as f64;
        if drive::book(reply, ts.len(), upper, Some(&direct), &mut log.tally).is_some() {
            log.swap_s.push(swap_s);
            log.retrain_s.push(done.publish_s);
        }
    }
    log
}

/// Numbers of the three measured phases, all rounds together.
struct Phases {
    warm: Tally,
    solo: Tally,
    solo_ns: Vec<u64>,
    sat: Tally,
    est_per_s: f64,
    /// Share of the `sat` windows at or above the workload's floor rate.
    sat_floor_share: f64,
    sat_cpu_us: f64,
    /// Mean rows per coalesced batch over the `sat` stretches.
    sat_batch_rows: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// measured rounds.
    steal_share: f64,
    paced: drive::Paced,
    update: UpdateLog,
}

impl Phases {
    fn tallies(&self) -> [&Tally; 5] {
        [
            &self.warm,
            &self.solo,
            &self.sat,
            &self.paced.tally,
            &self.update.tally,
        ]
    }
}

/// One closed-loop `sat` stretch of `length`: the lanes' tally and
/// completions, and the rate of each of its windows.
fn sat_stretch(
    ctx: Ctx,
    streams: &mut [Stream],
    length: Duration,
    trace_every: u64,
) -> (drive::Lane, Vec<f64>) {
    let t0 = ctx.now_ns();
    let lane = drive::sat(ctx, streams, Instant::now() + length, trace_every);
    let rates = window_rates(
        &lane.completions,
        t0,
        t0 + length.as_nanos() as u64,
        RATE_WINDOWS,
    );
    (lane, rates)
}

/// Warm-up (discarded), then [`ROUNDS`] rounds of `solo`, `sat`, `paced`
/// on a running stack, with the update thread beside them on the update
/// workload. The phases are interleaved so that a hiccup of the host
/// lands on a part of every metric's samples instead of on all of one
/// metric's; medians over all rounds then shrug it off.
fn drive_phases(
    fx: &Fixture,
    w: &Workload,
    stack: &Stack,
    src: &Source,
    oracle: &Oracle,
    seed: u64,
    seconds: f64,
) -> Phases {
    let ctx = Ctx {
        addr: stack.addr(),
        src,
        oracle,
        epoch: Instant::now(),
        window: w.sat_window,
    };
    let streams = |phase: &str, lanes: usize| -> Vec<Stream> {
        (0..lanes)
            .map(|l| Stream::new(src, w.shape, seed, phase, l, lanes))
            .collect()
    };
    let per_round = |share: f64| span(seconds, share / ROUNDS as f64);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let updater = (w.shape == Shape::Update)
            .then(|| scope.spawn(|| update_loop(fx, stack, src, seed, &stop)));

        let mut p = Phases {
            warm: drive::sat(
                ctx,
                &mut streams("warm", lanes()),
                Instant::now() + span(seconds, WARM_SHARE),
                0,
            )
            .tally,
            solo: Tally::default(),
            solo_ns: Vec::new(),
            sat: Tally::default(),
            est_per_s: 0.0,
            sat_floor_share: 0.0,
            sat_cpu_us: 0.0,
            sat_batch_rows: 0.0,
            steal_share: 0.0,
            paced: drive::Paced::default(),
            update: UpdateLog::default(),
        };
        let mut solo_stream = streams("solo", 1);
        let mut sat_streams = streams("sat", lanes());
        let mut paced_stream = streams("paced", 1);
        let mut rates = Vec::new();
        let (mut batches, mut batch_rows) = (0u64, 0.0f64);
        let h0 = host_ticks();
        for _ in 0..ROUNDS {
            let (tally, ns) = drive::solo(
                ctx,
                &mut solo_stream[0],
                Instant::now() + per_round(SOLO_SHARE),
            );
            p.solo.add(&tally);
            p.solo_ns.extend(ns);

            let (cpu0, c0) = (cpu_us(), stack.counters());
            let (lane, round_rates) = sat_stretch(ctx, &mut sat_streams, per_round(SAT_SHARE), 0);
            p.sat_cpu_us += cpu_us() - cpu0;
            let c1 = stack.counters();
            batches += c1.batches - c0.batches;
            batch_rows += c1.batch_rows - c0.batch_rows;
            p.sat.add(&lane.tally);
            rates.extend(round_rates);

            let round = drive::paced(
                ctx,
                &mut paced_stream[0],
                w.paced_rate,
                per_round(PACED_SHARE),
                w.slo_us * 1_000,
            );
            p.paced.add(round);
        }
        let h1 = host_ticks();
        p.steal_share = (h1.0 - h0.0) / (h1.1 - h0.1).max(1.0);
        p.est_per_s = median(&rates);
        let above = rates.iter().filter(|&&r| r >= w.sat_floor).count();
        p.sat_floor_share = above as f64 / rates.len().max(1) as f64;
        p.sat_batch_rows = batch_rows / batches.max(1) as f64;

        stop.store(true, Ordering::SeqCst);
        if let Some(h) = updater {
            p.update = h.join().expect("update thread panicked");
        }
        p
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Books the numbers both kinds of run report from the phases (and
/// leaves their latency samples sorted).
fn phase_values(w: &Workload, p: &mut Phases, out: &mut Values) {
    p.solo_ns.sort_unstable();
    p.paced.latency_ns.sort_unstable();
    p.paced.late_ns.sort_unstable();
    let (solo, paced, late) = (&p.solo_ns, &p.paced.latency_ns, &p.paced.late_ns);
    out.set("sat_floor_share", p.sat_floor_share);
    out.set("phase.est_per_s", p.est_per_s);
    out.set("host.steal_share", p.steal_share);
    out.set("phase.solo_p50_us", us(quantile(solo, 0.50)));
    out.set("phase.paced_p50_us", us(quantile(paced, 0.50)));
    out.set(
        "phase.sat_cpu_us_per_est",
        p.sat_cpu_us / p.sat.rows.max(1) as f64,
    );
    let sent = p.paced.tally.sent.max(1) as f64;
    out.set("slo_met_share", 1.0 - p.paced.slo_missed as f64 / sent);
    out.set("phase.slo_miss_share", p.paced.slo_missed as f64 / sent);
    out.set("phase.solo_p99_us", us(quantile(solo, 0.99)));
    out.set("phase.solo_samples", solo.len() as f64);
    out.set("phase.paced_p99_us", us(quantile(paced, 0.99)));
    let top = highest_supported(paced.len()).unwrap_or(0.5);
    out.set("phase.paced_top_us", us(quantile(paced, top)));
    out.set("phase.paced_top_pct", top * 100.0);
    out.set("phase.paced_samples", paced.len() as f64);
    out.set("gen.late_p99_us", us(quantile(late, 0.99)));
    for (phase, t) in [
        ("solo", &p.solo),
        ("sat", &p.sat),
        ("paced", &p.paced.tally),
    ] {
        for (what, v) in [
            ("sent", t.sent),
            ("ok", t.ok),
            ("refused", t.refused),
            ("failed", t.failed()),
        ] {
            out.set(format!("gen.{phase}.{what}"), v as f64);
        }
    }
    if w.shape == Shape::Update {
        out.set("update.swap_s", median(&p.update.swap_s));
        out.set("update.swaps", p.update.swap_s.len() as f64);
        out.set("core.retrain_s", median(&p.update.retrain_s));
    }
}

/// Adds up the run's tallies into its outcome.
fn finish<'a>(mut out: Values, tallies: impl IntoIterator<Item = &'a Tally>) -> Outcome {
    let mut all = Tally::default();
    for t in tallies {
        all.add(t);
    }
    let (attempted, failed) = (all.sent, all.bad());
    out.set("phase.fail_share", failed as f64 / attempted.max(1) as f64);
    out.set("eval.mono_violations", all.non_monotone as f64);
    out.set("eval.bit_mismatches", all.mismatched as f64);
    out.set("eval.bit_checked", all.bit_checked as f64);
    Outcome {
        attempted,
        failed,
        values: out,
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let spec = w.fixture(args.smoke);
    let mut out = Values::default();

    // set-up, repeated on the small fixture so that `setup_s` is a median
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..w.setups.max(1) {
        if let Some((_, stack)) = live.take() {
            Stack::shutdown(stack);
        }
        let t = Instant::now();
        let fx = Fixture::build(spec);
        let stack = start_stack(&fx, w, 0);
        setups.push(t.elapsed().as_secs_f64());
        live = Some((fx, stack));
    }
    let (fx, stack) = live.expect("at least one set-up");
    out.set("setup_s", median(&setups));

    let src = source(&fx, w);
    let oracle = oracle(&fx, w, &src);
    let mut gate_tally = Tally::default();
    let eval = gate(&fx, w, &stack, &mut gate_tally);
    out.set("mape", eval.mape);

    let mut phases = drive_phases(&fx, w, &stack, &src, &oracle, args.seed, args.seconds);
    phase_values(w, &mut phases, &mut out);
    let counters = stack.counters();
    out.set(
        "cache.hit_share",
        counters.cache_hits as f64 / counters.requests.max(1) as f64,
    );
    stack.shutdown();
    out.set("rss_mb", rss_mb());

    finish(out, phases.tallies().into_iter().chain([&gate_tally]))
}

/// The traced run: every per-layer metric, and the span file.
pub fn run_traced(args: &Args) -> Outcome {
    let w = args.workload;
    let spec = w.fixture(args.smoke);
    let mut out = Values::default();
    let mut store = SpanStore::default();
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;

    let fx = Fixture::build(spec);
    out.set("data.gen_s", fx.times.gen_s);
    out.set("workload.label_s", fx.times.label_s);
    out.set("core.fit_s", fx.times.fit_s);
    out.set("core.snapshot_save_ms", fx.times.save_ms);
    out.set("core.snapshot_load_ms", fx.times.load_ms);
    out.set("core.snapshot_mb", fx.times.snapshot_mb);
    // the first estimate after a load compiles the plans
    let x = &fx.rows()[..spec.dim];
    let t = Instant::now();
    layers::estimate(fx.model(), x, 0.5 * fx.tmax);
    let first = t.elapsed().as_secs_f64();
    let steady: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(layers::estimate(fx.model(), x, 0.5 * fx.tmax));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set(
        "core.plan_compile_ms",
        (first - median(&steady)).max(0.0) * 1e3,
    );
    out.set("index.partition_build_s", fx.partition_build_s());
    if w.shape == Shape::Update {
        out.set("index.refresh_assign_s", fx.refresh_assign_s());
    }

    let stack = start_stack(&fx, w, 0);
    out.set("serve.engine_start_ms", stack.start_ms);
    let src = source(&fx, w);
    let oracle = oracle(&fx, w, &src);
    let mut gate_tally = Tally::default();
    let eval = gate(&fx, w, &stack, &mut gate_tally);
    out.set("eval.mse", eval.mse);
    out.set("eval.mae", eval.mae);
    out.set("eval.qerr_p50", eval.qerr_p50);
    out.set("eval.qerr_p95", eval.qerr_p95);

    // the layer walk and the single calls get a sixth of the run
    let rig = ledger::Rig {
        fx: &fx,
        stack: &stack,
        src: &src,
    };
    let walk_stream = Stream::new(&src, w.shape, args.seed, "walk", 0, 1);
    let budget = span(args.seconds, 0.12);
    ledger::walk(rig, walk_stream, epoch, budget, &mut store, &mut out);
    let micro_stream = Stream::new(&src, w.shape, args.seed, "micro", 0, 1);
    ledger::micro(rig, micro_stream, &mut out);

    // untraced phases, at 0.6 of their usual length
    let before = stack.counters();
    let mut phases = drive_phases(&fx, w, &stack, &src, &oracle, args.seed, 0.6 * args.seconds);
    phase_values(w, &mut phases, &mut out);
    let c = stack.counters();
    let requests = (c.requests - before.requests).max(1) as f64;
    out.set("engine.batch_rows_mean", phases.sat_batch_rows);
    out.set(
        "engine.inline_share",
        (c.inline_requests - before.inline_requests) as f64 / requests,
    );
    let shed = (c.shed_requests - before.shed_requests) as f64;
    out.set("engine.shed_share", shed / (requests + shed));
    out.set(
        "cache.hit_share",
        (c.cache_hits - before.cache_hits) as f64 / requests,
    );
    out.set(
        "cache.evictions",
        (c.cache_evictions - before.cache_evictions) as f64,
    );
    stack.shutdown();

    // the same `sat` traffic on an engine with its flight recorder armed
    let traced_at = now_ns();
    let stack = start_stack(&fx, w, TRACE_BUFFER);
    let ctx = Ctx {
        addr: stack.addr(),
        src: &src,
        oracle: &oracle,
        epoch,
        window: w.sat_window,
    };
    let mut streams: Vec<Stream> = (0..lanes())
        .map(|l| Stream::new(&src, w.shape, args.seed, "traced", l, lanes()))
        .collect();
    let t0 = now_ns();
    let (traced, rates) = sat_stretch(ctx, &mut streams, span(args.seconds, 0.25), TRACE_EVERY);
    let traced_rate = median(&rates);
    out.set(
        "obs.trace_overhead_ratio",
        phases.est_per_s / traced_rate.max(f64::MIN_POSITIVE),
    );
    let (spans, recorded) = stack.engine_spans();
    stack.shutdown();
    out.set("obs.spans_recorded", recorded as f64);
    out.set(
        "obs.spans_dropped",
        recorded.saturating_sub(spans.len() as u64) as f64,
    );
    let root = store.push(0, 0, "engine.traced_sat", t0, now_ns());
    let mut by_kind: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for s in &spans {
        by_kind.entry(s.kind).or_default().push(s.dur_ns);
        // the engine stamps spans from its own start; `traced_at` is ours
        let start = traced_at + s.start_ns;
        store.push(
            root,
            s.trace_id,
            &format!("engine.{}", s.kind),
            start,
            start + s.dur_ns,
        );
    }
    for durations in by_kind.values_mut() {
        durations.sort_unstable();
    }
    let kind = |k: &str| by_kind.get(k).map_or(&[][..], Vec::as_slice);
    let sum = |k: &str| by_kind.get(k).map_or(0, |v| v.iter().sum::<u64>()) as f64;
    for k in [
        "queue_wait",
        "coalesce",
        "generation_bind",
        "plan_replay",
        "reply",
    ] {
        out.set(format!("engine.{k}_us_p50"), us(quantile(kind(k), 0.50)));
    }
    out.set(
        "engine.queue_wait_us_p99",
        us(quantile(kind("queue_wait"), 0.99)),
    );
    // `coalesce` spans a whole batch stage, the others are inside it
    out.set(
        "engine.plan_replay_share",
        sum("plan_replay") / sum("coalesce").max(1.0),
    );

    // derived rows of the ledger
    let get = |out: &Values, k: &str| out.get(k).unwrap_or(0.0);
    let wire_us = [
        "protocol.encode_req_ns",
        "protocol.decode_req_ns",
        "protocol.encode_resp_ns",
        "protocol.decode_resp_ns",
    ]
    .iter()
    .map(|k| get(&out, k))
    .sum::<f64>()
        / 1e3;
    out.set(
        "server.residual_us",
        get(&out, "phase.solo_p50_us") - wire_us - get(&out, "engine.single_us"),
    );
    let rows_per_req = match w.shape {
        Shape::Curve => GRID as f64,
        _ => phases.sat.rows as f64 / phases.sat.ok.max(1) as f64,
    };
    let wall_us_per_req = 1e6 * rows_per_req / phases.est_per_s.max(f64::MIN_POSITIVE);
    out.set(
        "server.tcp_us_per_req",
        wall_us_per_req - get(&out, "engine.inproc_us_per_req"),
    );
    let distinct: std::collections::BTreeSet<u32> =
        Stream::new(&src, w.shape, args.seed, "sat", 0, 1)
            .take(10_000)
            .map(|r| r.obj)
            .collect();
    out.set("gen.distinct_x_share", distinct.len() as f64 / 10_000.0);

    if let Some(path) = &args.span_file {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                store.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            eprintln!("benchmark: could not write {}: {e}", path.display());
        }
    }

    let tallies = phases.tallies().into_iter();
    finish(out, tallies.chain([&gate_tally, &traced.tally]))
}
