//! What the benchmark is: its workloads, fixtures, metrics and bounds.
//! `BENCHMARK.json` is rendered from these tables (`benchmark manifest`)
//! and a unit test keeps the committed file equal to them.

use crate::gen::Shape;
use crate::json::Json;
use crate::layers::{FixtureSpec, Widths};

/// Seconds one run measures when the caller does not say.
pub const RUN_SECONDS: u64 = 12;
/// Seed used when the caller does not give one.
pub const DEFAULT_SEED: u64 = 20_210_620;

/// Shares of `--seconds` given to each phase (they sum to 1). The first
/// is traffic whose results are thrown away: the first second after
/// start-up ran 10–25 % slow in every sizing trial.
pub const WARM_SHARE: f64 = 0.08;
pub const SOLO_SHARE: f64 = 0.24;
pub const SAT_SHARE: f64 = 0.38;
pub const PACED_SHARE: f64 = 0.30;

pub const SMALL: FixtureSpec = FixtureSpec {
    n: 20_000,
    dim: 24,
    clusters: 16,
    queries: 400,
    widths: Widths::Tiny,
    epochs: 20,
    ae_epochs: 3,
};

pub const PAPER: FixtureSpec = FixtureSpec {
    n: 50_000,
    dim: 300,
    clusters: 16,
    queries: 300,
    widths: Widths::Paper,
    epochs: 3,
    ae_epochs: 2,
};

/// `--smoke` fixtures: the same shapes, shrunk until the whole set runs
/// in half a minute.
pub const SMALL_SMOKE: FixtureSpec = FixtureSpec {
    n: 3_000,
    queries: 120,
    epochs: 4,
    ..SMALL
};

pub const PAPER_SMOKE: FixtureSpec = FixtureSpec {
    n: 2_500,
    dim: 96,
    queries: 80,
    epochs: 1,
    ae_epochs: 1,
    ..PAPER
};

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub paper: bool,
    pub shape: Shape,
    /// Open-loop rate, requests per second: about half the `sat` capacity
    /// recorded on the calibration host, frozen.
    pub paced_rate: f64,
    /// Latency limit of the paced phase, µs from due time: about four
    /// times the recorded paced p99, frozen.
    pub slo_us: u64,
    /// Throughput floor of the `sat` phase, estimates per second: 0.6 of
    /// the recorded median, frozen.
    pub sat_floor: f64,
    /// Requests each `sat` connection keeps in flight. 128 is where the
    /// repository's own client sweep found the pipelining win level off
    /// (`BENCH_serve.json`, `client_sweep`); with the shipped default of
    /// 32 the engine coalesced 7-row batches on `small_point` and
    /// throughput swung with the host's mood. The curve workload keeps 32:
    /// its requests are 40 rows each, and 2 × 128 × 40 rows in flight
    /// would run into the engine's admission bound and be shed.
    pub sat_window: usize,
    /// Request pool size (point shapes walk it; the curve shape draws
    /// from its hot prefix).
    pub pool: usize,
    /// Pool objects with a pre-computed ladder oracle.
    pub oracle_objects: usize,
    /// How many times set-up is repeated for the `setup_s` median.
    pub setups: usize,
}

impl Workload {
    pub fn fixture(&self, smoke: bool) -> FixtureSpec {
        match (self.paper, smoke) {
            (false, false) => SMALL,
            (false, true) => SMALL_SMOKE,
            (true, false) => PAPER,
            (true, true) => PAPER_SMOKE,
        }
    }

    pub fn tenants(&self) -> usize {
        if self.shape == Shape::Update {
            2
        } else {
            1
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small_point",
        why: "model is ~3 of ~14 CPU-us per request: client, framing, socket, queue, coalesce and scatter work shows here; kernel and index work must not",
        paper: false,
        shape: Shape::Point,
        paced_rate: 30_000.0,
        slo_us: 20_000,
        sat_floor: 72_000.0,
        sat_window: 128,
        pool: 16_384,
        oracle_objects: 2_048,
        setups: 3,
    },
    Workload {
        name: "paper_point",
        why: "d=300, N=50000: indicator and plan replay dwarf serving overhead: kernel, precision, pruning and replay-thread work shows here; engine and protocol work must not",
        paper: true,
        shape: Shape::Point,
        paced_rate: 1_000.0,
        slo_us: 40_000,
        sat_floor: 3_300.0,
        sat_window: 128,
        pool: 8_192,
        oracle_objects: 128,
        setups: 1,
    },
    Workload {
        name: "paper_curve",
        why: "one hot x (Zipf over 512) and a fresh ascending 40-threshold window per request: x-locality without exact repeats, where curve dedup or caching must show and paper_point must not move",
        paper: true,
        shape: Shape::Curve,
        paced_rate: 100.0,
        slo_us: 200_000,
        sat_floor: 15_000.0,
        sat_window: 32,
        pool: 512,
        oracle_objects: 64,
        setups: 1,
    },
    Workload {
        name: "small_update",
        why: "point reads over two tenants while a drift stream mutates one, retrains it and hot-swaps it cycle after cycle: writes beside reads on two cores, per-tenant batch grouping",
        paper: false,
        shape: Shape::Update,
        paced_rate: 20_000.0,
        slo_us: 60_000,
        sat_floor: 100_000.0,
        sat_window: 128,
        pool: 16_384,
        oracle_objects: 2_048,
        setups: 3,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the served system sees. Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sat_floor_share", "ratio", Higher, 0.25),
    e2e("slo_met_share", "ratio", Higher, 0.05),
    e2e("rss_mb", "MB", Lower, 0.25),
    e2e("mape", "ratio", Lower, 0.01),
];

/// Single layers, from the traced run. "→" in the README says which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: &[Metric] = &[
    // set-up, by the crate that does the work
    layer("data.gen_s", "s", Lower),
    layer("workload.label_s", "s", Lower),
    layer("index.partition_build_s", "s", Lower),
    layer("core.fit_s", "s", Lower),
    layer("core.snapshot_save_ms", "ms", Lower),
    layer("core.snapshot_load_ms", "ms", Lower),
    layer("core.snapshot_mb", "MB", Lower),
    layer("core.plan_compile_ms", "ms", Lower),
    layer("serve.engine_start_ms", "ms", Lower),
    // selnet-metric, selnet-index, selnet-tensor, selnet-core
    layer("metric.sqdist_ns", "ns", Lower),
    layer("index.indicator_ns", "ns", Lower),
    layer("index.active_share", "ratio", Lower),
    layer("index.refresh_assign_s", "s", Lower),
    layer("tensor.gemm_ms", "ms", Lower),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("core.estimate_us", "us", Lower),
    layer("core.batch_us_per_row", "us", Lower),
    layer("core.many_us_per_t", "us", Lower),
    layer("core.replay_us_per_row", "us", Lower),
    layer("core.retrain_s", "s", Lower),
    // selnet-serve::protocol
    layer("protocol.encode_req_ns", "ns", Lower),
    layer("protocol.decode_req_ns", "ns", Lower),
    layer("protocol.encode_resp_ns", "ns", Lower),
    layer("protocol.decode_resp_ns", "ns", Lower),
    layer("protocol.req_bytes", "B", Lower),
    layer("protocol.resp_bytes", "B", Lower),
    // selnet-serve::registry
    layer("registry.resolve_ns", "ns", Lower),
    layer("registry.publish_us", "us", Lower),
    layer("registry.swap_visible_ms", "ms", Lower),
    // selnet-serve::engine, in process and from its own spans
    layer("engine.inproc_us_per_req", "us", Lower),
    layer("engine.inline_us", "us", Lower),
    layer("engine.single_us", "us", Lower),
    layer("engine.overhead_us_per_row", "us", Lower),
    layer("engine.queue_wait_us_p50", "us", Lower),
    layer("engine.queue_wait_us_p99", "us", Lower),
    layer("engine.coalesce_us_p50", "us", Lower),
    layer("engine.generation_bind_us_p50", "us", Lower),
    layer("engine.plan_replay_us_p50", "us", Lower),
    layer("engine.reply_us_p50", "us", Lower),
    layer("engine.plan_replay_share", "ratio", Higher),
    layer("engine.batch_rows_mean", "count", Higher),
    layer("engine.inline_share", "ratio", Higher),
    layer("engine.shed_share", "ratio", Lower),
    // selnet-serve::cache
    layer("cache.hit_share", "ratio", Higher),
    layer("cache.evictions", "count", Lower),
    // selnet-serve::server + socket, selnet-client
    layer("server.residual_us", "us", Lower),
    layer("server.tcp_us_per_req", "us", Lower),
    layer("client.send_ns", "ns", Lower),
    // selnet-obs
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("obs.spans_recorded", "count", Higher),
    layer("obs.spans_dropped", "count", Lower),
    // selnet-eval: reported, never timed
    layer("eval.mse", "sq_count", Lower),
    layer("eval.mae", "count", Lower),
    layer("eval.qerr_p50", "ratio", Lower),
    layer("eval.qerr_p95", "ratio", Lower),
    layer("eval.mono_violations", "count", Lower),
    layer("eval.bit_mismatches", "count", Lower),
    layer("eval.bit_checked", "count", Higher),
    // the layer walk's self times, per wave
    layer("walk.client_encode_self_us", "us", Lower),
    layer("walk.protocol_decode_self_us", "us", Lower),
    layer("walk.registry_resolve_self_us", "us", Lower),
    layer("walk.engine_self_us", "us", Lower),
    layer("walk.core_self_us", "us", Lower),
    layer("walk.index_self_us", "us", Lower),
    layer("walk.waves", "count", Higher),
    // numbers of the phases that were too unsteady on the calibration
    // host to carry a regression bound (README, "Deviations"); measured in
    // the traced run's untraced phases
    layer("phase.est_per_s", "1/s", Higher),
    layer("phase.paced_p50_us", "us", Lower),
    layer("phase.solo_p50_us", "us", Lower),
    layer("phase.solo_p99_us", "us", Lower),
    layer("phase.solo_samples", "count", Higher),
    layer("phase.sat_cpu_us_per_est", "us", Lower),
    layer("phase.paced_p99_us", "us", Lower),
    layer("phase.paced_top_us", "us", Lower),
    layer("phase.paced_top_pct", "%", Higher),
    layer("phase.paced_samples", "count", Higher),
    layer("phase.slo_miss_share", "ratio", Lower),
    layer("phase.fail_share", "ratio", Lower),
    layer("update.swap_s", "s", Lower),
    layer("update.swaps", "count", Higher),
    // generator honesty
    layer("gen.solo.sent", "count", Higher),
    layer("gen.solo.ok", "count", Higher),
    layer("gen.solo.refused", "count", Lower),
    layer("gen.solo.failed", "count", Lower),
    layer("gen.sat.sent", "count", Higher),
    layer("gen.sat.ok", "count", Higher),
    layer("gen.sat.refused", "count", Lower),
    layer("gen.sat.failed", "count", Lower),
    layer("gen.paced.sent", "count", Higher),
    layer("gen.paced.ok", "count", Higher),
    layer("gen.paced.refused", "count", Lower),
    layer("gen.paced.failed", "count", Lower),
    layer("gen.late_p99_us", "us", Lower),
    layer("host.steal_share", "ratio", Lower),
    layer("gen.distinct_x_share", "ratio", Lower),
];

/// The command the driver runs, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn manifest() -> Json {
    let metric = |m: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name));
            assert!(w.oracle_objects <= w.pool);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
        let shares = WARM_SHARE + SOLO_SHARE + SAT_SHARE + PACED_SHARE;
        assert!((shares - 1.0).abs() < 1e-12);
    }

    /// The committed `BENCHMARK.json` is what `benchmark manifest` prints.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), manifest());
    }
}
