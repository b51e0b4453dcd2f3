//! The drift gauntlet: the §5.4 update loop driven end to end under
//! served traffic, with accuracy-over-time recording.
//!
//! One gauntlet run wires every layer of the reproduction together:
//!
//! 1. train a [`PartitionedSelNet`] and register it as a tenant of a
//!    multi-tenant [`Engine`];
//! 2. stream insert/delete operations through
//!    [`UpdateSimulator::step_drifted`] under a step-counted
//!    [`DriftSchedule`] (gradual / abrupt / cyclical / adversarial),
//!    keeping an exact oracle — the eval split's labels are maintained
//!    incrementally, so ground truth never goes stale;
//! 3. every `ops_per_tick` operations, take a **measurement tick**: serve
//!    the eval queries *through the engine* (mixing the pipelined and
//!    blocking paths) and record MAPE-vs-exact-oracle, monotonicity
//!    violations, and bit-identity against the published generation's own
//!    `estimate_many`;
//! 4. every `retrain_every_ticks` ticks, trigger a §5.4
//!    `check_and_update` retrain via [`Tenant::spawn_update`] — the old
//!    generation keeps serving while the retrain runs (the gauntlet pumps
//!    traffic for the whole retrain), then the new generation is hot
//!    swapped in and the swap lands in the tenant's lineage log.
//!
//! Determinism: schedules are pure functions of the op index, the
//! simulator's RNG is seeded (and snapshottable), training is
//! deterministic for any thread count, and retrain handles are joined at
//! the tick boundary before the tick measures — so the recorded MAPE
//! series is bit-reproducible run to run. Wall-clock (tick and swap
//! durations) is *recorded* for the benchmark artifact but never
//! asserted on.

use crate::servebench::json_number;
use selnet_core::{
    fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig, UpdatePolicy,
};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_eval::{MetricsAccumulator, SelectivityEstimator};
use selnet_metric::DistanceKind;
use selnet_obs::{Histogram, HistogramSnapshot};
use selnet_serve::engine::{Engine, EngineConfig, Request, SubmitError};
use selnet_serve::registry::{ModelRegistry, SwapRecord, Tenant};
use selnet_workload::{
    generate_workload, DriftSchedule, LabeledQuery, UpdateSimulator, WorkloadConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// The tenant name every gauntlet serves under.
pub const TENANT: &str = "drift";

/// Which of the four drift families to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// Slow linear slide of the insertion distribution.
    Gradual,
    /// Step change one third of the way through the stream.
    Abrupt,
    /// Sinusoidal oscillation of the insertion distribution.
    Cyclical,
    /// Shell inserts around a served probe query (arXiv:2401.06047-style
    /// worst case for the selectivity surface).
    Adversarial,
}

impl ScheduleSpec {
    /// All four families, in recording order.
    pub fn all() -> [ScheduleSpec; 4] {
        [
            ScheduleSpec::Gradual,
            ScheduleSpec::Abrupt,
            ScheduleSpec::Cyclical,
            ScheduleSpec::Adversarial,
        ]
    }

    /// The family label used in reports and `BENCH_drift.json` keys.
    pub fn label(&self) -> &'static str {
        match self {
            ScheduleSpec::Gradual => "gradual",
            ScheduleSpec::Abrupt => "abrupt",
            ScheduleSpec::Cyclical => "cyclical",
            ScheduleSpec::Adversarial => "adversarial",
        }
    }

    /// Parses a family label (as the `selnet-drift` CLI accepts it).
    pub fn parse(s: &str) -> Option<ScheduleSpec> {
        match s {
            "gradual" => Some(ScheduleSpec::Gradual),
            "abrupt" => Some(ScheduleSpec::Abrupt),
            "cyclical" => Some(ScheduleSpec::Cyclical),
            "adversarial" => Some(ScheduleSpec::Adversarial),
            _ => None,
        }
    }
}

/// Problem-size knobs: dataset, workload, and training scale.
#[derive(Clone, Debug)]
pub struct GauntletScale {
    /// Dataset records.
    pub records: usize,
    /// Dataset dimensionality.
    pub dim: usize,
    /// Generator clusters.
    pub clusters: usize,
    /// Labeled queries in the workload (80:10:10 split; the 10% test
    /// split is the gauntlet's oracle-tracked eval set).
    pub queries: usize,
    /// Thresholds per labeled query.
    pub thresholds_per_query: usize,
    /// Initial-fit epochs.
    pub train_epochs: usize,
    /// Partitions (`k`) of the partitioned model.
    pub partitions: usize,
    /// Epoch cap for each §5.4 incremental retrain.
    pub update_epochs: usize,
    /// Records per update operation.
    pub op_batch: usize,
}

impl GauntletScale {
    /// Seconds-scale: the size the tier-1 test and the CI smoke job run.
    pub fn tiny() -> Self {
        GauntletScale {
            records: 300,
            dim: 4,
            clusters: 3,
            queries: 40,
            thresholds_per_query: 6,
            train_epochs: 2,
            partitions: 2,
            update_epochs: 2,
            op_batch: 5,
        }
    }

    /// The recorded-benchmark size (`BENCH_drift.json`).
    pub fn full() -> Self {
        GauntletScale {
            records: 1200,
            dim: 6,
            clusters: 4,
            queries: 60,
            thresholds_per_query: 8,
            train_epochs: 4,
            partitions: 3,
            update_epochs: 4,
            op_batch: 10,
        }
    }
}

/// One gauntlet run's full configuration.
#[derive(Clone, Debug)]
pub struct GauntletConfig {
    /// Drift family to run.
    pub spec: ScheduleSpec,
    /// Problem size.
    pub scale: GauntletScale,
    /// Total update operations to stream.
    pub total_ops: usize,
    /// Operations between measurement ticks.
    pub ops_per_tick: usize,
    /// Ticks between §5.4 retrain triggers.
    pub retrain_every_ticks: usize,
    /// The §5.4 update policy each retrain runs with. A negative
    /// `mae_tolerance` forces every trigger to retrain (the tiny-scale
    /// default, so CI always exercises the swap path); a positive one
    /// lets the skip rule act and records the skips.
    pub policy: UpdatePolicy,
    /// Seed for data, workload, model init, and the op stream.
    pub seed: u64,
    /// Engine knobs the gauntlet serves through.
    pub engine: EngineConfig,
}

impl GauntletConfig {
    fn engine_defaults() -> EngineConfig {
        EngineConfig {
            workers: 2,
            shards: 1,
            max_batch_rows: 16,
            cache_entries: 32,
            max_queue_rows: 4096,
            slow_query_us: 0,
            trace_buffer: 0,
        }
    }

    /// The deterministic seconds-scale gauntlet (tier-1 / CI smoke).
    pub fn tiny(spec: ScheduleSpec) -> Self {
        GauntletConfig {
            spec,
            scale: GauntletScale::tiny(),
            total_ops: 48,
            ops_per_tick: 8,
            retrain_every_ticks: 3,
            policy: UpdatePolicy {
                mae_tolerance: -1.0,
                patience: 2,
                max_epochs: 2,
            },
            seed: 11,
            engine: Self::engine_defaults(),
        }
    }

    /// The recorded-benchmark gauntlet.
    pub fn full(spec: ScheduleSpec) -> Self {
        GauntletConfig {
            spec,
            scale: GauntletScale::full(),
            total_ops: 180,
            ops_per_tick: 15,
            retrain_every_ticks: 3,
            policy: UpdatePolicy {
                mae_tolerance: -1.0,
                patience: 2,
                max_epochs: 4,
            },
            seed: 11,
            engine: Self::engine_defaults(),
        }
    }
}

/// One measurement tick of the accuracy-over-time series.
#[derive(Clone, Debug)]
pub struct TickRecord {
    /// Operation index the tick was taken at (0 = pre-drift baseline).
    pub op_index: usize,
    /// Generation serving at measurement time.
    pub generation: u64,
    /// Records in the drifted dataset.
    pub dataset_len: usize,
    /// MAPE of served replies against the exact (incrementally
    /// maintained) oracle labels.
    pub mape: f64,
    /// MAE against the same oracle.
    pub mae: f64,
    /// Monotonicity violations across every served reply this tick
    /// (ascending threshold grids — a consistent model scores 0).
    pub monotonicity_violations: usize,
    /// Served replies that were not bit-identical to the published
    /// generation's own `estimate_many` (must be 0: coalescing and
    /// caching may never change an answer).
    pub bit_mismatches: usize,
    /// Wall-clock milliseconds the tick's serving took (recorded for the
    /// benchmark artifact; never asserted).
    pub tick_ms: f64,
}

/// Everything one gauntlet run produced.
#[derive(Clone, Debug)]
pub struct GauntletResult {
    /// Family label (`gradual` / `abrupt` / `cyclical` / `adversarial`).
    pub schedule: String,
    /// MAPE at op 0, before any drift.
    pub pre_drift_mape: f64,
    /// MAPE measured immediately after the **last** hot swap.
    pub post_swap_mape: f64,
    /// MAPE at the final tick.
    pub final_mape: f64,
    /// Worst tick MAPE over the whole run.
    pub max_mape: f64,
    /// Hot swaps published (every `spawn_update` publishes, including
    /// restore-kept models — the swap is what's counted).
    pub hot_swaps: usize,
    /// Retrains whose parameters actually changed
    /// (`UpdateDecision::retrained()`).
    pub retrains_applied: usize,
    /// Retrain triggers the §5.4 skip rule declined.
    pub retrains_skipped: usize,
    /// Total monotonicity violations across every served reply (ticks
    /// plus mid-retrain pump traffic).
    pub monotonicity_violations: usize,
    /// Total served replies differing from the published generation's
    /// direct evaluation.
    pub bit_mismatches: usize,
    /// Requests shed by admission control over the run.
    pub shed_requests: u64,
    /// The tenant's generation lineage (one record per hot swap, with the
    /// producing retrain's wall-clock cost).
    pub lineage: Vec<SwapRecord>,
    /// One `UpdateDecision::summary()` per retrain trigger, in order.
    pub decisions: Vec<String>,
    /// The accuracy-over-time series.
    pub ticks: Vec<TickRecord>,
    /// Queued-rows depth, sampled at every tick and throughout each
    /// mid-retrain traffic pump (log-bucketed; quantiles are
    /// bucket-exact).
    pub queue_depth: HistogramSnapshot,
    /// Swap (producing-retrain) latency in microseconds, straight from
    /// the tenant's `selnet_retrain_us` histogram — the same series the
    /// serving fleet exposes over `?metrics`.
    pub swap_latency_us: HistogramSnapshot,
}

impl GauntletResult {
    /// `post_swap_mape / pre_drift_mape` — the adaptation headroom the
    /// guard floors bound (both terms are oracle-exact, so the ratio is
    /// deterministic).
    pub fn mape_ratio(&self) -> f64 {
        self.post_swap_mape / self.pre_drift_mape.max(1e-12)
    }

    /// Mean producing-update cost over the lineage, milliseconds.
    pub fn mean_swap_ms(&self) -> f64 {
        if self.lineage.is_empty() {
            return 0.0;
        }
        self.lineage.iter().map(|s| s.update_ms).sum::<f64>() / self.lineage.len() as f64
    }
}

/// Builds the concrete [`DriftSchedule`] for a family, sized relative to
/// the trained model's threshold range (`tmax`) so drift magnitudes mean
/// the same thing at every scale.
pub fn build_schedule(
    spec: ScheduleSpec,
    tmax: f32,
    dim: usize,
    seed: u64,
    total_ops: usize,
    probe: &[LabeledQuery],
) -> DriftSchedule {
    let half = (total_ops / 2).max(2);
    match spec {
        ScheduleSpec::Gradual => {
            DriftSchedule::gradual(dim, seed ^ 1, 0.5 * tmax / total_ops.max(1) as f32)
        }
        ScheduleSpec::Abrupt => DriftSchedule::abrupt(dim, seed ^ 2, 0.5 * tmax, total_ops / 3),
        ScheduleSpec::Cyclical => DriftSchedule::cyclical(dim, seed ^ 3, 0.4 * tmax, half),
        ScheduleSpec::Adversarial => {
            // the shell surrounds a query the gauntlet actually serves, so
            // the induced selectivity knee sits exactly where it hurts
            let center = probe
                .first()
                .map(|q| q.x.clone())
                .unwrap_or_else(|| vec![0.0; dim]);
            DriftSchedule::adversarial(center, 0.3 * tmax, 0.9 * tmax, half)
        }
    }
}

fn request(q: &LabeledQuery) -> Request {
    Request::new(q.x.clone())
        .thresholds(q.thresholds.clone())
        .model(TENANT)
}

/// Serves one eval pass through the engine — half the queries pipelined
/// (`submit`, coalescing), half blocking (inline fast path) — and scores
/// every reply against the oracle labels and the published generation.
fn measure(
    engine: &Engine<PartitionedSelNet>,
    tenant: &Tenant<PartitionedSelNet>,
    eval: &[LabeledQuery],
    op_index: usize,
    dataset_len: usize,
) -> TickRecord {
    let started = Instant::now();
    let (generation, current) = tenant.current();
    let mut acc = MetricsAccumulator::new();
    let mut violations = 0usize;
    let mut mismatches = 0usize;
    // pipelined half: submitted as one burst so the worker coalesces them
    let handles: Vec<_> = eval
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, q)| engine.submit(request(q)))
        .collect();
    let mut replies: Vec<(usize, Vec<f64>)> = Vec::with_capacity(eval.len());
    for ((i, q), handle) in eval
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .zip(handles)
    {
        let got = match handle {
            Ok(h) => h.wait().expect("engine running"),
            // shed under a saturated bench config: the blocking path is
            // never shed and returns the identical bits
            Err(SubmitError::Overloaded { .. }) => {
                engine.serve_blocking(&request(q)).expect("engine running")
            }
            Err(e) => panic!("submit failed: {e}"),
        };
        replies.push((i, got));
    }
    for (i, q) in eval.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
        let got = engine.serve_blocking(&request(q)).expect("engine running");
        replies.push((i, got));
    }
    for (i, got) in replies {
        let q = &eval[i];
        // bit-identity: the served reply must equal the published
        // generation's own direct evaluation, regardless of path
        if got != current.estimate_many(&q.x, &q.thresholds) {
            mismatches += 1;
        }
        violations += got.windows(2).filter(|p| p[1] < p[0]).count();
        for (pred, &truth) in got.iter().zip(&q.selectivities) {
            acc.push(*pred, truth);
        }
    }
    let metrics = acc.finish();
    TickRecord {
        op_index,
        generation,
        dataset_len,
        mape: metrics.mape,
        mae: metrics.mae,
        monotonicity_violations: violations,
        bit_mismatches: mismatches,
        tick_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Runs one drift gauntlet to completion and returns its full record.
pub fn run_gauntlet(cfg: &GauntletConfig) -> GauntletResult {
    let scale = &cfg.scale;
    let kind = DistanceKind::Euclidean;
    let mut ds = fasttext_like(&GeneratorConfig::new(
        scale.records,
        scale.dim,
        scale.clusters,
        cfg.seed,
    ));
    let mut wcfg = WorkloadConfig::new(scale.queries, kind, cfg.seed ^ 5);
    wcfg.thresholds_per_query = scale.thresholds_per_query;
    let w = generate_workload(&ds, &wcfg);
    let mut train = w.train.clone();
    let mut valid = w.valid.clone();
    // the eval split doubles as the exact oracle: its labels are
    // maintained incrementally through every op, so "truth" never stales
    let mut eval = w.test.clone();

    let mut scfg = SelNetConfig::tiny();
    scfg.epochs = scale.train_epochs;
    scfg.seed = cfg.seed;
    let pcfg = PartitionConfig {
        k: scale.partitions,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _) = fit_partitioned(&ds, &w, &scfg, &pcfg);
    let tmax = model.tmax();
    let schedule = build_schedule(cfg.spec, tmax, ds.dim(), cfg.seed, cfg.total_ops, &eval);

    let registry = Arc::new(ModelRegistry::empty());
    let tenant = registry
        .register(TENANT, model)
        .expect("gauntlet tenant name is valid");
    let engine = Engine::start(Arc::clone(&registry), &cfg.engine);

    let mut sim = UpdateSimulator::new(cfg.seed ^ 0xd21f7);
    sim.batch = scale.op_batch;

    let queue_depth = Histogram::new();
    let mut ticks = Vec::new();
    ticks.push(measure(&engine, &tenant, &eval, 0, ds.len()));
    let pre_drift_mape = ticks[0].mape;
    let mut post_swap_mape = pre_drift_mape;
    let mut retrains_applied = 0usize;
    let mut retrains_skipped = 0usize;
    let mut pump_violations = 0usize;
    let mut decisions = Vec::new();

    let num_ticks = cfg.total_ops / cfg.ops_per_tick.max(1);
    let mut op = 0usize;
    for tick in 1..=num_ticks {
        for _ in 0..cfg.ops_per_tick {
            let spec = schedule.at(op);
            let mut splits = vec![
                train.as_mut_slice(),
                valid.as_mut_slice(),
                eval.as_mut_slice(),
            ];
            sim.step_drifted(&mut ds, &mut splits, kind, &spec);
            op += 1;
        }
        let retrain = cfg.retrain_every_ticks > 0 && tick % cfg.retrain_every_ticks == 0;
        if retrain {
            // §5.4: retrain a clone off-thread; the old generation keeps
            // serving — the gauntlet pumps traffic for the whole retrain
            let (ds_c, train_c, valid_c) = (ds.clone(), train.clone(), valid.clone());
            let policy = cfg.policy;
            let handle = tenant.spawn_update(move |m: &mut PartitionedSelNet| {
                m.check_and_update(&ds_c, kind, &train_c, &valid_c, &policy)
            });
            while !handle.is_finished() {
                queue_depth.record(engine.queued_rows_total());
                for q in &eval {
                    let got = engine.serve_blocking(&request(q)).expect("engine running");
                    // mid-retrain replies come from whichever complete
                    // generation answered — always monotone
                    pump_violations += got.windows(2).filter(|p| p[1] < p[0]).count();
                }
            }
            // joining at the tick boundary keeps the recorded series
            // deterministic: the measurement below always sees the
            // freshly-published generation
            let (decision, _generation) = handle.wait();
            if decision.retrained() {
                retrains_applied += 1;
            } else {
                retrains_skipped += 1;
            }
            decisions.push(decision.summary());
        }
        queue_depth.record(engine.queued_rows_total());
        let record = measure(&engine, &tenant, &eval, op, ds.len());
        if retrain {
            post_swap_mape = record.mape;
        }
        ticks.push(record);
    }

    let lineage = tenant.swap_log();
    let shed_requests = tenant.stats().snapshot().shed_requests;
    let swap_latency_us = tenant.stats().retrain_histogram();
    engine.shutdown();

    let final_mape = ticks.last().expect("at least the baseline tick").mape;
    let max_mape = ticks.iter().map(|t| t.mape).fold(0.0f64, f64::max);
    GauntletResult {
        schedule: cfg.spec.label().to_string(),
        pre_drift_mape,
        post_swap_mape,
        final_mape,
        max_mape,
        hot_swaps: lineage.len(),
        retrains_applied,
        retrains_skipped,
        monotonicity_violations: ticks
            .iter()
            .map(|t| t.monotonicity_violations)
            .sum::<usize>()
            + pump_violations,
        bit_mismatches: ticks.iter().map(|t| t.bit_mismatches).sum(),
        shed_requests,
        lineage,
        decisions,
        ticks,
        queue_depth: queue_depth.snapshot(),
        swap_latency_us,
    }
}

/// Floors `BENCH_drift.json` carries and `serve_bench_guard` re-checks.
pub struct DriftFloors {
    /// Monotonicity violations allowed across a whole run (0).
    pub max_monotonicity_violations: f64,
    /// Served-vs-direct mismatches allowed (0).
    pub max_bit_mismatches: f64,
    /// Minimum hot swaps every schedule must have published.
    pub min_hot_swaps: f64,
    /// Maximum allowed `post_swap_mape / pre_drift_mape`.
    pub max_post_swap_mape_ratio: f64,
    /// Minimum queue-depth histogram samples (the gauntlet samples at
    /// every tick, so an empty histogram means the instrumentation came
    /// unwired).
    pub min_queue_depth_samples: f64,
}

impl Default for DriftFloors {
    fn default() -> Self {
        DriftFloors {
            max_monotonicity_violations: 0.0,
            max_bit_mismatches: 0.0,
            min_hot_swaps: 1.0,
            max_post_swap_mape_ratio: 4.0,
            min_queue_depth_samples: 1.0,
        }
    }
}

fn json_f64_series(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(", "))
}

fn json_u64_series(values: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = values.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Renders the `BENCH_drift.json` artifact: one block per schedule with
/// the accuracy-over-time and swap-latency series, plus the floors block
/// the guard enforces.
pub fn render_drift_json(results: &[GauntletResult], scale: &str) -> String {
    let floors = DriftFloors::default();
    let mut out = String::from("{\n");
    out.push_str(
        "  \"description\": \"Drift gauntlet (section 5.4 end to end): update streams under \
         four drift schedules served through the multi-tenant engine, with check_and_update \
         retrains hot-swapped mid-traffic. MAPE is measured against an exact, incrementally \
         maintained oracle at step-counted ticks; wall-clock fields are recorded, never \
         asserted.\",\n",
    );
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str("  \"schedules\": {\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", r.schedule));
        out.push_str(&format!(
            "      \"pre_drift_mape\": {:.6},\n",
            r.pre_drift_mape
        ));
        out.push_str(&format!(
            "      \"post_swap_mape\": {:.6},\n",
            r.post_swap_mape
        ));
        out.push_str(&format!("      \"final_mape\": {:.6},\n", r.final_mape));
        out.push_str(&format!("      \"max_mape\": {:.6},\n", r.max_mape));
        out.push_str(&format!(
            "      \"post_swap_mape_ratio\": {:.6},\n",
            r.mape_ratio()
        ));
        out.push_str(&format!("      \"hot_swaps\": {},\n", r.hot_swaps));
        out.push_str(&format!(
            "      \"retrains_applied\": {},\n",
            r.retrains_applied
        ));
        out.push_str(&format!(
            "      \"retrains_skipped\": {},\n",
            r.retrains_skipped
        ));
        out.push_str(&format!(
            "      \"monotonicity_violations\": {},\n",
            r.monotonicity_violations
        ));
        out.push_str(&format!(
            "      \"bit_mismatches\": {},\n",
            r.bit_mismatches
        ));
        out.push_str(&format!("      \"shed_requests\": {},\n", r.shed_requests));
        out.push_str(&format!(
            "      \"mean_swap_ms\": {:.3},\n",
            r.mean_swap_ms()
        ));
        out.push_str(&format!(
            "      \"op_series\": {},\n",
            json_u64_series(r.ticks.iter().map(|t| t.op_index as u64))
        ));
        out.push_str(&format!(
            "      \"mape_series\": {},\n",
            json_f64_series(r.ticks.iter().map(|t| t.mape))
        ));
        out.push_str(&format!(
            "      \"generation_series\": {},\n",
            json_u64_series(r.ticks.iter().map(|t| t.generation))
        ));
        out.push_str(&format!(
            "      \"swap_ms_series\": {},\n",
            json_f64_series(r.lineage.iter().map(|s| s.update_ms))
        ));
        out.push_str(&format!(
            "      \"queue_depth_p50\": {},\n",
            r.queue_depth.quantile(0.50)
        ));
        out.push_str(&format!(
            "      \"queue_depth_p99\": {},\n",
            r.queue_depth.quantile(0.99)
        ));
        out.push_str(&format!(
            "      \"queue_depth_max\": {},\n",
            r.queue_depth.max
        ));
        out.push_str(&format!(
            "      \"queue_depth_samples\": {},\n",
            r.queue_depth.count
        ));
        out.push_str(&format!(
            "      \"swap_us_p50\": {},\n",
            r.swap_latency_us.quantile(0.50)
        ));
        out.push_str(&format!(
            "      \"swap_us_p99\": {},\n",
            r.swap_latency_us.quantile(0.99)
        ));
        out.push_str(&format!(
            "      \"swap_us_max\": {},\n",
            r.swap_latency_us.max
        ));
        out.push_str(&format!(
            "      \"swap_us_samples\": {}\n",
            r.swap_latency_us.count
        ));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  },\n");
    out.push_str("  \"floors\": {\n");
    out.push_str(&format!(
        "    \"max_monotonicity_violations\": {},\n",
        floors.max_monotonicity_violations
    ));
    out.push_str(&format!(
        "    \"max_bit_mismatches\": {},\n",
        floors.max_bit_mismatches
    ));
    out.push_str(&format!(
        "    \"min_hot_swaps\": {},\n",
        floors.min_hot_swaps
    ));
    out.push_str(&format!(
        "    \"max_post_swap_mape_ratio\": {},\n",
        floors.max_post_swap_mape_ratio
    ));
    out.push_str(&format!(
        "    \"min_queue_depth_samples\": {},\n",
        floors.min_queue_depth_samples
    ));
    out.push_str(
        "    \"note\": \"Enforced by serve_bench_guard against the recorded blocks above, \
         and re-proven live by the tiny-scale gauntlet in CI (selnet-drift --assert).\"\n",
    );
    out.push_str("  }\n}\n");
    out
}

/// Extracts the balanced `{ ... }` object that follows `"key":` — enough
/// to scope [`json_number`] lookups to one schedule's block of
/// `BENCH_drift.json` without a JSON dependency.
pub fn json_section<'a>(blob: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = blob.find(&needle)?;
    let rest = &blob[at + needle.len()..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..open + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// One guard check over a recorded schedule block: returns the violated
/// constraints (empty = pass). Pure so the guard binary and tests share
/// it.
pub fn check_drift_block(block: &str, floors: &DriftFloors) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check =
        |key: &str, ok: &dyn Fn(f64) -> bool, requirement: String| match json_number(block, key) {
            Some(v) if ok(v) => {}
            Some(v) => failures.push(format!("{key} = {v} violates {requirement}")),
            None => failures.push(format!("{key} missing from block")),
        };
    check(
        "monotonicity_violations",
        &|v| v <= floors.max_monotonicity_violations,
        format!("<= {}", floors.max_monotonicity_violations),
    );
    check(
        "bit_mismatches",
        &|v| v <= floors.max_bit_mismatches,
        format!("<= {}", floors.max_bit_mismatches),
    );
    check(
        "hot_swaps",
        &|v| v >= floors.min_hot_swaps,
        format!(">= {}", floors.min_hot_swaps),
    );
    check(
        "post_swap_mape_ratio",
        &|v| v <= floors.max_post_swap_mape_ratio,
        format!("<= {}", floors.max_post_swap_mape_ratio),
    );
    check(
        "queue_depth_samples",
        &|v| v >= floors.min_queue_depth_samples,
        format!(">= {}", floors.min_queue_depth_samples),
    );
    // the retrain histogram sees every publish, so its sample count obeys
    // the same floor the hot-swap count does
    check(
        "swap_us_samples",
        &|v| v >= floors.min_hot_swaps,
        format!(">= {}", floors.min_hot_swaps),
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_section_scopes_lookups_per_schedule() {
        let blob = r#"{ "schedules": { "gradual": { "hot_swaps": 2, "inner": { "x": 1 } },
                        "abrupt": { "hot_swaps": 5 } }, "floors": { "min_hot_swaps": 1 } }"#;
        let gradual = json_section(blob, "gradual").unwrap();
        let abrupt = json_section(blob, "abrupt").unwrap();
        assert_eq!(json_number(gradual, "hot_swaps"), Some(2.0));
        assert_eq!(json_number(abrupt, "hot_swaps"), Some(5.0));
        assert!(json_section(blob, "missing").is_none());
    }

    #[test]
    fn check_drift_block_flags_each_violation() {
        let floors = DriftFloors::default();
        let good = r#"{ "monotonicity_violations": 0, "bit_mismatches": 0,
                       "hot_swaps": 2, "post_swap_mape_ratio": 1.1,
                       "queue_depth_samples": 7, "swap_us_samples": 2 }"#;
        assert!(check_drift_block(good, &floors).is_empty());
        let bad = r#"{ "monotonicity_violations": 3, "bit_mismatches": 0,
                      "hot_swaps": 0, "post_swap_mape_ratio": 9.0,
                      "queue_depth_samples": 0, "swap_us_samples": 0 }"#;
        let failures = check_drift_block(bad, &floors);
        assert_eq!(failures.len(), 5, "{failures:?}");
        let missing = r#"{ "hot_swaps": 1 }"#;
        assert_eq!(check_drift_block(missing, &floors).len(), 5);
    }

    #[test]
    fn schedule_spec_labels_round_trip() {
        for spec in ScheduleSpec::all() {
            assert_eq!(ScheduleSpec::parse(spec.label()), Some(spec));
        }
        assert_eq!(ScheduleSpec::parse("nope"), None);
    }
}
