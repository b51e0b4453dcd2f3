//! Serving-path benchmark: one-query-per-call vs the batched coalesced
//! entry point (`estimate_batch`, riding a compiled inference plan) vs the
//! full engine (queue + worker), plus plan replays against the reference
//! tape path (`tape_estimate_into`) on the same trained partitioned model
//! and the replay-thread scaling curve.
//!
//! One timing pass: `cargo bench -p selnet-bench --bench serve` prints the
//! JSON block it measured, `SELNET_BENCH_RECORD=1` also rewrites
//! `BENCH_serve.json` at the repo root (PR 4's figures stay frozen in the
//! `baseline_pr4` block, the `floors` are carried over), and `-- --test`
//! runs each closure once and checks the block's keys against the file
//! (see `selnet_bench::servebench::Pass`). See `crates/bench/README.md`
//! for the workflow.

use selnet_bench::servebench::{
    model_fixture, point_queries, query_batch, read_floors, Pass, BATCH,
};
use selnet_eval::SelectivityEstimator;
use selnet_serve::engine::{Engine, EngineConfig, Request};
use selnet_serve::registry::ModelRegistry;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

/// Rows of the scaling block's wave: at the tiny fixture's 7 671 counted
/// multiply-adds a row, enough to fork at four replay threads.
const SCALING_ROWS: usize = 16_384;

fn main() -> ExitCode {
    let pass = Pass::from_args();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    // the floors are carried over from the committed file, never invented:
    // a file without all four fails the run as it fails the guard
    let floors = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|blob| read_floors(&blob));
    let [floor_batched, floor_plan, floor_obs, floor_obs_slow] = match floors {
        Ok(floors) => floors,
        Err(e) => {
            eprintln!("serve bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (ds, model) = model_fixture();
    let (xs, ts) = query_batch(&ds, model.tmax());
    let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    let queries = point_queries(&xs, &ts);

    // the baseline: one evaluation per query
    let single = pass.time_ms(10, 10, || {
        for i in 0..BATCH {
            black_box(model.estimate(&xs[i], ts[i]));
        }
    });
    // coalesced: every query a row of one batch matrix, one plan replay
    let batched = pass.time_ms(10, 10, || {
        black_box(model.estimate_batch(&x_refs, &ts));
    });
    // plan vs tape: the same math, compiled replay vs autodiff tape walk
    let mut out = Vec::with_capacity(BATCH);
    let tape_batched = pass.time_ms(10, 10, || {
        model.tape_estimate_into(&queries, &mut out);
        black_box(out.last().copied());
    });
    let plan_many = pass.time_ms(10, 10, || {
        model.estimate_into(&[(&xs[0], &ts)], 1, &mut out);
        black_box(out.last().copied());
    });
    let tape_many = pass.time_ms(10, 10, || {
        model.tape_estimate_into(&[(&xs[0], &ts)], &mut out);
        black_box(out.last().copied());
    });

    // row-chunked parallel replay: one wave at 1/2/4/8 replay threads,
    // SCALING_ROWS rows so that the fork gate lets four workers in (a
    // 64-row wave stays serial at every count; on a box with fewer cores
    // the curve is flat — answers are bit-identical either way, so the
    // numbers are still honest)
    let wave: Vec<_> = queries.iter().cycle().take(SCALING_ROWS).copied().collect();
    let scaling_ms: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            pass.time_ms(5, 2, || {
                model.estimate_into(&wave, threads, &mut out);
                black_box(out.last().copied());
            })
        })
        .collect();

    // end-to-end engine: queue + worker + batched eval
    let engine = Engine::start(
        Arc::new(ModelRegistry::new(model)),
        &EngineConfig {
            workers: 1,
            max_batch_rows: BATCH,
            max_queue_rows: 0, // unbounded: the bench measures service, not shedding
            slow_query_us: 0,
            trace_buffer: 0,
        },
    );
    let engine_batch = pass.time_ms(10, 10, || {
        let receivers: Vec<_> = (0..BATCH)
            .map(|i| {
                engine
                    .submit(Request::new(xs[i].clone()).thresholds(vec![ts[i]]))
                    .expect("engine running")
            })
            .collect();
        for rx in receivers {
            black_box(rx.wait().expect("served"));
        }
    });
    engine.shutdown();

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        r#"{{
  "description": "Serving throughput at batch {BATCH} on a tiny()-architecture partitioned SelNet (K=3): one_query_per_call = {BATCH} separate single-query evaluations; batched_coalesced = one estimate_batch curve-plan replay over all {BATCH} rows; engine_submit_collect = the same through the full engine (queue + worker thread + reply channels). The plan block compares the compiled grad-free inference plan against the reference autodiff-tape forward on identical inputs. Times in milliseconds per {BATCH}-query wave (best-of-samples mean); recorded by SELNET_BENCH_RECORD=1 cargo bench -p selnet-bench --bench serve.",
  "baseline_pr4": {{
    "machine_cpus": 1,
    "one_query_per_call_{BATCH}_ms": 0.3047,
    "batched_coalesced_{BATCH}_ms": 0.0631,
    "engine_submit_collect_{BATCH}_ms": 0.2318,
    "queries_per_sec_single": 210043,
    "queries_per_sec_batched": 1013519,
    "queries_per_sec_engine": 276043,
    "speedup_batched_vs_single": 4.83,
    "speedup_engine_vs_single": 1.31,
    "note": "PR 4 figures (tape-based predict_batch, pre-plan engine), frozen"
  }},
  "current": {{
    "machine_cpus": {cpus},
    "one_query_per_call_{BATCH}_ms": {single:.4},
    "batched_coalesced_{BATCH}_ms": {batched:.4},
    "engine_submit_collect_{BATCH}_ms": {engine_batch:.4},
    "queries_per_sec_single": {qps_single:.0},
    "queries_per_sec_batched": {qps_batched:.0},
    "queries_per_sec_engine": {qps_engine:.0},
    "speedup_batched_vs_single": {speedup:.2},
    "speedup_engine_vs_single": {speedup_engine:.2},
    "engine_vs_batched": {engine_vs_batched:.2}
  }},
  "plan": {{
    "plan_batched_{BATCH}_ms": {batched:.4},
    "tape_batched_{BATCH}_ms": {tape_batched:.4},
    "plan_vs_tape_batched": {plan_vs_tape:.2},
    "plan_many_{BATCH}_ms": {plan_many:.4},
    "tape_many_{BATCH}_ms": {tape_many:.4},
    "plan_vs_tape_many": {plan_vs_tape_many:.2}
  }},
  "scaling": {{
    "machine_cpus": {cpus},
    "batched_replay_1t_ms": {s1:.4},
    "batched_replay_2t_ms": {s2:.4},
    "batched_replay_4t_ms": {s4:.4},
    "batched_replay_8t_ms": {s8:.4},
    "speedup_4t_vs_1t": {s_speedup:.2},
    "note": "estimate_into over one {SCALING_ROWS}-row wave of point queries (the {BATCH} above, cycled) at threads = 1/2/4/8 (row-chunked parallel plan replay, bit-identical answers at every count; one thread is the serial path itself); at that size the fork gate engages four workers (seven at eight threads). The guard holds speedup_4t_vs_1t to 1.5 only when machine_cpus >= 4; on a smaller recorder the curve stops rising at its core count."
  }},
  "floors": {{
    "speedup_batched_vs_single": {floor_batched:.2},
    "plan_vs_tape": {floor_plan:.2},
    "obs_overhead_max": {floor_obs:.2},
    "obs_slowpath_max": {floor_obs_slow:.2},
    "note": "CI floors enforced by serve_bench_guard; conservative next to the recorded figures to ride out machine noise. obs_overhead_max bounds the median paired-round ratio of obs-armed (span ring + slow-query log at a tail-calibrated threshold) over obs-disabled engine submit/collect waves on the batched hot path (per-request spans are sampled, paid only by trace-ID-carrying requests); the guard fails only when that median exceeds the floor by more than the inter-quartile distance of an off-vs-off control timed in the same rounds, so what it resolves is a slowdown of about that distance (0.07-0.25 over runs on a 2-vCPU host), not 3%. obs_slowpath_max separately bounds the pathological every-request-slow configuration (1us threshold, one bounded log push per request at 600k+ req/s) so the slow path can never silently grow a syscall, an allocation, or an O(n) push."
  }},
  "notes": "speedup_batched_vs_single is the coalescing win the serving engine exists for: a batch amortizes the forward pass and turns {BATCH} skinny 1-row matmuls into one {BATCH}-row matmul. plan_vs_tape_batched is the compiled-plan win on top: no grad buffers, no per-call parameter injection, fused affine+activation steps. engine_vs_batched is the remaining queue/channel overhead per request (1.0 = free)."
}}
"#,
        qps_single = BATCH as f64 / (single / 1e3),
        qps_batched = BATCH as f64 / (batched / 1e3),
        qps_engine = BATCH as f64 / (engine_batch / 1e3),
        speedup = single / batched,
        speedup_engine = single / engine_batch,
        engine_vs_batched = engine_batch / batched,
        plan_vs_tape = tape_batched / batched,
        plan_vs_tape_many = tape_many / plan_many,
        s1 = scaling_ms[0],
        s2 = scaling_ms[1],
        s4 = scaling_ms[2],
        s8 = scaling_ms[3],
        s_speedup = scaling_ms[0] / scaling_ms[2],
    );
    pass.finish(path, &json)
}
