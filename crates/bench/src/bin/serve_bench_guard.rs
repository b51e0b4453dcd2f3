//! CI bench-regression guard for the serving hot path.
//!
//! Re-times the two ratios the serving layer's performance story rests
//! on — `speedup_batched_vs_single` (coalescing) and `plan_vs_tape`
//! (compiled inference plans) — on the same fixture the serve benchmark
//! uses, and fails (exit 1) if either falls below the floor checked into
//! `BENCH_serve.json`. Floors are deliberately conservative next to the
//! recorded figures, so machine noise doesn't flake CI while a real
//! regression (a plan silently falling back to the tape, a batching
//! pessimization) still trips it.
//!
//! Ratios whose floor sits within this host's noise of the recorded
//! figure are medians of paired, alternating rounds ([`paired_ratios`]),
//! not quotients of two independent timings.
//!
//! The four floors are read from the `floors` block of `BENCH_serve.json`
//! ([`read_floors`]); a block that lacks one fails the guard rather than
//! falling back to a constant. It also bounds the flight recorder
//! (`obs_overhead_max` / `obs_slowpath_max`, see [`check_obs_overhead`])
//! and validates the recorded multi-core `scaling` block (shape + the
//! ≥1.5x@4t requirement when recorded on a ≥4-core host, see
//! [`check_scaling_artifact`]).
//!
//! Run manually: `cargo run --release -p selnet-bench --bin serve_bench_guard`

use selnet_bench::servebench::{
    json_number, json_section, model_fixture, query_batch, time_ms, BATCH,
};
use selnet_core::PartitionedSelNet;
use selnet_eval::SelectivityEstimator;
use selnet_serve::engine::{Engine, EngineConfig, Request};
use selnet_serve::registry::ModelRegistry;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

/// Reads the `floors` block of `BENCH_serve.json`:
/// `speedup_batched_vs_single`, `plan_vs_tape`, `obs_overhead_max`,
/// `obs_slowpath_max`, in that order. A missing key is an error.
fn read_floors(blob: &str) -> Result<[f64; 4], String> {
    let block = json_section(blob, "floors").ok_or("BENCH_serve.json has no floors block")?;
    let keys = [
        "speedup_batched_vs_single",
        "plan_vs_tape",
        "obs_overhead_max",
        "obs_slowpath_max",
    ];
    let mut floors = [0.0; 4];
    for (floor, key) in floors.iter_mut().zip(keys) {
        *floor = json_number(block, key).ok_or(format!("the floors block lacks {key}"))?;
    }
    Ok(floors)
}

/// Validates the recorded `scaling` block in `BENCH_serve.json`: the
/// 1/2/4/8-thread batched-replay entries must all be present and
/// positive and — when the block was recorded on a host with ≥ 4 cores —
/// the 4-thread speedup must reach 1.5x. Pure artifact check (no re-run):
/// the live re-proof of bit-identity is the test suite.
fn check_scaling_artifact(blob: &str) -> Result<(), ()> {
    let Some(block) = json_section(blob, "scaling") else {
        eprintln!("serve_bench_guard: FAIL BENCH_serve.json is missing the scaling block");
        return Err(());
    };
    let mut ok = true;
    let mut entries = [0.0f64; 4];
    for (slot, t) in entries.iter_mut().zip([1usize, 2, 4, 8]) {
        let key = format!("batched_replay_{t}t_ms");
        match json_number(block, &key) {
            Some(v) if v > 0.0 => *slot = v,
            _ => {
                eprintln!("serve_bench_guard: FAIL scaling block lacks a positive {key}");
                ok = false;
            }
        }
    }
    let cpus = json_number(block, "machine_cpus").unwrap_or(0.0);
    if cpus < 1.0 {
        eprintln!("serve_bench_guard: FAIL scaling block lacks machine_cpus");
        ok = false;
    }
    let Some(speedup_4t) = json_number(block, "speedup_4t_vs_1t") else {
        eprintln!("serve_bench_guard: FAIL scaling block lacks speedup_4t_vs_1t");
        return Err(());
    };
    if ok && entries[3] > 0.0 {
        // internal consistency: the recorded speedup must match the
        // recorded times (a hand-edited artifact shouldn't pass)
        let derived = entries[0] / entries[2];
        if (speedup_4t - derived).abs() > 0.1 * derived.max(speedup_4t) {
            eprintln!(
                "serve_bench_guard: FAIL scaling speedup_4t_vs_1t {speedup_4t:.2} \
                 inconsistent with recorded times (derived {derived:.2})"
            );
            ok = false;
        }
    }
    if cpus >= 4.0 && speedup_4t < 1.5 {
        eprintln!(
            "serve_bench_guard: FAIL scaling speedup_4t_vs_1t {speedup_4t:.2} < 1.5 \
             on a {cpus:.0}-core recording host"
        );
        ok = false;
    }
    if ok {
        let scale_note = if cpus >= 4.0 {
            "4t floor enforced"
        } else {
            "recorded on < 4 cores; 4t floor not applicable"
        };
        println!("serve_bench_guard: scaling block OK (4t speedup {speedup_4t:.2}, {scale_note})");
        Ok(())
    } else {
        Err(())
    }
}

/// Rounds per paired comparison: at ~1 ms a round the loop outlasts a
/// burst of host noise several times over, so the burst moves a minority
/// of the rounds and not their median.
const ROUNDS: usize = 400;

/// Times each of `sides` once per round — forwards in one round,
/// backwards in the next, so no side always goes first — and returns, for
/// every side after the first, its per-round time over the first side's,
/// sorted. Frequency/thermal drift and scheduler luck are common-mode
/// within a round, so the median of a side's ratios resolves what two
/// independent timings cannot.
fn paired_ratios(sides: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    let mut ratios = vec![Vec::with_capacity(ROUNDS); sides.len() - 1];
    let mut order: Vec<usize> = (0..sides.len()).collect();
    let mut ms = vec![0.0f64; sides.len()];
    for _ in 0..ROUNDS {
        for &i in &order {
            ms[i] = time_ms(1, 4, &mut *sides[i]);
        }
        order.reverse();
        for (ratios, ms_side) in ratios.iter_mut().zip(&ms[1..]) {
            ratios.push(ms_side / ms[0]);
        }
    }
    for side in &mut ratios {
        side.sort_by(f64::total_cmp);
    }
    ratios
}

/// The `q`-th quartile (2 = the median) of sorted values.
fn quartile(sorted: &[f64], q: usize) -> f64 {
    sorted[sorted.len() * q / 4]
}

/// The observability overhead guards: [`paired_ratios`] against an engine
/// with every knob off. What pairing cannot cancel is measured — a
/// **control**, a second engine with every knob off, is timed in the same
/// rounds. Its ratio is 1 by construction, so the spread of its rounds
/// (the inter-quartile distance) is what this host does to the ratio of
/// two equal engines, and the armed floor is held only beyond it. Two
/// configurations, two floors:
///
/// * **armed** (`obs_overhead_max`, the ≤ 3% contract): span ring on,
///   slow-query log on at a tail-calibrated threshold no sub-millisecond
///   request crosses. This is what untraced production traffic pays with
///   the flight recorder fully armed — histograms, counters, batch-stage
///   spans, trace minting, and the per-request slow check. Per-request
///   spans are deliberately absent: those are sampled, paid only by
///   requests that bring a trace ID. Fails when the median exceeds the
///   floor by more than the control's inter-quartile distance.
/// * **stress** (`obs_slowpath_max`): a 1µs threshold routes **every**
///   reply through the slow path (a bounded Mutex log push per request —
///   at 600k+ req/s, a rate no real threshold produces). Not part of the
///   3% contract, but bounded so the slow path can never silently grow a
///   syscall, an allocation, or an O(n) push.
fn check_obs_overhead(
    model: &PartitionedSelNet,
    xs: &[Vec<f32>],
    ts: &[f32],
    floor_armed: f64,
    floor_stress: f64,
) -> Result<(), ()> {
    let start = |slow_query_us: u64, trace_buffer: usize| {
        Engine::start(
            Arc::new(ModelRegistry::new(model.clone())),
            &EngineConfig {
                workers: 1,
                max_batch_rows: BATCH,
                max_queue_rows: 0,
                slow_query_us,
                trace_buffer,
            },
        )
    };
    let off = start(0, 0);
    let control = start(0, 0);
    let armed = start(50_000, 4096);
    let stress = start(1, 4096);

    let wave = |engine: &Arc<Engine<PartitionedSelNet>>| {
        let handles: Vec<_> = (0..BATCH)
            .map(|i| {
                engine
                    .submit(Request::new(xs[i].clone()).thresholds(vec![ts[i]]))
                    .expect("engine running")
            })
            .collect();
        for h in handles {
            black_box(h.wait().expect("served"));
        }
    };
    let engines = [&off, &control, &armed, &stress];
    for _ in 0..8 {
        engines.into_iter().for_each(&wave);
    }
    let ratios = paired_ratios(&mut [
        &mut || wave(&off),
        &mut || wave(&control),
        &mut || wave(&armed),
        &mut || wave(&stress),
    ]);
    engines.into_iter().for_each(|engine| engine.shutdown());
    let (m_control, m_armed, m_stress) = (
        quartile(&ratios[0], 2),
        quartile(&ratios[1], 2),
        quartile(&ratios[2], 2),
    );
    let iqr_control = quartile(&ratios[0], 3) - quartile(&ratios[0], 1);
    println!(
        "serve_bench_guard: obs_overhead armed {m_armed:.4} (floor <= {floor_armed:.2} + the \
         control's inter-quartile distance), off-vs-off control {m_control:.4} \
         (inter-quartile distance {iqr_control:.4}), every-request-slow stress {m_stress:.4} \
         (floor <= {floor_stress:.2})"
    );
    let mut ok = true;
    if m_armed > floor_armed + iqr_control {
        eprintln!(
            "serve_bench_guard: FAIL obs overhead {m_armed:.4} > {floor_armed:.2} + {iqr_control:.4}"
        );
        ok = false;
    }
    if m_stress > floor_stress {
        eprintln!("serve_bench_guard: FAIL obs slow-path stress {m_stress:.4} > {floor_stress:.2}");
        ok = false;
    }
    if ok {
        Ok(())
    } else {
        Err(())
    }
}

fn main() -> ExitCode {
    let floors_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let blob = match std::fs::read_to_string(floors_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("serve_bench_guard: cannot read {floors_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let [floor_batched, floor_plan, floor_obs, floor_slowpath] = match read_floors(&blob) {
        Ok(floors) => floors,
        Err(e) => {
            eprintln!("serve_bench_guard: FAIL {e}");
            return ExitCode::FAILURE;
        }
    };
    let scaling_ok = check_scaling_artifact(&blob).is_ok();

    eprintln!("serve_bench_guard: training fixture...");
    let (ds, model) = model_fixture();
    let (xs, ts) = query_batch(&ds, model.tmax());
    let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();

    let single = time_ms(8, 8, || {
        for i in 0..BATCH {
            black_box(model.estimate(&xs[i], ts[i]));
        }
    });
    let batched = time_ms(8, 8, || {
        black_box(model.predict_batch(&x_refs, &ts));
    });
    let speedup_batched = single / batched;
    // 1.14 recorded against a floor of 1.05: two independent timings do
    // not resolve that on a shared host, the median of paired rounds does
    let plan_vs_tape = quartile(
        &paired_ratios(&mut [
            &mut || {
                black_box(model.predict_batch(&x_refs, &ts));
            },
            &mut || {
                black_box(model.tape_predict_batch(&x_refs, &ts));
            },
        ])[0],
        2,
    );
    println!(
        "serve_bench_guard: single={single:.4}ms batched={batched:.4}ms \
         -> speedup_batched_vs_single={speedup_batched:.2} (floor {floor_batched:.2}), \
         plan_vs_tape={plan_vs_tape:.2} (tape over plan, median of {ROUNDS} paired rounds; \
         floor {floor_plan:.2})"
    );

    let mut ok = scaling_ok;
    if speedup_batched < floor_batched {
        eprintln!(
            "serve_bench_guard: FAIL speedup_batched_vs_single {speedup_batched:.2} \
             < floor {floor_batched:.2}"
        );
        ok = false;
    }
    if plan_vs_tape < floor_plan {
        eprintln!("serve_bench_guard: FAIL plan_vs_tape {plan_vs_tape:.2} < floor {floor_plan:.2}");
        ok = false;
    }
    ok &= check_obs_overhead(&model, &xs, &ts, floor_obs, floor_slowpath).is_ok();
    if ok {
        println!("serve_bench_guard: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_floors_refuses_a_missing_key() {
        let recorded = include_str!("../../../../BENCH_serve.json");
        assert_eq!(read_floors(recorded), Ok([2.0, 1.05, 1.03, 1.25]));
        let misspelt = recorded.replace("\"plan_vs_tape\"", "\"plan_vs_tap\"");
        assert_eq!(
            read_floors(&misspelt),
            Err("the floors block lacks plan_vs_tape".into())
        );
        // a key outside the floors block does not stand in for it
        let outside = r#"{ "plan": { "obs_slowpath_max": 1 }, "floors": {
            "speedup_batched_vs_single": 2, "plan_vs_tape": 1, "obs_overhead_max": 1 } }"#;
        assert!(read_floors(outside).is_err());
    }
}
