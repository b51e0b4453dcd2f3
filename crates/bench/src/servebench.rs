//! Shared fixture and timing helpers for the two bench mains
//! (`benches/substrate.rs`, `benches/serve.rs`) and the CI bench-regression
//! guard (`serve_bench_guard`), so the serve bench and the guard measure
//! exactly the same workload and every recorded number has one timing loop.

use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::process::ExitCode;
use std::time::Instant;

/// Bench batch size — the acceptance point for coalescing throughput.
pub const BATCH: usize = 64;

/// Trains the tiny partitioned model every serving benchmark runs against.
pub fn model_fixture() -> (Dataset, PartitionedSelNet) {
    let ds = fasttext_like(&GeneratorConfig::new(600, 5, 3, 7));
    let mut wcfg = WorkloadConfig::new(24, DistanceKind::Euclidean, 8);
    wcfg.thresholds_per_query = 8;
    let w = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 3;
    let pcfg = PartitionConfig {
        k: 3,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    (ds, model)
}

/// `BATCH` distinct `(x, t)` queries spread over the database and the
/// threshold range.
pub fn query_batch(ds: &Dataset, tmax: f32) -> (Vec<Vec<f32>>, Vec<f32>) {
    let xs: Vec<Vec<f32>> = (0..BATCH)
        .map(|i| ds.row(i * 7 % ds.len()).to_vec())
        .collect();
    let ts: Vec<f32> = (0..BATCH)
        .map(|i| tmax * (0.1 + 0.9 * i as f32 / BATCH as f32))
        .collect();
    (xs, ts)
}

/// The wave as the serving hook (`estimate_into`) takes it: one
/// `(x, [t])` point query per row.
pub fn point_queries<'a>(xs: &'a [Vec<f32>], ts: &'a [f32]) -> Vec<(&'a [f32], &'a [f32])> {
    xs.iter()
        .zip(ts)
        .map(|(x, t)| (x.as_slice(), std::slice::from_ref(t)))
        .collect()
}

/// Best-of-`samples` mean wall-clock milliseconds of `iters` runs of `f`.
pub fn time_ms(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut best = f64::MAX;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    best
}

/// The one timing pass of a bench main. `cargo bench` times every closure
/// with [`time_ms`] and prints the JSON block it measured;
/// `SELNET_BENCH_RECORD=1` also writes that block to its `BENCH_*.json`.
/// `cargo bench -- --test` is the smoke run: every closure runs once and
/// nothing is written — the block's keys are checked against the committed
/// file instead.
pub struct Pass {
    smoke: bool,
}

impl Pass {
    /// The pass cargo asked for: a smoke run when `--test` is on the
    /// command line.
    pub fn from_args() -> Self {
        Pass {
            smoke: std::env::args().any(|a| a == "--test"),
        }
    }

    /// [`time_ms`], or — in a smoke run — one run of `f`, timed once.
    pub fn time_ms(&self, samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
        if !self.smoke {
            return time_ms(samples, iters, f);
        }
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Prints `json`, then either checks its keys against the committed
    /// file at `path` (a smoke run: a key added, dropped, renamed or moved
    /// fails it) or, under `SELNET_BENCH_RECORD=1`, writes it there.
    pub fn finish(&self, path: &str, json: &str) -> ExitCode {
        println!("{json}");
        if self.smoke {
            let committed = match std::fs::read_to_string(path) {
                Ok(committed) => committed,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (ours, theirs) = (json_keys(json), json_keys(&committed));
            if ours != theirs {
                let at = ours.iter().zip(&theirs).take_while(|(a, b)| a == b).count();
                eprintln!(
                    "the recorder's keys differ from {path} at key {at}: {:?} here, {:?} there",
                    ours.get(at),
                    theirs.get(at)
                );
                return ExitCode::FAILURE;
            }
            println!("smoke run: {} keys match {path}", ours.len());
        } else if std::env::var("SELNET_BENCH_RECORD").as_deref() == Ok("1") {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("recorded to {path}");
        }
        ExitCode::SUCCESS
    }
}

/// Every object key of a JSON blob (each string token followed by `:`),
/// in document order — enough to tell whether a recorder still writes the
/// shape a committed `BENCH_*.json` has, without a JSON dependency.
pub fn json_keys(blob: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    let mut rest = blob;
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let mut end = 0;
        let bytes = body.as_bytes();
        while end < bytes.len() && bytes[end] != b'"' {
            end += if bytes[end] == b'\\' { 2 } else { 1 };
        }
        let end = end.min(body.len());
        rest = body.get(end + 1..).unwrap_or("");
        if rest.trim_start().starts_with(':') {
            keys.push(&body[..end]);
        }
    }
    keys
}

/// Extracts the numeric value of `"key": <number>` from a JSON blob —
/// enough to read the floors checked into `BENCH_serve.json` without a
/// JSON dependency. Returns `None` when the key is absent.
pub fn json_number(blob: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = blob.find(&needle)?;
    let rest = &blob[at + needle.len()..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Extracts the balanced `{ ... }` object that follows `"key":` — enough
/// to scope [`json_number`] lookups to one block of `BENCH_serve.json`
/// (`floors`, `scaling`) without a JSON dependency.
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

/// Reads the `floors` block of `BENCH_serve.json`:
/// `speedup_batched_vs_single`, `plan_vs_tape`, `obs_overhead_max`,
/// `obs_slowpath_max`, in that order. A missing key is an error — for the
/// guard, which enforces them, and for the serve recorder, which carries
/// them over into the file it rewrites.
pub fn read_floors(blob: &str) -> Result<[f64; 4], String> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_extracts_floors() {
        let blob = r#"{ "floors": { "speedup_batched_vs_single": 2.5, "plan_vs_tape": 1.2 } }"#;
        assert_eq!(json_number(blob, "speedup_batched_vs_single"), Some(2.5));
        assert_eq!(json_number(blob, "plan_vs_tape"), Some(1.2));
        assert_eq!(json_number(blob, "missing"), None);
    }

    #[test]
    fn json_section_scopes_lookups_per_block() {
        let blob = r#"{ "current": { "machine_cpus": 2, "inner": { "x": 1 } },
                        "scaling": { "machine_cpus": 8 }, "floors": { "plan_vs_tape": 1 } }"#;
        let current = json_section(blob, "current").unwrap();
        let scaling = json_section(blob, "scaling").unwrap();
        assert_eq!(json_number(current, "machine_cpus"), Some(2.0));
        assert_eq!(json_number(scaling, "machine_cpus"), Some(8.0));
        assert_eq!(json_number(current, "plan_vs_tape"), None);
        assert!(json_section(blob, "missing").is_none());
    }

    #[test]
    fn json_keys_lists_keys_in_order_and_skips_values() {
        let blob = r#"{ "a": 1, "b": { "c": "x: y", "d": "say \"e\": no" },
                        "f" : [ "g", "h" ], "": 0 }"#;
        assert_eq!(json_keys(blob), ["a", "b", "c", "d", "f", ""]);
        assert!(json_keys("").is_empty());
        assert_eq!(json_keys(r#"{ "cut"#), Vec::<&str>::new());
        // the committed artifacts scan from their first key to their last
        for (blob, first_block) in [
            (include_str!("../../../BENCH_serve.json"), "baseline_pr4"),
            (include_str!("../../../BENCH_substrate.json"), "seed"),
        ] {
            let keys = json_keys(blob);
            assert_eq!(keys[..3], ["description", first_block, "machine_cpus"]);
            assert_eq!(keys.last(), Some(&"notes"));
        }
    }

    #[test]
    fn read_floors_refuses_a_missing_key() {
        let recorded = include_str!("../../../BENCH_serve.json");
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
