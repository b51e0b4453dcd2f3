//! Shared fixture and timing helpers for the serving benchmarks and the
//! CI bench-regression guard (`serve_bench_guard`), so both measure
//! exactly the same workload.

use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, WorkloadConfig};
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
}
