//! Workspace smoke test: the documented entry points construct and a
//! minimal partitioned training run completes end to end with consistent
//! (monotone) output. Deliberately tiny — this is the test CI leans on to
//! prove the workspace is wired, not a quality benchmark. It also checks
//! the wiring itself: every dependency a crate declares is one it names.

use selnet_core::{fit_partitioned, PartitionConfig, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::fs;
use std::path::Path;

#[test]
fn default_configs_construct() {
    let cfg = SelNetConfig::default();
    assert!(cfg.control_points > 0);
    assert!(cfg.epochs > 0);
    assert!(cfg.batch_size > 0);
    let pcfg = PartitionConfig::default();
    assert!(pcfg.k > 0);
    assert!(pcfg.beta >= 0.0);
}

#[test]
fn one_batch_fit_partitioned_is_monotone() {
    let ds = fasttext_like(&GeneratorConfig::new(100, 4, 2, 3));
    let mut wcfg = WorkloadConfig::new(12, DistanceKind::Euclidean, 9);
    wcfg.thresholds_per_query = 6;
    let w = generate_workload(&ds, &wcfg);

    // One epoch over one batch: batch_size covers the whole train split.
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 1;
    cfg.batch_size = 1024;
    cfg.ae_pretrain_epochs = 1;
    let pcfg = PartitionConfig {
        k: 2,
        pretrain_epochs: 1,
        ..Default::default()
    };

    let (model, report) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    // joint training logs at least the configured epochs (the partitioned
    // trainer may add pretraining entries)
    assert!(report.epoch_val_mae.len() >= cfg.epochs);
    assert!(model.k() >= 1);

    // Consistency (Lemma 1): estimates are monotone in t by construction,
    // even for an undertrained model.
    let q = ds.row(0);
    let tmax = model.tmax();
    // the grid starts far below zero: the wire accepts any threshold
    let ts: Vec<f32> = (0..=32)
        .map(|i| (i as f32 / 32.0 * 11.1 - 10.0) * tmax)
        .collect();
    let preds = model.estimate_many(q, &ts);
    assert!(preds.iter().all(|p| p.is_finite() && *p >= 0.0));
    for pair in preds.windows(2) {
        assert!(
            pair[1] >= pair[0] - 1e-6,
            "estimates must be non-decreasing in t: {} then {}",
            pair[0],
            pair[1]
        );
    }
}

/// Every `[dependencies]` key of every `crates/*/Cargo.toml` (with `-` read
/// as `_`) appears as an identifier in that crate's `src/`, `tests/` or
/// `benches/`: a dependency the crate never names is build time and
/// lockfile weight for nothing, usually left behind by a deleted module.
#[test]
fn every_declared_dependency_is_named_by_its_crate() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut unused = Vec::new();
    for entry in fs::read_dir(&crates).unwrap() {
        let dir = entry.unwrap().path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut code = String::new();
        for sub in ["src", "tests", "benches"] {
            read_rust_sources(&dir.join(sub), &mut code);
        }
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        for dep in dependency_keys(&manifest) {
            if !names_identifier(&code, &dep.replace('-', "_")) {
                unused.push(format!("crates/{name} -> {dep}"));
            }
        }
    }
    unused.sort();
    assert!(unused.is_empty(), "declared but never named: {unused:?}");
}

/// The keys of a manifest's `[dependencies]` table, read line by line.
fn dependency_keys(manifest: &str) -> Vec<&str> {
    let mut in_table = false;
    let mut keys = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
        } else if let Some((key, _)) = line.split_once('=').filter(|_| in_table) {
            let key = key.split('.').next().unwrap().trim();
            if !key.is_empty() && !key.starts_with('#') {
                keys.push(key);
            }
        }
    }
    keys
}

/// Appends every `.rs` file under `dir` (recursively) to `out`.
fn read_rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            read_rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&fs::read_to_string(&path).unwrap());
            out.push('\n');
        }
    }
}

/// Whether `ident` occurs in `code` with no identifier character on
/// either side.
fn names_identifier(code: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(ident).any(|(at, _)| {
        !code[..at].ends_with(is_ident) && !code[at + ident.len()..].starts_with(is_ident)
    })
}
