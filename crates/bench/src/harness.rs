//! Shared experiment harness: dataset settings, model zoo, CLI parsing,
//! and CSV output. Every `repro_*` binary builds on this module.

use selnet_baselines::{
    GbdtConfig, GbdtEstimator, KdeConfig, KdeEstimator, LshConfig, LshEstimator,
};
use selnet_core::{fit_named, fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{face_like, fasttext_like, youtube_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_models::{
    DlnConfig, DlnEstimator, DnnEstimator, MoeConfig, MoeEstimator, NeuralConfig, RmiConfig,
    RmiEstimator, UmnnConfig, UmnnEstimator,
};
use selnet_workload::{generate_workload, ThresholdScheme, Workload, WorkloadConfig};
use std::path::Path;

/// The four evaluation settings of §7.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setting {
    /// fasttext-like embeddings, cosine distance.
    FasttextCos,
    /// fasttext-like embeddings, Euclidean distance.
    FasttextL2,
    /// face-like embeddings, cosine distance.
    FaceCos,
    /// YouTube-like embeddings, cosine distance.
    YoutubeCos,
}

impl Setting {
    /// Parses a CLI label like `fasttext-cos`.
    pub fn parse(s: &str) -> Option<Setting> {
        match s {
            "fasttext-cos" => Some(Setting::FasttextCos),
            "fasttext-l2" => Some(Setting::FasttextL2),
            "face-cos" => Some(Setting::FaceCos),
            "youtube-cos" => Some(Setting::YoutubeCos),
            _ => None,
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Setting::FasttextCos => "fasttext-cos",
            Setting::FasttextL2 => "fasttext-l2",
            Setting::FaceCos => "face-cos",
            Setting::YoutubeCos => "youtube-cos",
        }
    }

    /// Distance function of the setting.
    pub fn kind(self) -> DistanceKind {
        match self {
            Setting::FasttextL2 => DistanceKind::Euclidean,
            _ => DistanceKind::Cosine,
        }
    }
}

/// Scale knobs for an experiment run (paper scale is reachable by raising
/// these; defaults are CPU-friendly, see DESIGN.md §1).
#[derive(Clone, Debug)]
pub struct Scale {
    /// Database size.
    pub n: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Mixture components in the generator.
    pub clusters: usize,
    /// Number of query objects.
    pub queries: usize,
    /// Thresholds per query (`w`).
    pub w: usize,
    /// Training epochs for learned models.
    pub epochs: usize,
    /// Seed for everything.
    pub seed: u64,
    /// Threshold scheme.
    pub scheme: ThresholdScheme,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            n: 20_000,
            dim: 24,
            clusters: 16,
            queries: 500,
            w: 20,
            epochs: 25,
            seed: 7,
            scheme: ThresholdScheme::GeometricSelectivity,
        }
    }
}

impl Scale {
    /// A fast scale for smoke-testing the harness.
    pub fn quick() -> Self {
        Scale {
            n: 4000,
            dim: 12,
            clusters: 8,
            queries: 120,
            w: 10,
            epochs: 8,
            ..Default::default()
        }
    }

    /// Parses CLI overrides like `--n 30000 --queries 800 --quick`. A flag
    /// this does not know, a flag without its value and a value that does
    /// not parse are errors: a run never falls back to the default scale
    /// behind the caller's back.
    pub fn from_args(args: &[String]) -> Result<Scale, String> {
        fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("bad value {value:?} for {flag}"))
        }
        let mut scale = if args.iter().any(|a| a == "--quick") {
            Scale::quick()
        } else {
            Scale::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => {}
                "--n" => scale.n = parsed(flag, value()?)?,
                "--dim" => scale.dim = parsed(flag, value()?)?,
                "--clusters" => scale.clusters = parsed(flag, value()?)?,
                "--queries" => scale.queries = parsed(flag, value()?)?,
                "--w" => scale.w = parsed(flag, value()?)?,
                "--epochs" => scale.epochs = parsed(flag, value()?)?,
                "--seed" => scale.seed = parsed(flag, value()?)?,
                "--thresholds" => match value()?.as_str() {
                    "beta" => {
                        scale.scheme = ThresholdScheme::Beta {
                            alpha: 3.0,
                            beta: 2.5,
                        }
                    }
                    other => return Err(format!("bad value {other:?} for {flag}")),
                },
                unknown => return Err(format!("unknown option {unknown}")),
            }
        }
        Ok(scale)
    }
}

/// Builds the dataset for a setting.
pub fn build_dataset(setting: Setting, scale: &Scale) -> Dataset {
    let cfg = GeneratorConfig::new(scale.n, scale.dim, scale.clusters, scale.seed);
    match setting {
        Setting::FasttextCos | Setting::FasttextL2 => fasttext_like(&cfg),
        Setting::FaceCos => face_like(&cfg),
        Setting::YoutubeCos => {
            // YouTube is the very-high-dimension setting: double the dims
            let cfg = GeneratorConfig::new(scale.n, scale.dim * 2, scale.clusters, scale.seed);
            youtube_like(&cfg)
        }
    }
}

/// Builds dataset + labeled workload for a setting.
pub fn build_setting(setting: Setting, scale: &Scale) -> (Dataset, Workload) {
    let ds = build_dataset(setting, scale);
    let wcfg = WorkloadConfig {
        num_queries: scale.queries,
        thresholds_per_query: scale.w,
        kind: setting.kind(),
        scheme: scale.scheme,
        seed: scale.seed ^ 0x776f_726b, // "work"
        threads: 0,
    };
    let w = generate_workload(&ds, &wcfg);
    (ds, w)
}

/// All model kinds of the paper's comparison (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// LSH importance sampling (cosine only).
    Lsh,
    /// Metric-space KDE.
    Kde,
    /// Gradient-boosted trees.
    LightGbm,
    /// Gradient-boosted trees with monotone constraint.
    LightGbmM,
    /// Vanilla deep regression.
    Dnn,
    /// Mixture of Experts.
    Moe,
    /// Recursive Model Index.
    Rmi,
    /// Deep Lattice Network.
    Dln,
    /// Unconstrained Monotonic NN.
    Umnn,
    /// Full partitioned SelNet.
    SelNet,
    /// SelNet without partitioning.
    SelNetCt,
    /// SelNet-ct without query-dependent τ.
    SelNetAdCt,
}

impl ModelKind {
    /// The paper's main comparison set (Tables 1–4).
    pub fn comparison_set() -> Vec<ModelKind> {
        vec![
            ModelKind::Lsh,
            ModelKind::Kde,
            ModelKind::LightGbm,
            ModelKind::LightGbmM,
            ModelKind::Dnn,
            ModelKind::Moe,
            ModelKind::Rmi,
            ModelKind::Dln,
            ModelKind::Umnn,
            ModelKind::SelNet,
        ]
    }

    /// The ablation set (Table 6).
    pub fn ablation_set() -> Vec<ModelKind> {
        vec![
            ModelKind::SelNet,
            ModelKind::SelNetCt,
            ModelKind::SelNetAdCt,
        ]
    }
}

/// Neural config derived from the scale.
pub fn neural_config(scale: &Scale) -> NeuralConfig {
    NeuralConfig {
        epochs: scale.epochs,
        seed: scale.seed,
        ..NeuralConfig::default()
    }
}

/// SelNet config derived from the scale.
pub fn selnet_config(scale: &Scale) -> SelNetConfig {
    SelNetConfig {
        epochs: scale.epochs,
        seed: scale.seed,
        ae_pretrain_epochs: (scale.epochs / 4).max(2),
        ..SelNetConfig::default()
    }
}

/// Trains one model; returns `None` when the model does not apply to the
/// setting (LSH under Euclidean distance, like the paper's Table 2).
pub fn train_model(
    kind: ModelKind,
    ds: &Dataset,
    w: &Workload,
    scale: &Scale,
) -> Option<Box<dyn SelectivityEstimator + Send + Sync>> {
    let ncfg = neural_config(scale);
    Some(match kind {
        ModelKind::Lsh => {
            if w.kind != DistanceKind::Cosine {
                return None;
            }
            // the paper's absolute budget of 2000 samples is 0.2% of its
            // 1M-vector datasets; keep the *relative* budget comparable
            let budget = sample_budget(ds.len());
            Box::new(LshEstimator::fit(
                ds,
                &LshConfig {
                    sample_budget: budget,
                    seed: scale.seed,
                    ..Default::default()
                },
            ))
        }
        // KDE keeps the paper's absolute 2000-sample budget (its error
        // comes from smoothing, not sampling); LSH keeps a *relative*
        // budget so it stays in the sampling-error regime (see DESIGN.md)
        ModelKind::Kde => Box::new(KdeEstimator::fit(
            ds,
            w.kind,
            &KdeConfig {
                seed: scale.seed,
                ..Default::default()
            },
        )),
        ModelKind::LightGbm => Box::new(GbdtEstimator::fit(
            ds,
            &w.train,
            w.kind,
            &GbdtConfig {
                seed: scale.seed,
                ..Default::default()
            },
        )),
        ModelKind::LightGbmM => Box::new(GbdtEstimator::fit(
            ds,
            &w.train,
            w.kind,
            &GbdtConfig {
                monotone_t: true,
                seed: scale.seed,
                ..Default::default()
            },
        )),
        ModelKind::Dnn => Box::new(DnnEstimator::fit(ds, w, &ncfg)),
        ModelKind::Moe => Box::new(MoeEstimator::fit(
            ds,
            w,
            &MoeConfig {
                base: ncfg,
                ..Default::default()
            },
        )),
        ModelKind::Rmi => Box::new(RmiEstimator::fit(
            ds,
            w,
            &RmiConfig {
                base: ncfg,
                ..Default::default()
            },
        )),
        ModelKind::Dln => Box::new(DlnEstimator::fit(
            ds,
            w,
            &DlnConfig {
                base: ncfg,
                ..Default::default()
            },
        )),
        ModelKind::Umnn => Box::new(UmnnEstimator::fit(
            ds,
            w,
            &UmnnConfig {
                base: ncfg,
                ..Default::default()
            },
        )),
        ModelKind::SelNet => {
            let (m, _) = fit_partitioned(ds, w, &selnet_config(scale), &partition_config(scale));
            Box::new(m)
        }
        ModelKind::SelNetCt => {
            let (m, _) = fit_named(ds, w, &selnet_config(scale), "SelNet-ct");
            Box::new(m)
        }
        ModelKind::SelNetAdCt => {
            let cfg = selnet_config(scale).without_adaptive_tau();
            let (m, _) = fit_named(ds, w, &cfg, "SelNet-ad-ct");
            Box::new(m)
        }
    })
}

/// Sampling budget for the LSH/KDE baselines: the paper's 2000 samples on
/// 1M vectors is 0.2%; we keep 1% (generous) with a floor of 150.
pub fn sample_budget(n: usize) -> usize {
    (n / 100).max(150)
}

/// Partition config derived from the scale.
pub fn partition_config(scale: &Scale) -> PartitionConfig {
    PartitionConfig {
        pretrain_epochs: (scale.epochs / 4).max(2),
        ..Default::default()
    }
}

/// Trains many models concurrently (one thread per model).
pub fn train_models(
    kinds: &[ModelKind],
    ds: &Dataset,
    w: &Workload,
    scale: &Scale,
) -> Vec<Box<dyn SelectivityEstimator + Send + Sync>> {
    let mut out: Vec<Option<Box<dyn SelectivityEstimator + Send + Sync>>> =
        Vec::with_capacity(kinds.len());
    for _ in kinds {
        out.push(None);
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &kind in kinds {
            handles.push(scope.spawn(move || train_model(kind, ds, w, scale)));
        }
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = h.join().expect("training thread panicked");
        }
    });
    out.into_iter().flatten().collect()
}

/// Trains a standalone SelNet variant (typed accessors for the
/// figure/sweep binaries).
pub fn train_selnet_ct(ds: &Dataset, w: &Workload, scale: &Scale) -> PartitionedSelNet {
    fit_named(ds, w, &selnet_config(scale), "SelNet-ct").0
}

/// Trains the full partitioned SelNet.
pub fn train_selnet(ds: &Dataset, w: &Workload, scale: &Scale) -> PartitionedSelNet {
    fit_partitioned(ds, w, &selnet_config(scale), &partition_config(scale)).0
}

/// Writes a CSV artifact under `results/`.
pub fn write_results(name: &str, contents: &str) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[results written to {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setting_parsing_roundtrip() {
        for s in [
            Setting::FasttextCos,
            Setting::FasttextL2,
            Setting::FaceCos,
            Setting::YoutubeCos,
        ] {
            assert_eq!(Setting::parse(s.label()), Some(s));
        }
        assert_eq!(Setting::parse("nope"), None);
    }

    #[test]
    fn scale_cli_overrides() {
        let args: Vec<String> = ["--n", "1234", "--queries", "55", "--thresholds", "beta"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let s = Scale::from_args(&args).unwrap();
        assert_eq!(s.n, 1234);
        assert_eq!(s.queries, 55);
        assert!(matches!(s.scheme, ThresholdScheme::Beta { .. }));
        // nothing is swallowed: an unknown flag, a missing value and a
        // value that does not parse each refuse the run
        let refused = |line: &[&str]| {
            let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
            Scale::from_args(&args).unwrap_err()
        };
        assert_eq!(
            refused(&["--quick", "--epoch", "200"]),
            "unknown option --epoch"
        );
        assert_eq!(refused(&["--n", "900", "--seed"]), "--seed needs a value");
        assert_eq!(refused(&["--n", "5e4"]), "bad value \"5e4\" for --n");
        assert_eq!(
            refused(&["--thresholds", "gamma"]),
            "bad value \"gamma\" for --thresholds"
        );
    }

    #[test]
    fn lsh_skipped_under_euclidean() {
        let scale = Scale {
            n: 300,
            dim: 6,
            clusters: 3,
            queries: 12,
            w: 5,
            epochs: 1,
            ..Scale::quick()
        };
        let (ds, w) = build_setting(Setting::FasttextL2, &scale);
        assert!(train_model(ModelKind::Lsh, &ds, &w, &scale).is_none());
    }
}
