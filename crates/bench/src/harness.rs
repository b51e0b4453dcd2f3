//! Shared experiment harness: dataset settings, model zoo, CLI parsing,
//! side-by-side training and result tables. Every experiment of the
//! `repro` binary builds on this module.

use selnet_baselines::{
    GbdtConfig, GbdtEstimator, KdeConfig, KdeEstimator, LshConfig, LshEstimator,
};
use selnet_core::{fit_named, fit_partitioned, PartitionConfig, SelNetConfig};
use selnet_data::generators::{face_like, fasttext_like, youtube_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_models::{
    DlnConfig, DlnEstimator, DnnEstimator, MoeConfig, MoeEstimator, NeuralConfig, RmiConfig,
    RmiEstimator, UmnnConfig, UmnnEstimator,
};
use selnet_workload::{generate_workload, ThresholdScheme, Workload, WorkloadConfig};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

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

/// Scale knobs for an experiment run. Paper scale is reachable by raising
/// these; the defaults are CPU-friendly (the paper's datasets hold 0.35–2
/// million vectors of 128–1 770 dimensions, see
/// `selnet_data::generators`).
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
        // budget so it stays in the sampling-error regime (`sample_budget`)
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

/// Sampling budget for the LSH baseline: the paper's 2000 samples on 1M
/// vectors is 0.2%; we keep 1% (generous) with a floor of 150. KDE keeps
/// the paper's absolute 2000 samples (see [`train_model`]).
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

/// Runs `f` on every item, each on a thread of its own, and returns the
/// results in the order of `items`. A panic in `f` is re-raised here.
pub fn side_by_side<I: Sync, R: Send>(items: &[I], f: impl Fn(&I) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Trains many models side by side; a model that does not apply to the
/// setting is left out.
pub fn train_models(
    kinds: &[ModelKind],
    ds: &Dataset,
    w: &Workload,
    scale: &Scale,
) -> Vec<Box<dyn SelectivityEstimator + Send + Sync>> {
    side_by_side(kinds, |&kind| train_model(kind, ds, w, scale))
        .into_iter()
        .flatten()
        .collect()
}

/// One result table of an experiment: printed on stdout, and written cell
/// for cell as a CSV by [`write_results`].
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// File name of the CSV.
    pub file: String,
    /// Heading: the paper artifact the table reproduces.
    pub title: String,
    /// The CSV's first line: column names joined by commas.
    pub header: &'static str,
    /// Cells, `{}`-formatted, one row per line of the CSV.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// The CSV: the header, then one line per row, cells joined by commas.
    pub fn csv(&self) -> String {
        let mut out = format!("{}\n", self.header);
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    /// The title, then the columns aligned. A number with a fraction shows
    /// four decimals here; the CSV keeps every digit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shown = |cell: &String| match cell.parse::<f64>() {
            Ok(v) if v.fract() != 0.0 => format!("{v:.4}"),
            _ => cell.clone(),
        };
        let header: Vec<String> = self.header.split(',').map(String::from).collect();
        let mut widths = vec![0; header.len()];
        let lines: Vec<Vec<String>> = std::iter::once(header)
            .chain(self.rows.iter().map(|row| row.iter().map(shown).collect()))
            .collect();
        for line in &lines {
            for (width, cell) in widths.iter_mut().zip(line) {
                *width = (*width).max(cell.chars().count());
            }
        }
        writeln!(f, "## {}", self.title)?;
        for line in &lines {
            for (i, (cell, &width)) in line.iter().zip(&widths).enumerate() {
                if i == 0 {
                    write!(f, "{cell:<width$}")?;
                } else {
                    write!(f, "  {cell:>width$}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Writes `table`'s CSV as `dir/<table.file>`, creating `dir` if needed,
/// and returns the path written. The error names the path.
pub fn write_results(dir: &Path, table: &Table) -> io::Result<PathBuf> {
    let path = dir.join(&table.file);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, table.csv()))
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
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

    #[test]
    fn side_by_side_keeps_input_order() {
        assert_eq!(side_by_side(&[3, 1, 2], |&x| x * 10), [30, 10, 20]);
    }

    #[test]
    fn table_prints_four_decimals_and_its_csv_every_digit() {
        let table = Table {
            file: "t.csv".into(),
            title: "T".into(),
            header: "model,mse",
            rows: vec![
                vec!["SelNet".into(), 31234.567891.to_string()],
                vec!["KDE".into(), 7.0.to_string()],
            ],
        };
        let printed = format!(
            "## T\nmodel{}mse\nSelNet  31234.5679\nKDE{}7\n",
            " ".repeat(10),
            " ".repeat(14)
        );
        assert_eq!(table.to_string(), printed);
        assert_eq!(table.csv(), "model,mse\nSelNet,31234.567891\nKDE,7\n");
    }

    /// A CSV that cannot be written is an error naming its path, never a
    /// warning and a successful run.
    #[test]
    fn write_results_refuses_a_directory_that_is_a_file() {
        let table = Table {
            file: "t.csv".into(),
            title: "t".into(),
            header: "a,b",
            rows: vec![vec!["1".into(), "x".into()]],
        };
        let dir = std::env::temp_dir().join(format!("selnet-bench-results-{}", std::process::id()));
        let path = write_results(&dir, &table).expect("a directory it can create");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,x\n");
        let err = write_results(&path, &table).unwrap_err();
        let inner = path.join("t.csv").display().to_string();
        assert!(err.to_string().starts_with(&inner), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
