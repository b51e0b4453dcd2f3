//! Reproduces the paper's tables and figures, one experiment each:
//!
//! ```text
//! cargo run --release -p selnet-bench --bin repro -- <experiment> \
//!     [--quick] [--n 30000] [--queries 800] [--thresholds beta] ...
//! ```
//!
//! `EXPERIMENTS` is the index (and the usage text). Every experiment prints
//! its tables and writes each as `results/<file>`. An unknown experiment or
//! option exits 2; a CSV that cannot be written exits 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_bench::harness::{
    build_setting, partition_config, selnet_config, side_by_side, train_model, train_models,
    write_results, ModelKind, Scale, Setting, Table,
};
use selnet_core::{
    fit_fixed_grid, fit_named, fit_partitioned, fit_selnet_head, LossKind, PartitionConfig,
    PartitionedSelNet, SelNetConfig, TauNormalization, UpdatePolicy,
};
use selnet_data::Dataset;
use selnet_eval::{average_estimate_ms, empirical_monotonicity, evaluate, SelectivityEstimator};
use selnet_index::PartitionMethod;
use selnet_workload::{
    sorted_distances, DriftSchedule, ThresholdScheme, UpdateSimulator, Workload,
};
use std::fmt::Display;
use std::path::Path;

/// An experiment's run: the invocation in, its tables out.
type Experiment = fn(&Run) -> Vec<Table>;

/// `(name on the command line, paper artifact, run)`, one row per
/// experiment; the names are the stems of the binaries they replace.
#[rustfmt::skip]
const EXPERIMENTS: &[(&str, &str, Experiment)] = &[
    ("accuracy", "Tables 1-4, 11: accuracy of every model (--setting, --thresholds beta)", accuracy),
    ("monotonicity", "Table 5: empirical monotonicity of every model, face-cos", monotonicity),
    ("ablation", "Table 6: SelNet vs SelNet-ct vs SelNet-ad-ct, every setting", ablation),
    ("timing", "Table 7: estimation time of every model, every setting", timing),
    ("control_points", "Table 8: error vs control points L, fasttext-l2", control_points),
    ("partitions", "Table 9: error and estimation time vs partitions K, fasttext-l2", partitions),
    ("partition_methods", "Table 10: cover tree vs random vs k-means, fasttext-l2", partition_methods),
    ("loss_ablation", "§5.1: Huber vs L2 vs L1 loss on log residuals, fasttext-cos", loss_ablation),
    ("tau_norm", "§5.2: Norml2 vs Softmax tau normalization, fasttext-l2", tau_norm),
    ("fig3", "Figure 3: learned vs fixed control points on exp(t)/10 (--quick only)", fig3),
    ("fig4", "Figure 4: control points of SelNet-ct vs SelNet-ad-ct, fasttext-cos", fig4),
    ("fig5", "Figure 5: error over a stream of updates under the §5.4 rule", fig5),
];

/// What one invocation asked for.
struct Run {
    scale: Scale,
    /// `--quick` was given: `fig3` trains 1 000 epochs, `fig5` runs 20
    /// operations.
    quick: bool,
    /// `accuracy`'s `--setting` (fasttext-cos when absent).
    setting: Setting,
}

fn usage() -> String {
    let mut out = String::from(
        "usage: repro <experiment> [--quick] [--n N] [--dim D] [--clusters C] [--queries Q] \
         [--w W] [--epochs E] [--seed S] [--thresholds beta]\n\nexperiments:\n",
    );
    for (name, artifact, _) in EXPERIMENTS {
        out.push_str(&format!("  {name:<18} {artifact}\n"));
    }
    out
}

/// Reads `<experiment> [flags]`. `Scale::from_args` reads the flags;
/// `--setting` is `accuracy`'s own, and `fig3` takes `--quick` alone.
fn parse(args: &[String]) -> Result<(&'static str, Experiment, Run), String> {
    let (name, flags) = args.split_first().ok_or("no experiment given")?;
    let &(name, _, experiment) = EXPERIMENTS
        .iter()
        .find(|e| e.0 == name)
        .ok_or_else(|| format!("unknown experiment {name}"))?;
    let mut flags = flags.to_vec();
    let mut setting = Setting::FasttextCos;
    let setting_at = flags.iter().position(|a| a == "--setting");
    if let (Some(i), "accuracy") = (setting_at, name) {
        flags.remove(i);
        if i == flags.len() {
            return Err("--setting needs a value".into());
        }
        let value = flags.remove(i);
        setting =
            Setting::parse(&value).ok_or_else(|| format!("bad value {value:?} for --setting"))?;
    }
    if name == "fig3" {
        if let Some(flag) = flags.iter().find(|a| *a != "--quick") {
            return Err(format!("unknown option {flag}"));
        }
    }
    let quick = flags.iter().any(|a| a == "--quick");
    let scale = Scale::from_args(&flags)?;
    Ok((
        name,
        experiment,
        Run {
            scale,
            quick,
            setting,
        },
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, experiment, run) = parse(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n\n{}", usage());
        std::process::exit(2);
    });
    for table in experiment(&run) {
        println!("{table}");
        match write_results(Path::new("results"), &table) {
            Ok(path) => println!("[results written to {}]\n", path.display()),
            Err(e) => {
                eprintln!("repro {name}: could not write {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The cells of a table row, each `{}`-formatted.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

/// `mse_valid, mse_test, mae_valid, mae_test, mape_valid, mape_test`.
fn errors(model: &dyn SelectivityEstimator, w: &Workload) -> Vec<String> {
    let (v, t) = (evaluate(model, &w.valid), evaluate(model, &w.test));
    row![v.mse, t.mse, v.mae, t.mae, v.mape, t.mape]
}

/// One SelNet-ct per configuration on `setting`, trained side by side: a
/// row of `label, mse, mae, mape` on the validation split each.
fn sweep<L: Display + Sync>(
    setting: Setting,
    scale: &Scale,
    variants: &[(L, SelNetConfig)],
) -> Vec<Vec<String>> {
    let (ds, w) = build_setting(setting, scale);
    side_by_side(variants, |(label, cfg)| {
        let m = evaluate(&fit_named(&ds, &w, cfg, "SelNet-ct").0, &w.valid);
        row![label, m.mse, m.mae, m.mape]
    })
}

fn accuracy(run: &Run) -> Vec<Table> {
    let (setting, scale) = (run.setting, &run.scale);
    let beta = matches!(scale.scheme, ThresholdScheme::Beta { .. });
    let t0 = std::time::Instant::now();
    let (ds, w) = build_setting(setting, scale);
    let models = train_models(&ModelKind::comparison_set(), &ds, &w, scale);
    eprintln!(
        "[repro accuracy] {} on {}x{}, {} test queries: trained in {:.1}s",
        setting.label(),
        ds.len(),
        ds.dim(),
        w.test.len(),
        t0.elapsed().as_secs_f64()
    );
    let table_no = match (setting, beta) {
        (Setting::FasttextCos, false) => "Table 1",
        (Setting::FasttextL2, false) => "Table 2",
        (Setting::FaceCos, false) => "Table 3",
        (Setting::YoutubeCos, false) => "Table 4",
        (Setting::FasttextCos, true) => "Table 11",
        _ => "accuracy",
    };
    let (suffix, thresholds) = if beta {
        ("_beta", " (Beta(3,2.5) thresholds)")
    } else {
        ("", "")
    };
    vec![Table {
        file: format!("accuracy_{}{suffix}.csv", setting.label()),
        title: format!("{table_no}: accuracy on {}{thresholds}", setting.label()),
        header: "model,consistent,mse_valid,mse_test,mae_valid,mae_test,mape_valid,mape_test",
        rows: models
            .iter()
            .map(|m| {
                let named = row![m.name(), m.guarantees_consistency()];
                [named, errors(m.as_ref(), &w)].concat()
            })
            .collect(),
    }]
}

/// 200 queries × 100 thresholds, all C(100,2) pairs per query.
fn monotonicity(run: &Run) -> Vec<Table> {
    let (ds, w) = build_setting(Setting::FaceCos, &run.scale);
    let models = train_models(&ModelKind::comparison_set(), &ds, &w, &run.scale);
    vec![Table {
        file: "monotonicity_face-cos.csv".into(),
        title: "Table 5: empirical monotonicity (%) on face-cos".into(),
        header: "model,consistent,monotonicity_pct",
        rows: models
            .iter()
            .map(|m| {
                let score = empirical_monotonicity(m.as_ref(), &w.test, 200, 100, w.tmax);
                row![m.name(), m.guarantees_consistency(), score]
            })
            .collect(),
    }]
}

fn ablation(run: &Run) -> Vec<Table> {
    let mut rows = Vec::new();
    for setting in [
        Setting::FasttextCos,
        Setting::FasttextL2,
        Setting::FaceCos,
        Setting::YoutubeCos,
    ] {
        eprintln!("[repro ablation] {}", setting.label());
        let (ds, w) = build_setting(setting, &run.scale);
        for m in train_models(&ModelKind::ablation_set(), &ds, &w, &run.scale) {
            rows.push([row![setting.label(), m.name()], errors(m.as_ref(), &w)].concat());
        }
    }
    vec![Table {
        file: "ablation.csv".into(),
        title: "Table 6: ablation study".into(),
        header: "setting,model,mse_valid,mse_test,mae_valid,mae_test,mape_valid,mape_test",
        rows,
    }]
}

/// Every model is timed alone, after all of them have trained: a sibling
/// still training shares the cores and skews the time.
fn timing(run: &Run) -> Vec<Table> {
    let mut kinds = ModelKind::comparison_set();
    kinds.extend([ModelKind::SelNetCt, ModelKind::SelNetAdCt]);
    let mut rows: Vec<Vec<String>> = kinds.iter().map(|k| row![format!("{k:?}")]).collect();
    for setting in [
        Setting::FaceCos,
        Setting::FasttextCos,
        Setting::FasttextL2,
        Setting::YoutubeCos,
    ] {
        eprintln!("[repro timing] {}", setting.label());
        let (ds, w) = build_setting(setting, &run.scale);
        let models = side_by_side(&kinds, |&kind| train_model(kind, &ds, &w, &run.scale));
        for (row, model) in rows.iter_mut().zip(&models) {
            match model {
                Some(m) => {
                    row[0] = m.name().to_string();
                    row.push(average_estimate_ms(m.as_ref(), &w.test, 2000).to_string());
                }
                None => row.push(String::new()),
            }
        }
    }
    vec![Table {
        file: "timing.csv".into(),
        title: "Table 7: average estimation time (milliseconds)".into(),
        header: "model,face-cos,fasttext-cos,fasttext-l2,youtube-cos",
        rows,
    }]
}

fn control_points(run: &Run) -> Vec<Table> {
    let cfg = selnet_config(&run.scale);
    let variants = [10usize, 50, 90, 130].map(|l| {
        let cfg = SelNetConfig {
            control_points: l,
            ..cfg.clone()
        };
        (l, cfg)
    });
    vec![Table {
        file: "control_points_fasttext-l2.csv".into(),
        title: "Table 8: errors vs number of control points on fasttext-l2 (validation)".into(),
        header: "control_points,mse,mae,mape",
        rows: sweep(Setting::FasttextL2, &run.scale, &variants),
    }]
}

/// K = 1 is SelNet-ct. Timed like `timing`: one model at a time, after
/// all four have trained.
fn partitions(run: &Run) -> Vec<Table> {
    let scale = &run.scale;
    let (ds, w) = build_setting(Setting::FasttextL2, scale);
    let ks = [1usize, 3, 6, 9];
    let models = side_by_side(&ks, |&k| {
        if k == 1 {
            fit_named(&ds, &w, &selnet_config(scale), "SelNet-ct").0
        } else {
            let pcfg = PartitionConfig {
                k,
                ..partition_config(scale)
            };
            fit_partitioned(&ds, &w, &selnet_config(scale), &pcfg).0
        }
    });
    let rows = ks.iter().zip(&models).map(|(k, model)| {
        let m = evaluate(model, &w.valid);
        let ms = average_estimate_ms(model, &w.test, 1500);
        row![k, m.mse, m.mae, m.mape, ms]
    });
    vec![Table {
        file: "partitions_fasttext-l2.csv".into(),
        title: "Table 9: errors vs partition size on fasttext-l2 (validation)".into(),
        header: "partitions,mse,mae,mape,estimate_ms",
        rows: rows.collect(),
    }]
}

/// Beside the errors, what each method's indicator costs and buys: balls
/// stored, snapshot bytes, and the mean share of partitions a test query
/// switches on.
fn partition_methods(run: &Run) -> Vec<Table> {
    let scale = &run.scale;
    let (ds, w) = build_setting(Setting::FasttextL2, scale);
    let methods = [
        ("CT", PartitionMethod::CoverTree { ratio: 0.05 }),
        ("RP", PartitionMethod::Random),
        ("KM", PartitionMethod::KMeans),
    ];
    let rows = side_by_side(&methods, |&(label, method)| {
        let pcfg = PartitionConfig {
            method,
            ..partition_config(scale)
        };
        let (model, _) = fit_partitioned(&ds, &w, &selnet_config(scale), &pcfg);
        let m = evaluate(&model, &w.test);
        let partitioning = model.partitioning();
        let balls: usize = partitioning.region_counts().iter().sum();
        let mut snapshot = Vec::new();
        model.save(&mut snapshot).expect("snapshot to memory");
        let (mut on, mut flags, mut flag_row) = (0, 0, Vec::new());
        for q in &w.test {
            partitioning.indicator_many_into(&q.x, &q.thresholds, &mut flag_row);
            on += flag_row.iter().filter(|&&f| f).count();
            flags += flag_row.len();
        }
        let (bytes, active_share) = (snapshot.len(), on as f64 / flags.max(1) as f64);
        row![label, m.mse, m.mae, m.mape, balls, bytes, active_share]
    });
    vec![Table {
        file: "partition_methods_fasttext-l2.csv".into(),
        title: "Table 10: errors vs partitioning method (K=3) on fasttext-l2 (test)".into(),
        header: "method,mse,mae,mape,balls,snapshot_bytes,active_share",
        rows,
    }]
}

/// The paper's claim: L2 over-fits large selectivities, L1 over-weights
/// small ones, Huber on the log residuals balances both. MAPE exposes the
/// small end, MSE the large one.
fn loss_ablation(run: &Run) -> Vec<Table> {
    let cfg = selnet_config(&run.scale);
    let losses = [
        ("Huber", LossKind::Huber),
        ("L2", LossKind::L2),
        ("L1", LossKind::L1),
    ];
    let variants = losses.map(|(label, loss)| (label, cfg.clone().with_loss(loss)));
    vec![Table {
        file: "loss_ablation_fasttext-cos.csv".into(),
        title: "Ablation: loss on log residuals (Huber vs L2 vs L1) on fasttext-cos (validation)"
            .into(),
        header: "loss,mse,mae,mape",
        rows: sweep(Setting::FasttextCos, &run.scale, &variants),
    }]
}

/// The paper argues softmax's exponential makes the partition of the
/// threshold range hypersensitive to small input changes.
fn tau_norm(run: &Run) -> Vec<Table> {
    let cfg = selnet_config(&run.scale);
    let norms = [
        ("Norml2", TauNormalization::Norml2),
        ("Softmax", TauNormalization::Softmax),
    ];
    let variants = norms.map(|(label, norm)| (label, cfg.clone().with_tau_normalization(norm)));
    vec![Table {
        file: "tau_norm_fasttext-l2.csv".into(),
        title: "Ablation: tau normalization (Norml2 vs Softmax) on fasttext-l2 (validation)".into(),
        header: "norm,mse,mae,mape",
        rows: sweep(Setting::FasttextL2, &run.scale, &variants),
    }]
}

/// Fits `y = exp(t)/10` on `t ∈ [0, 10]` with 8 control points: the SelNet
/// head (learnable τ) against the simplified-DLN calibrator (fixed, evenly
/// spaced τ). The adaptive head should crowd its points into the
/// rapidly-changing half and reach a far lower MSE (§6.2).
fn fig3(run: &Run) -> Vec<Table> {
    let epochs = if run.quick { 1000 } else { 6000 };
    // 80 (t, f(t)) samples with t ~ U[0, 10], as in §6.2
    let mut rng = StdRng::seed_from_u64(3);
    let samples: Vec<(f32, f32)> = (0..80)
        .map(|_| {
            let t: f32 = rng.gen_range(0.0..10.0);
            (t, t.exp() / 10.0)
        })
        .collect();
    let adaptive = fit_selnet_head(&samples, 8, 10.0, epochs, 0.05, 1);
    let fixed = fit_fixed_grid(&samples, 8 + 2, 10.0, epochs, 0.05, 1);
    for (label, fit) in [("our model", &adaptive), ("simplified DLN", &fixed)] {
        println!("control points ({label}), training MSE {:.3}:", fit.mse);
        for (tau, p) in fit.pwl.tau().iter().zip(fit.pwl.p()) {
            println!("  tau = {tau:>7.3}   p = {p:>10.3}");
        }
    }
    let interior = &adaptive.pwl.tau()[1..adaptive.pwl.tau().len() - 1];
    let crowded = interior.iter().filter(|&&t| t > 5.0).count();
    let rows = (0..=100).map(|i| {
        let t = 10.0 * i as f32 / 100.0;
        row![t, t.exp() / 10.0, adaptive.pwl.eval(t), fixed.pwl.eval(t)]
    });
    vec![Table {
        file: "fig3_exp_fit.csv".into(),
        title: format!(
            "Figure 3: fitting y = exp(t)/10 with 8 control points \
             ({crowded}/{} of our interior points at t > 5)",
            interior.len()
        ),
        header: "t,truth,selnet_head,dln_fixed",
        rows: rows.collect(),
    }]
}

/// SelNet-ad-ct shares one τ vector across all queries; SelNet-ct adapts
/// it per query, to where its selectivity changes fastest.
fn fig4(run: &Run) -> Vec<Table> {
    let (ds, w) = build_setting(Setting::FasttextCos, &run.scale);
    let cfg = selnet_config(&run.scale);
    let variants = [
        ("SelNet-ct", cfg.clone()),
        ("SelNet-ad-ct", cfg.without_adaptive_tau()),
    ];
    let models = side_by_side(&variants, |(name, cfg)| fit_named(&ds, &w, cfg, name).0);
    let mut rows = Vec::new();
    for (qi, q) in w.test.iter().take(2).enumerate() {
        let sorted = sorted_distances(&ds, &q.x, w.kind);
        for ((label, _), model) in variants.iter().zip(&models) {
            // a `K = 1` model: its one curve
            let (tau, p) = model.control_points_for(&q.x).swap_remove(0);
            for (t, pv) in tau.iter().zip(&p) {
                let truth = sorted.partition_point(|&d| d <= *t);
                rows.push(row![qi + 1, label, t, pv, truth]);
            }
        }
    }
    vec![Table {
        file: "fig4_control_points.csv".into(),
        title: "Figure 4: control points on fasttext-cos (2 queries)".into(),
        header: "query,model,tau,p,ground_truth_at_tau",
        rows,
    }]
}

/// A stream of update operations (each ±5 records) on face-cos and
/// fasttext-cos, the §5.4 rule deciding after each one whether to retrain;
/// then the fasttext-cos stream again from the same trained model, once
/// per `DriftSchedule` family, its inserts placed by the schedule.
fn fig5(run: &Run) -> Vec<Table> {
    let (scale, seed) = (&run.scale, run.scale.seed);
    let num_ops = if run.quick { 20 } else { 100 };
    let start = |setting: Setting| -> Start {
        eprintln!("[repro fig5] {}", setting.label());
        let (ds, w) = build_setting(setting, scale);
        let model = fit_named(&ds, &w, &selnet_config(scale), "SelNet-ct").0;
        (ds, w, model)
    };
    let (face, ft) = (Setting::FaceCos, Setting::FasttextCos);
    let mut updates = update_stream(face.label(), &start(face), seed, num_ops, None);
    let trained = start(ft);
    updates.extend(update_stream(ft.label(), &trained, seed, num_ops, None));
    let drift = drift_schedules(&trained, seed, num_ops)
        .iter()
        .flat_map(|s| update_stream(s.label(), &trained, seed, num_ops, Some(s)))
        .collect();
    vec![
        Table {
            file: "fig5_updates.csv".into(),
            title: format!("Figure 5: data update stream ({num_ops} ops, ±5 records each)"),
            header: "setting,op,action,mse,mape,retrained",
            rows: updates,
        },
        Table {
            file: "fig5_drift.csv".into(),
            title: format!("Figure 5 under drift: fasttext-cos, {num_ops} ops per schedule"),
            header: "schedule,op,action,mse,mape,retrained",
            rows: drift,
        },
    ]
}

/// Where a `fig5` stream starts: a setting's data and workload, and the
/// SelNet-ct trained on them.
type Start = (Dataset, Workload, PartitionedSelNet);

/// The four drift families, sized by the model's threshold range so a
/// magnitude means the same at every scale; the adversarial shell
/// surrounds the first test query.
fn drift_schedules((ds, w, model): &Start, seed: u64, num_ops: usize) -> [DriftSchedule; 4] {
    let (dim, tmax, period) = (ds.dim(), model.tmax(), (num_ops / 2).max(2));
    let center = w.test.first().map_or(ds.row(0), |q| &q.x[..]).to_vec();
    [
        DriftSchedule::gradual(dim, seed ^ 1, 0.5 * tmax / num_ops as f32),
        DriftSchedule::abrupt(dim, seed ^ 2, 0.5 * tmax, num_ops / 3),
        DriftSchedule::cyclical(dim, seed ^ 3, 0.4 * tmax, period),
        DriftSchedule::adversarial(center, 0.3 * tmax, 0.9 * tmax, period),
    ]
}

/// `num_ops` updates from a trained start, undrifted (`sim.step`) or
/// placed by `drift`, one row per operation.
fn update_stream(
    label: &str,
    (ds, w, model): &Start,
    seed: u64,
    num_ops: usize,
    drift: Option<&DriftSchedule>,
) -> Vec<Vec<String>> {
    let (mut ds, mut model) = (ds.clone(), model.clone());
    let (mut train, mut valid, mut test) = (w.train.clone(), w.valid.clone(), w.test.clone());
    let mut sim = UpdateSimulator::new(seed ^ 0xf1f5);
    // tolerance relative to the trained model's validation MAE
    let policy = UpdatePolicy {
        mae_tolerance: (model.reference_val_mae() * 0.15).max(0.5),
        patience: 3,
        max_epochs: 10,
    };
    let m0 = evaluate(&model, &test);
    let mut rows = vec![row![label, 0, "init", m0.mse, m0.mape, 0]];
    for op in 1..=num_ops {
        let mut splits = [&mut train[..], &mut valid[..], &mut test[..]];
        match drift {
            None => sim.step(&mut ds, &mut splits, w.kind),
            Some(schedule) => sim.step_drifted(&mut ds, &mut splits, w.kind, &schedule.at(op - 1)),
        };
        let update = model.check_and_update(&ds, w.kind, &train, &valid, &policy);
        let (m, retrained) = (evaluate(&model, &test), update.retrained());
        let action = if retrained { "retrain" } else { "skip" };
        rows.push(row![label, op, action, m.mse, m.mape, u8::from(retrained)]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "--n 600 --dim 6 --clusters 3 --queries 30 --w 5 --epochs 2";

    fn parsed(line: &str) -> Result<(&'static str, Experiment, Run), String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn refusals() {
        let refused = |line: &str| parsed(line).err().expect("refused");
        assert_eq!(refused(""), "no experiment given");
        assert_eq!(refused("fig"), "unknown experiment fig");
        assert_eq!(refused("table1 --quick"), "unknown experiment table1");
        // `--setting` is accuracy's alone
        assert_eq!(
            refused("tau_norm --setting face-cos"),
            "unknown option --setting"
        );
        assert_eq!(
            refused("accuracy --n 900 --setting"),
            "--setting needs a value"
        );
        assert_eq!(
            refused("accuracy --setting bogus"),
            "bad value \"bogus\" for --setting"
        );
        let (_, _, run) = parsed("accuracy --quick --setting face-cos").unwrap();
        assert!(run.quick && run.setting == Setting::FaceCos);
        // fig3 has no `Scale`: `--quick` is all it takes
        assert_eq!(refused("fig3 --n 600"), "unknown option --n");
        assert_eq!(
            refused("fig3 --quick --epochs 2"),
            "unknown option --epochs"
        );
        assert!(parsed("fig3 --quick").unwrap().2.quick);
        assert!(!parsed("fig3").unwrap().2.quick);
        // the rest goes through `Scale::from_args`
        assert_eq!(refused("fig5 --epoch 2"), "unknown option --epoch");
    }

    #[test]
    fn every_experiment_has_one_name_and_a_usage_line() {
        assert_eq!(EXPERIMENTS.len(), 12);
        let usage = usage();
        for (i, &(name, artifact, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|other| other.0 != name));
            let line = usage
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name));
            assert!(line.is_some_and(|l| l.ends_with(artifact)), "{name}");
        }
    }

    /// The CSV contract: the same flags give the same bytes.
    #[test]
    fn tau_norm_is_deterministic() {
        let (_, tau_norm, run) = parsed(&format!("tau_norm {TINY}")).unwrap();
        let first = tau_norm(&run);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rows.len(), 2);
        assert_eq!(first, tau_norm(&run));
    }

    /// `fig5` returns the update stream and, beside it, one block of
    /// `ops + 1` rows per drift family, in order — the same on every run.
    #[test]
    fn fig5_has_one_drift_block_per_family() {
        let (_, fig5, run) = parsed(&format!("fig5 --quick {TINY}")).unwrap();
        let first = fig5(&run);
        assert_eq!(first.len(), 2);
        assert_eq!(first[1].file, "fig5_drift.csv");
        assert_eq!(first[1].rows.len(), 4 * 21);
        let families = ["gradual", "abrupt", "cyclical", "adversarial"];
        for (block, family) in first[1].rows.chunks(21).zip(families) {
            assert_eq!(block[0][..3], [family, "0", "init"]);
            assert!(block.iter().all(|row| row[0] == family));
        }
        assert_eq!(first, fig5(&run));
    }
}
