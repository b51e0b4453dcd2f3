//! Reproduces Table 6: the ablation study — SelNet vs SelNet-ct (no
//! partitioning) vs SelNet-ad-ct (no query-dependent τ) on all four
//! settings.

use selnet_bench::harness::{build_setting, train_models, ModelKind, Scale, Setting};
use selnet_eval::{evaluate, median_scales, render_accuracy_table, AccuracyRow};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_ablation: {e}");
        std::process::exit(2);
    });
    let settings = [
        Setting::FasttextCos,
        Setting::FasttextL2,
        Setting::FaceCos,
        Setting::YoutubeCos,
    ];
    let mut csv =
        String::from("setting,model,mse_valid,mse_test,mae_valid,mae_test,mape_valid,mape_test\n");
    println!("## Table 6: ablation study");
    for setting in settings {
        eprintln!("[repro_ablation] {}", setting.label());
        let (ds, w) = build_setting(setting, &scale);
        let models = train_models(&ModelKind::ablation_set(), &ds, &w, &scale);
        let rows: Vec<AccuracyRow> = models
            .iter()
            .map(|m| AccuracyRow {
                model: m.name().to_string(),
                consistent: true,
                valid: evaluate(m.as_ref(), &w.valid),
                test: evaluate(m.as_ref(), &w.test),
            })
            .collect();
        let (mse_scale, mae_scale) = median_scales(&rows);
        println!(
            "{}",
            render_accuracy_table(setting.label(), &rows, mse_scale, mae_scale)
        );
        for r in &rows {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                setting.label(),
                r.model,
                r.valid.mse,
                r.test.mse,
                r.valid.mae,
                r.test.mae,
                r.valid.mape,
                r.test.mape
            ));
        }
    }
    selnet_bench::harness::write_results("ablation.csv", &csv);
}
