//! Ablation of the §5.1 loss design: Huber vs L2 vs L1 on the log
//! residuals. The paper's claim: L2 over-fits large selectivities, L1
//! over-weights small ones, Huber-on-log balances both. MAPE exposes the
//! small-selectivity end, MSE the large end.

use selnet_bench::harness::{build_setting, selnet_config, Scale, Setting};
use selnet_core::{fit_named, LossKind};
use selnet_eval::evaluate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_loss_ablation: {e}");
        std::process::exit(2);
    });
    let (ds, w) = build_setting(Setting::FasttextCos, &scale);
    let variants = [
        ("Huber", LossKind::Huber),
        ("L2", LossKind::L2),
        ("L1", LossKind::L1),
    ];

    let mut results: Vec<Option<(&str, f64, f64, f64)>> = vec![None; variants.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &(label, loss) in &variants {
            let (ds, w, scale) = (&ds, &w, &scale);
            handles.push(scope.spawn(move || {
                let cfg = selnet_config(scale).with_loss(loss);
                let (model, _) = fit_named(ds, w, &cfg, "SelNet-ct");
                let m = evaluate(&model, &w.valid);
                (label, m.mse, m.mae, m.mape)
            }));
        }
        for (slot, h) in results.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("thread"));
        }
    });

    println!("## Ablation: loss on log residuals (Huber vs L2 vs L1) on fasttext-cos (validation)");
    println!("{:<10} {:>14} {:>12} {:>10}", "Loss", "MSE", "MAE", "MAPE");
    let mut csv = String::from("loss,mse,mae,mape\n");
    for r in results.into_iter().flatten() {
        let (label, mse, mae, mape) = r;
        println!("{label:<10} {mse:>14.2} {mae:>12.2} {mape:>10.3}");
        csv.push_str(&format!("{label},{mse},{mae},{mape}\n"));
    }
    selnet_bench::harness::write_results("loss_ablation_fasttext-cos.csv", &csv);
}
