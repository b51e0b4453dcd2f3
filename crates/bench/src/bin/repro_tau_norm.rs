//! Ablation of the §5.2 design choice: `Norml2` vs `Softmax` normalization
//! of the τ increments. The paper argues softmax's exponential makes the
//! partition hypersensitive to small input changes; this bench measures
//! the consequence on fasttext-l2.

use selnet_bench::harness::{build_setting, selnet_config, Scale, Setting};
use selnet_core::{fit_named, TauNormalization};
use selnet_eval::evaluate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_tau_norm: {e}");
        std::process::exit(2);
    });
    let (ds, w) = build_setting(Setting::FasttextL2, &scale);
    let variants = [
        ("Norml2", TauNormalization::Norml2),
        ("Softmax", TauNormalization::Softmax),
    ];

    let mut results: Vec<Option<(&str, f64, f64, f64)>> = vec![None; variants.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &(label, norm) in &variants {
            let (ds, w, scale) = (&ds, &w, &scale);
            handles.push(scope.spawn(move || {
                let cfg = selnet_config(scale).with_tau_normalization(norm);
                let (model, _) = fit_named(ds, w, &cfg, "SelNet-ct");
                let m = evaluate(&model, &w.valid);
                (label, m.mse, m.mae, m.mape)
            }));
        }
        for (slot, h) in results.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("thread"));
        }
    });

    println!("## Ablation: tau normalization (Norml2 vs Softmax) on fasttext-l2 (validation)");
    println!("{:<10} {:>14} {:>12} {:>10}", "Norm", "MSE", "MAE", "MAPE");
    let mut csv = String::from("norm,mse,mae,mape\n");
    for r in results.into_iter().flatten() {
        let (label, mse, mae, mape) = r;
        println!("{label:<10} {mse:>14.2} {mae:>12.2} {mape:>10.3}");
        csv.push_str(&format!("{label},{mse},{mae},{mape}\n"));
    }
    selnet_bench::harness::write_results("tau_norm_fasttext-l2.csv", &csv);
}
