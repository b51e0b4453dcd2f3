//! Reproduces Table 8: error vs. number of control points `L` on
//! fasttext-l2 (paper sweeps L ∈ {10, 50, 90, 130}).

use selnet_bench::harness::{build_setting, selnet_config, Scale, Setting};
use selnet_core::fit_named;
use selnet_eval::evaluate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_control_points: {e}");
        std::process::exit(2);
    });
    let (ds, w) = build_setting(Setting::FasttextL2, &scale);
    let ls = [10usize, 50, 90, 130];

    let mut results: Vec<Option<(usize, f64, f64, f64)>> = vec![None; ls.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &l in &ls {
            let ds = &ds;
            let w = &w;
            let scale = &scale;
            handles.push(scope.spawn(move || {
                let mut cfg = selnet_config(scale);
                cfg.control_points = l;
                let (model, _) = fit_named(ds, w, &cfg, "SelNet-ct");
                let m = evaluate(&model, &w.valid);
                (l, m.mse, m.mae, m.mape)
            }));
        }
        for (slot, h) in results.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("sweep thread panicked"));
        }
    });

    println!("## Table 8: errors vs number of control points on fasttext-l2 (validation)");
    println!("{:<10} {:>14} {:>12} {:>10}", "L", "MSE", "MAE", "MAPE");
    let mut csv = String::from("control_points,mse,mae,mape\n");
    for r in results.into_iter().flatten() {
        let (l, mse, mae, mape) = r;
        println!("{l:<10} {mse:>14.2} {mae:>12.2} {mape:>10.3}");
        csv.push_str(&format!("{l},{mse},{mae},{mape}\n"));
    }
    selnet_bench::harness::write_results("control_points_fasttext-l2.csv", &csv);
}
