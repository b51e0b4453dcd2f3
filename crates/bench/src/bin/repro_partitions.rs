//! Reproduces Table 9: error & estimation time vs partition size `K` on
//! fasttext-l2 (paper sweeps K ∈ {1, 3, 6, 9}; K = 1 is SelNet-ct).

use selnet_bench::harness::{build_setting, partition_config, selnet_config, Scale, Setting};
use selnet_core::{fit_named, fit_partitioned};
use selnet_eval::{average_estimate_ms, evaluate, SelectivityEstimator};

/// One sweep row: `(k, mse, mae, mape, avg_estimate_ms)`.
type SweepRow = (usize, f64, f64, f64, f64);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_partitions: {e}");
        std::process::exit(2);
    });
    let (ds, w) = build_setting(Setting::FasttextL2, &scale);
    let ks = [1usize, 3, 6, 9];

    let mut results: Vec<Option<SweepRow>> = vec![None; ks.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &k in &ks {
            let ds = &ds;
            let w = &w;
            let scale = &scale;
            handles.push(scope.spawn(move || {
                let model: Box<dyn SelectivityEstimator + Send + Sync> = if k == 1 {
                    Box::new(fit_named(ds, w, &selnet_config(scale), "SelNet-ct").0)
                } else {
                    let mut pcfg = partition_config(scale);
                    pcfg.k = k;
                    Box::new(fit_partitioned(ds, w, &selnet_config(scale), &pcfg).0)
                };
                let m = evaluate(model.as_ref(), &w.valid);
                let ms = average_estimate_ms(model.as_ref(), &w.test, 1500);
                (k, m.mse, m.mae, m.mape, ms)
            }));
        }
        for (slot, h) in results.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("sweep thread panicked"));
        }
    });

    println!("## Table 9: errors vs partition size on fasttext-l2 (validation)");
    println!(
        "{:<10} {:>14} {:>12} {:>10} {:>14}",
        "K", "MSE", "MAE", "MAPE", "Est. time (ms)"
    );
    let mut csv = String::from("partitions,mse,mae,mape,estimate_ms\n");
    for r in results.into_iter().flatten() {
        let (k, mse, mae, mape, ms) = r;
        println!("{k:<10} {mse:>14.2} {mae:>12.2} {mape:>10.3} {ms:>14.3}");
        csv.push_str(&format!("{k},{mse},{mae},{mape},{ms}\n"));
    }
    selnet_bench::harness::write_results("partitions_fasttext-l2.csv", &csv);
}
