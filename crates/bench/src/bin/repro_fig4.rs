//! Reproduces Figure 4: learned control-point placement of SelNet-ct vs
//! SelNet-ad-ct for two random test queries on fasttext-cos. SelNet-ad-ct
//! shares one τ vector across all queries; SelNet-ct adapts it per query.

use selnet_bench::harness::{build_setting, selnet_config, Scale, Setting};
use selnet_core::fit_named;
use selnet_workload::sorted_distances;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_fig4: {e}");
        std::process::exit(2);
    });
    let (ds, w) = build_setting(Setting::FasttextCos, &scale);

    let (ct, ad) = std::thread::scope(|scope| {
        let h1 = {
            let (ds, w, scale) = (&ds, &w, &scale);
            scope.spawn(move || fit_named(ds, w, &selnet_config(scale), "SelNet-ct").0)
        };
        let h2 = {
            let (ds, w, scale) = (&ds, &w, &scale);
            scope.spawn(move || {
                let cfg = selnet_config(scale).without_adaptive_tau();
                fit_named(ds, w, &cfg, "SelNet-ad-ct").0
            })
        };
        (h1.join().expect("train"), h2.join().expect("train"))
    });

    println!("## Figure 4: control points on fasttext-cos (2 queries)");
    let mut csv = String::from("query,model,tau,p,ground_truth_at_tau\n");
    for (qi, q) in w.test.iter().take(2).enumerate() {
        let sorted = sorted_distances(&ds, &q.x, w.kind);
        for (label, model) in [("SelNet-ct", &ct), ("SelNet-ad-ct", &ad)] {
            // a `K = 1` model: its one curve
            let (tau, p) = model.control_points_for(&q.x).swap_remove(0);
            println!("\nquery {} — {label}:", qi + 1);
            for (t, pv) in tau.iter().zip(&p) {
                let truth = sorted.partition_point(|&d| d <= *t);
                println!("  tau = {t:>8.4}   p = {pv:>10.2}   truth = {truth}");
                csv.push_str(&format!("{},{label},{t},{pv},{truth}\n", qi + 1));
            }
        }
    }
    println!(
        "\nNote: SelNet-ad-ct rows share identical tau values across queries; \
         SelNet-ct adapts them to where each query's selectivity changes fastest."
    );
    selnet_bench::harness::write_results("fig4_control_points.csv", &csv);
}
