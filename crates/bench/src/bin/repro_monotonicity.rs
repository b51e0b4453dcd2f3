//! Reproduces Table 5: empirical monotonicity (%) of every model on
//! face-cos — 200 queries × 100 thresholds, all C(100,2) pairs per query.

use selnet_bench::harness::{build_setting, train_models, ModelKind, Scale, Setting};
use selnet_eval::empirical_monotonicity;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_monotonicity: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "[repro_monotonicity] setting=face-cos n={} queries={}",
        scale.n, scale.queries
    );
    let (ds, w) = build_setting(Setting::FaceCos, &scale);
    let models = train_models(&ModelKind::comparison_set(), &ds, &w, &scale);

    println!("## Table 5: empirical monotonicity (%) on face-cos");
    println!("{:<16} {:>12}", "Model", "Monotonic %");
    let mut csv = String::from("model,consistent,monotonicity_pct\n");
    for m in &models {
        let score = empirical_monotonicity(m.as_ref(), &w.test, 200, 100, w.tmax);
        let name = if m.guarantees_consistency() {
            format!("{} *", m.name())
        } else {
            m.name().into()
        };
        println!("{name:<16} {score:>12.2}");
        csv.push_str(&format!(
            "{},{},{}\n",
            m.name(),
            m.guarantees_consistency(),
            score
        ));
    }
    selnet_bench::harness::write_results("monotonicity_face-cos.csv", &csv);
}
