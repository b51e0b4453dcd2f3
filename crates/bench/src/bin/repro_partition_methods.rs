//! Reproduces Table 10: cover-tree (CT) vs random (RP) vs k-means (KM)
//! partitioning at K = 3 on fasttext-l2 — and, beside the errors, what
//! each method's indicator costs and buys: balls stored, snapshot bytes,
//! and the mean share of partitions a test query switches on.

use selnet_bench::harness::{build_setting, partition_config, selnet_config, Scale, Setting};
use selnet_core::fit_partitioned;
use selnet_eval::evaluate;
use selnet_index::PartitionMethod;

/// One method's row of the table.
struct Row {
    label: &'static str,
    mse: f64,
    mae: f64,
    mape: f64,
    balls: usize,
    snapshot_bytes: usize,
    active_share: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_partition_methods: {e}");
        std::process::exit(2);
    });
    let (ds, w) = build_setting(Setting::FasttextL2, &scale);
    let methods = [
        ("CT", PartitionMethod::CoverTree { ratio: 0.05 }),
        ("RP", PartitionMethod::Random),
        ("KM", PartitionMethod::KMeans),
    ];

    let results: Vec<Row> = std::thread::scope(|scope| {
        let handles: Vec<_> = methods
            .iter()
            .map(|&(label, method)| {
                let (ds, w, scale) = (&ds, &w, &scale);
                scope.spawn(move || {
                    let mut pcfg = partition_config(scale);
                    pcfg.method = method;
                    let (model, _) = fit_partitioned(ds, w, &selnet_config(scale), &pcfg);
                    let m = evaluate(&model, &w.test);
                    let partitioning = model.partitioning();
                    let balls: usize = partitioning.region_counts().iter().sum();
                    let mut snapshot = Vec::new();
                    model.save(&mut snapshot).expect("snapshot to memory");
                    let (mut on, mut flags) = (0, 0);
                    let mut row = Vec::new();
                    for q in &w.test {
                        partitioning.indicator_many_into(&q.x, &q.thresholds, &mut row);
                        on += row.iter().filter(|&&f| f).count();
                        flags += row.len();
                    }
                    Row {
                        label,
                        mse: m.mse,
                        mae: m.mae,
                        mape: m.mape,
                        balls,
                        snapshot_bytes: snapshot.len(),
                        active_share: on as f64 / flags.max(1) as f64,
                    }
                })
            })
            .collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"));
        joined.collect()
    });

    println!("## Table 10: errors vs partitioning method (K=3) on fasttext-l2 (test)");
    println!(
        "{:<10} {:>14} {:>12} {:>10} {:>8} {:>15} {:>13}",
        "Method", "MSE", "MAE", "MAPE", "balls", "snapshot_bytes", "active_share"
    );
    let mut csv = String::from("method,mse,mae,mape,balls,snapshot_bytes,active_share\n");
    for r in results {
        let Row {
            label,
            mse,
            mae,
            mape,
            balls,
            snapshot_bytes,
            active_share,
        } = r;
        println!(
            "{label:<10} {mse:>14.2} {mae:>12.2} {mape:>10.3} {balls:>8} {snapshot_bytes:>15} {active_share:>13.4}"
        );
        csv.push_str(&format!(
            "{label},{mse},{mae},{mape},{balls},{snapshot_bytes},{active_share}\n"
        ));
    }
    selnet_bench::harness::write_results("partition_methods_fasttext-l2.csv", &csv);
}
