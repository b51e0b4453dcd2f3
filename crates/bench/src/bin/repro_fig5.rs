//! Reproduces Figure 5: estimator error over a stream of 100 update
//! operations (each ±5 records) on face-cos and fasttext-cos, with the
//! §5.4 incremental-learning rule deciding when to retrain.

use selnet_bench::harness::{build_setting, train_selnet_ct, Scale, Setting};
use selnet_core::UpdatePolicy;
use selnet_eval::evaluate;
use selnet_metric::DistanceKind;
use selnet_workload::{LabeledQuery, UpdateSimulator};

fn run_setting(setting: Setting, scale: &Scale, num_ops: usize) -> String {
    eprintln!("[repro_fig5] {}", setting.label());
    let (mut ds, w) = build_setting(setting, scale);
    let mut model = train_selnet_ct(&ds, &w, scale);
    let mut train = w.train.clone();
    let mut valid = w.valid.clone();
    let mut test = w.test.clone();
    let kind: DistanceKind = w.kind;

    let mut sim = UpdateSimulator::new(scale.seed ^ 0xf1f5);
    // tolerance relative to the trained model's validation MAE
    let policy = UpdatePolicy {
        mae_tolerance: (model.reference_val_mae() * 0.15).max(0.5),
        patience: 3,
        max_epochs: 10,
    };

    let mut csv = String::new();
    let m0 = evaluate(&model, &test);
    csv.push_str(&format!(
        "{},0,init,{},{},{}\n",
        setting.label(),
        m0.mse,
        m0.mape,
        0
    ));
    for op in 1..=num_ops {
        {
            let mut splits: Vec<&mut [LabeledQuery]> = vec![
                train.as_mut_slice(),
                valid.as_mut_slice(),
                test.as_mut_slice(),
            ];
            sim.step(&mut ds, &mut splits, kind);
        }
        let decision = model.check_and_update(&ds, kind, &train, &valid, &policy);
        let m = evaluate(&model, &test);
        let retrained = usize::from(decision.retrained());
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            setting.label(),
            op,
            if retrained == 1 { "retrain" } else { "skip" },
            m.mse,
            m.mape,
            retrained
        ));
        if op % 10 == 0 {
            println!(
                "{} op {op:>3}: MSE {:>12.1}  MAPE {:>6.3}  ({})",
                setting.label(),
                m.mse,
                m.mape,
                if retrained == 1 {
                    "retrained"
                } else {
                    "skipped"
                }
            );
        }
    }
    csv
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_fig5: {e}");
        std::process::exit(2);
    });
    let num_ops = if args.iter().any(|a| a == "--quick") {
        20
    } else {
        100
    };

    println!("## Figure 5: data update stream ({num_ops} ops, ±5 records each)");
    let mut csv = String::from("setting,op,action,mse,mape,retrained\n");
    for setting in [Setting::FaceCos, Setting::FasttextCos] {
        csv.push_str(&run_setting(setting, &scale, num_ops));
    }
    selnet_bench::harness::write_results("fig5_updates.csv", &csv);
}
