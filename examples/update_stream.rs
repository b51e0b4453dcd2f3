//! Live database updates with incremental learning (§5.4): stream inserts
//! and deletes whose insertions drift away from the trained distribution,
//! keep labels exact incrementally, and let the update rule decide when
//! retraining is worth it.
//!
//! ```text
//! cargo run --release -p selnet-examples --example update_stream
//! ```

use selnet_core::{fit_named, SelNetConfig, UpdatePolicy};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_eval::evaluate;
use selnet_metric::DistanceKind;
use selnet_workload::{
    generate_workload, DriftSchedule, LabeledQuery, UpdateSimulator, WorkloadConfig,
};

const KIND: DistanceKind = DistanceKind::Euclidean;
const OPS: usize = 12;

fn main() {
    let mut ds = fasttext_like(&GeneratorConfig::new(8000, 12, 8, 3));
    let wcfg = WorkloadConfig {
        num_queries: 150,
        thresholds_per_query: 12,
        ..WorkloadConfig::new(150, KIND, 9)
    };
    let w = generate_workload(&ds, &wcfg);
    let cfg = SelNetConfig {
        epochs: 15,
        ..SelNetConfig::default()
    };
    let (mut model, _) = fit_named(&ds, &w, &cfg, "SelNet-ct");
    println!("initial validation MAE: {:.2}", model.reference_val_mae());

    let mut train = w.train.clone();
    let mut valid = w.valid.clone();
    let mut test = w.test.clone();
    // The kind of stream the benchmark's `small_update` workload replays
    // (`step_drifted` under an abrupt schedule): each operation inserts or
    // deletes 200 records (2.5 % of the database), and from the fifth on
    // insertions land a quarter of `tmax` away from their templates. The validation MAE then drifts past the tolerance
    // below (5 % of the trained reference) and retraining actually
    // triggers; 25 un-drifted records per operation moved it by 0.12 at
    // most, against a tolerance of 1.57.
    let mut sim = UpdateSimulator::new(17);
    sim.batch = 200;
    let schedule = DriftSchedule::abrupt(ds.dim(), 17, 0.25 * w.tmax, OPS / 3);
    let policy = UpdatePolicy {
        mae_tolerance: (model.reference_val_mae() * 0.05).max(0.25),
        patience: 3,
        max_epochs: 8,
    };

    println!(
        "\n{:<5} {:<36} {:>10} {:>10} {:>8}",
        "op", "decision", "test MSE", "test MAPE", "|D|"
    );
    let mut retrains = 0;
    for op in 1..=OPS {
        {
            let mut splits: Vec<&mut [LabeledQuery]> = vec![
                train.as_mut_slice(),
                valid.as_mut_slice(),
                test.as_mut_slice(),
            ];
            sim.step_drifted(&mut ds, &mut splits, KIND, &schedule.at(op - 1));
        }
        let decision = model.check_and_update(&ds, KIND, &train, &valid, &policy);
        retrains += usize::from(decision.retrained());
        let m = evaluate(&model, &test);
        println!(
            "{op:<5} {:<36} {:>10.1} {:>10.3} {:>8}",
            decision.summary(),
            m.mse,
            m.mape,
            ds.len()
        );
    }
    println!("\nfinal validation MAE: {:.2}", model.reference_val_mae());
    assert!(
        retrains > 0,
        "the drifting stream never crossed the §5.4 tolerance: this example shows nothing"
    );
}
