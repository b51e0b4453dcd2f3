//! Reproduces Tables 1–4 (and Table 11 with `--thresholds beta`): accuracy
//! of all ten models on one evaluation setting.
//!
//! ```text
//! cargo run --release -p selnet-bench --bin repro_accuracy -- \
//!     --setting fasttext-cos [--thresholds beta] [--quick] [--n 30000] ...
//! ```

use selnet_bench::harness::{build_setting, train_models, ModelKind, Scale, Setting};
use selnet_eval::{accuracy_csv, evaluate, median_scales, render_accuracy_table, AccuracyRow};
use selnet_workload::ThresholdScheme;

fn refuse(message: String) -> ! {
    eprintln!("repro_accuracy: {message}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--setting NAME` is this binary's own; the rest is the scale
    let setting = match args.iter().position(|a| a == "--setting") {
        None => Setting::FasttextCos,
        Some(i) => {
            args.remove(i);
            if i == args.len() {
                refuse("--setting needs a value".into());
            }
            let name = args.remove(i);
            Setting::parse(&name)
                .unwrap_or_else(|| refuse(format!("bad value {name:?} for --setting")))
        }
    };
    let scale = Scale::from_args(&args).unwrap_or_else(|e| refuse(e));
    let beta = matches!(scale.scheme, ThresholdScheme::Beta { .. });

    eprintln!(
        "[repro_accuracy] setting={} n={} dim={} queries={} w={} epochs={} beta={}",
        setting.label(),
        scale.n,
        scale.dim,
        scale.queries,
        scale.w,
        scale.epochs,
        beta,
    );
    let t0 = std::time::Instant::now();
    let (ds, w) = build_setting(setting, &scale);
    eprintln!(
        "[repro_accuracy] dataset {}x{}, {} train / {} valid / {} test queries, tmax={:.4} ({:.1}s)",
        ds.len(),
        ds.dim(),
        w.train.len(),
        w.valid.len(),
        w.test.len(),
        w.tmax,
        t0.elapsed().as_secs_f64()
    );

    let models = train_models(&ModelKind::comparison_set(), &ds, &w, &scale);
    eprintln!(
        "[repro_accuracy] trained {} models in {:.1}s",
        models.len(),
        t0.elapsed().as_secs_f64()
    );

    let rows: Vec<AccuracyRow> = models
        .iter()
        .map(|m| AccuracyRow {
            model: m.name().to_string(),
            consistent: m.guarantees_consistency(),
            valid: evaluate(m.as_ref(), &w.valid),
            test: evaluate(m.as_ref(), &w.test),
        })
        .collect();

    let table_no = match (setting, beta) {
        (Setting::FasttextCos, false) => "Table 1",
        (Setting::FasttextL2, false) => "Table 2",
        (Setting::FaceCos, false) => "Table 3",
        (Setting::YoutubeCos, false) => "Table 4",
        (Setting::FasttextCos, true) => "Table 11",
        _ => "accuracy",
    };
    // scale factors mirror the paper's column headers, adapted to our
    // smaller label range
    let (mse_scale, mae_scale) = median_scales(&rows);
    let title = format!(
        "{table_no}: accuracy on {}{}",
        setting.label(),
        if beta {
            " (Beta(3,2.5) thresholds)"
        } else {
            ""
        }
    );
    println!(
        "{}",
        render_accuracy_table(&title, &rows, mse_scale, mae_scale)
    );

    let suffix = if beta { "_beta" } else { "" };
    selnet_bench::harness::write_results(
        &format!("accuracy_{}{}.csv", setting.label(), suffix),
        &accuracy_csv(&rows),
    );
}
