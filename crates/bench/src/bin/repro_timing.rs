//! Reproduces Table 7: average single-query estimation time (ms) of every
//! model on every setting (the SelNet variants included, like the paper).

use selnet_bench::harness::{build_setting, train_model, ModelKind, Scale, Setting};
use selnet_eval::average_estimate_ms;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_timing: {e}");
        std::process::exit(2);
    });
    let settings = [
        Setting::FaceCos,
        Setting::FasttextCos,
        Setting::FasttextL2,
        Setting::YoutubeCos,
    ];
    let kinds = [
        ModelKind::Lsh,
        ModelKind::Kde,
        ModelKind::LightGbm,
        ModelKind::LightGbmM,
        ModelKind::Dnn,
        ModelKind::Moe,
        ModelKind::Rmi,
        ModelKind::Dln,
        ModelKind::Umnn,
        ModelKind::SelNet,
        ModelKind::SelNetCt,
        ModelKind::SelNetAdCt,
    ];

    // rows[model][setting]
    let mut cells: Vec<Vec<Option<f64>>> = vec![vec![None; settings.len()]; kinds.len()];
    let mut names: Vec<String> = kinds.iter().map(|k| format!("{k:?}")).collect();
    for (si, &setting) in settings.iter().enumerate() {
        eprintln!("[repro_timing] {}", setting.label());
        let (ds, w) = build_setting(setting, &scale);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &kind in &kinds {
                let ds = &ds;
                let w = &w;
                let scale = &scale;
                handles.push(scope.spawn(move || {
                    train_model(kind, ds, w, scale).map(|m| {
                        let ms = average_estimate_ms(m.as_ref(), &w.test, 2000);
                        (m.name().to_string(), ms)
                    })
                }));
            }
            for (mi, h) in handles.into_iter().enumerate() {
                if let Some((name, ms)) = h.join().expect("timing thread panicked") {
                    names[mi] = name;
                    cells[mi][si] = Some(ms);
                }
            }
        });
    }

    println!("## Table 7: average estimation time (milliseconds)");
    print!("{:<16}", "Model");
    for s in &settings {
        print!(" {:>14}", s.label());
    }
    println!();
    let mut csv = String::from("model,face-cos,fasttext-cos,fasttext-l2,youtube-cos\n");
    for (mi, name) in names.iter().enumerate() {
        print!("{name:<16}");
        csv.push_str(name);
        for cell in &cells[mi] {
            match *cell {
                Some(ms) => {
                    print!(" {ms:>14.3}");
                    csv.push_str(&format!(",{ms}"));
                }
                None => {
                    print!(" {:>14}", "-");
                    csv.push(',');
                }
            }
        }
        println!();
        csv.push('\n');
    }
    selnet_bench::harness::write_results("timing.csv", &csv);
}
