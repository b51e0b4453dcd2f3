//! Reproduces Figure 3: fitting `y = exp(t)/10` on `t ∈ [0, 10]` with 8
//! control points — the SelNet head (learnable τ) vs the simplified-DLN
//! calibrator (fixed evenly-spaced τ). Prints both fitted curves and the
//! learned control points; the adaptive head should crowd its points into
//! the rapidly-changing region and achieve a far lower MSE (§6.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_core::{fit_fixed_grid, fit_selnet_head};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // the one binary without a `Scale`: `--quick` is all it takes
    if let Some(unknown) = args.iter().find(|a| *a != "--quick") {
        eprintln!("repro_fig3: unknown option {unknown}");
        std::process::exit(2);
    }
    let quick = !args.is_empty();
    let epochs = if quick { 1000 } else { 6000 };

    // 80 (t, f(t)) samples with t ~ U[0, 10], as in §6.2
    let mut rng = StdRng::seed_from_u64(3);
    let samples: Vec<(f32, f32)> = (0..80)
        .map(|_| {
            let t: f32 = rng.gen_range(0.0..10.0);
            (t, t.exp() / 10.0)
        })
        .collect();

    let adaptive = fit_selnet_head(&samples, 8, 10.0, epochs, 0.05, 1);
    let fixed = fit_fixed_grid(&samples, 8 + 2, 10.0, epochs, 0.05, 1);

    println!("## Figure 3: fitting y = exp(t)/10 with 8 control points");
    println!(
        "training MSE: our model {:.3}  |  simplified DLN {:.3}",
        adaptive.mse, fixed.mse
    );
    println!("\ncontrol points (our model):");
    for (tau, p) in adaptive.pwl.tau().iter().zip(adaptive.pwl.p()) {
        println!("  tau = {tau:>7.3}   p = {p:>10.3}");
    }
    println!("\ncontrol points (simplified DLN, fixed grid):");
    for (tau, p) in fixed.pwl.tau().iter().zip(fixed.pwl.p()) {
        println!("  tau = {tau:>7.3}   p = {p:>10.3}");
    }

    // curve series for plotting
    let mut csv = String::from("t,truth,selnet_head,dln_fixed\n");
    for i in 0..=100 {
        let t = 10.0 * i as f32 / 100.0;
        csv.push_str(&format!(
            "{t},{},{},{}\n",
            t.exp() / 10.0,
            adaptive.pwl.eval(t),
            fixed.pwl.eval(t)
        ));
    }
    selnet_bench::harness::write_results("fig3_exp_fit.csv", &csv);

    let interior = &adaptive.pwl.tau()[1..adaptive.pwl.tau().len() - 1];
    let crowded = interior.iter().filter(|&&t| t > 5.0).count();
    println!(
        "\n{}/{} interior control points are in the rapidly-changing half (t > 5)",
        crowded,
        interior.len()
    );
}
