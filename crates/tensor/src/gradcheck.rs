//! Finite-difference gradient verification, used by the test suites of
//! every crate that builds custom loss surfaces on the tape.

use crate::graph::{Graph, Var};
use crate::matrix::Matrix;

/// Result of a gradient check for one input.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradient.
    pub max_abs_diff: f64,
    /// Largest relative difference (normalized by gradient magnitude).
    pub max_rel_diff: f64,
}

/// Checks the analytic gradient of a scalar function built on the tape
/// against central finite differences.
///
/// `build` receives a (reset) graph and the current input values (one
/// matrix per input) and must return `(input_vars, loss_var)` where
/// `loss_var` is `1 x 1`. Analytic gradients are compared entry-by-entry
/// against `(f(x + h) - f(x - h)) / 2h`. All finite-difference evaluations
/// share one reused arena tape, so every gradcheck in the workspace also
/// exercises the reset-and-reuse path of [`Graph`].
pub fn check_gradients(
    inputs: &[Matrix],
    h: f32,
    build: impl Fn(&mut Graph, &[Matrix]) -> (Vec<Var>, Var),
) -> GradCheckReport {
    // analytic
    let mut g = Graph::new();
    let (vars, loss) = build(&mut g, inputs);
    assert_eq!(
        vars.len(),
        inputs.len(),
        "build must return one Var per input"
    );
    g.backward(loss);
    let analytic: Vec<Matrix> = vars.iter().map(|&v| g.grad(v)).collect();

    let mut eval_tape = Graph::new();
    let mut eval = |xs: &[Matrix]| -> f64 {
        eval_tape.reset();
        let (_, loss) = build(&mut eval_tape, xs);
        eval_tape.value(loss).get(0, 0) as f64
    };

    let mut max_abs = 0.0f64;
    let mut max_rel = 0.0f64;
    for (i, input) in inputs.iter().enumerate() {
        for idx in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[i].data_mut()[idx] += h;
            let mut minus = inputs.to_vec();
            minus[i].data_mut()[idx] -= h;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * h as f64);
            let a = analytic[i].data()[idx] as f64;
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1e-6);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
    }
    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_ok(report: &GradCheckReport) {
        assert!(
            report.max_rel_diff < 5e-2 || report.max_abs_diff < 5e-3,
            "gradcheck failed: {report:?}"
        );
    }

    #[test]
    fn matmul_chain_gradients() {
        let a = Matrix::from_fn(3, 4, |i, j| (i as f32 - j as f32) * 0.3 + 0.1);
        let b = Matrix::from_fn(4, 2, |i, j| (i + 2 * j) as f32 * 0.2 - 0.5);
        let report = check_gradients(&[a, b], 1e-2, |g, xs| {
            let a = g.leaf(xs[0].clone());
            let b = g.leaf(xs[1].clone());
            let c = g.matmul(a, b);
            let t = g.sigmoid(c);
            let loss = g.mean(t);
            (vec![a, b], loss)
        });
        assert_ok(&report);
    }

    #[test]
    fn norml2_gradients() {
        let x = Matrix::from_fn(2, 5, |i, j| 0.3 * (i as f32 + 1.0) * ((j as f32) - 2.0));
        let report = check_gradients(&[x], 1e-3, |g, xs| {
            let x = g.leaf(xs[0].clone());
            let n = g.norml2(x, 1e-3);
            let sq = g.square(n);
            let loss = g.sum(sq);
            (vec![x], loss)
        });
        assert_ok(&report);
    }

    #[test]
    fn cumsum_and_pwl_gradients() {
        // tau from positive increments, p from positive increments,
        // interpolate at fixed t — exactly the SelNet head structure.
        let raw_tau = Matrix::from_fn(3, 4, |i, j| 0.2 + 0.1 * ((i + j) as f32));
        let raw_p = Matrix::from_fn(3, 5, |i, j| 0.3 + 0.05 * ((2 * i + j) as f32));
        let report = check_gradients(&[raw_tau, raw_p], 1e-3, |g, xs| {
            let rt = g.leaf(xs[0].clone());
            let rp = g.leaf(xs[1].clone());
            let n = g.norml2(rt, 1e-3);
            let scaled = g.scale(n, 2.0); // tmax = 2
            let tau_pos = g.cumsum_cols(scaled);
            let zeros = g.leaf(Matrix::zeros(3, 1));
            let tau = g.concat_cols(zeros, tau_pos);
            let p_inc = g.softplus(rp);
            let p = g.cumsum_cols(p_inc);
            let t = g.leaf(Matrix::col_vector(&[0.31, 0.77, 1.44]));
            let y = g.pwl_interp(tau, p, t);
            let loss = g.mean(y);
            (vec![rt, rp], loss)
        });
        assert_ok(&report);
    }

    #[test]
    fn block_linear_gradients() {
        let x = Matrix::from_fn(2, 6, |i, j| (i * 6 + j) as f32 * 0.1 - 0.2);
        let w = Matrix::from_fn(3, 2, |i, j| 0.4 - (i + j) as f32 * 0.15);
        let b = Matrix::row_vector(&[0.1, -0.1, 0.2]);
        let report = check_gradients(&[x, w, b], 1e-3, |g, xs| {
            let x = g.leaf(xs[0].clone());
            let w = g.leaf(xs[1].clone());
            let b = g.leaf(xs[2].clone());
            let y = g.block_linear(x, w, b);
            let sq = g.square(y);
            let loss = g.sum(sq);
            (vec![x, w, b], loss)
        });
        assert_ok(&report);
    }

    #[test]
    fn lattice_gradients() {
        let x = Matrix::from_fn(3, 3, |i, j| 0.15 + 0.2 * ((i + j) % 3) as f32);
        let p = Matrix::from_fn(1, 8, |_, j| j as f32 * 0.3 - 1.0);
        let report = check_gradients(&[x, p], 1e-3, |g, xs| {
            let x = g.leaf(xs[0].clone());
            let p = g.leaf(xs[1].clone());
            let y = g.lattice(x, p);
            let sq = g.square(y);
            let loss = g.sum(sq);
            (vec![x, p], loss)
        });
        assert_ok(&report);
    }

    #[test]
    fn huber_log_loss_gradients() {
        let pred = Matrix::col_vector(&[3.0, 150.0, 0.4, 9.0]);
        let report = check_gradients(&[pred], 1e-3, |g, xs| {
            let pred = g.leaf(xs[0].clone());
            let target = g.leaf(Matrix::col_vector(&[5.0, 100.0, 1.0, 9.0]));
            let lp = g.ln_eps(pred, 1.0);
            let lt = g.ln_eps(target, 1.0);
            let r = g.sub(lt, lp);
            let h = g.huber(r, 1.345);
            let loss = g.mean(h);
            (vec![pred], loss)
        });
        assert_ok(&report);
    }

    #[test]
    fn softmax_and_gating_gradients() {
        let logits = Matrix::from_fn(3, 4, |i, j| (i as f32 * 0.7 - j as f32 * 0.4).sin());
        let expert = Matrix::from_fn(3, 4, |i, j| ((i + j) as f32).cos());
        let report = check_gradients(&[logits, expert], 1e-3, |g, xs| {
            let l = g.leaf(xs[0].clone());
            let e = g.leaf(xs[1].clone());
            let gate = g.softmax_rows(l);
            let weighted = g.mul(gate, e);
            let out = g.row_sum(weighted);
            let loss = g.mean(out);
            (vec![l, e], loss)
        });
        assert_ok(&report);
    }
}
