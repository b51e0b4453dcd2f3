//! The continuous piece-wise linear function family of §5.1 as a
//! standalone value type, plus a trainable one-dimensional PWL fitter used
//! by the Figure 3 experiment (SelNet head vs. DLN calibrator on
//! `y = exp(t)/10`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_tensor::{init, pwl_interp_row, Adam, Graph, Matrix, ParamStore, Var};

/// A concrete PWL function `Θ = {(τ_i, p_i)}` (Eq. 1).
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseLinear {
    tau: Vec<f32>,
    p: Vec<f32>,
}

impl PiecewiseLinear {
    /// Creates a PWL function from control points.
    ///
    /// # Panics
    /// Panics if lengths differ, fewer than two points are given, or `tau`
    /// is not sorted.
    pub fn new(tau: Vec<f32>, p: Vec<f32>) -> Self {
        assert_eq!(tau.len(), p.len(), "tau/p length mismatch");
        assert!(tau.len() >= 2, "need at least two control points");
        assert!(tau.windows(2).all(|w| w[0] <= w[1]), "tau must be sorted");
        PiecewiseLinear { tau, p }
    }

    /// Control-point abscissae.
    pub fn tau(&self) -> &[f32] {
        &self.tau
    }

    /// Control-point ordinates.
    pub fn p(&self) -> &[f32] {
        &self.p
    }

    /// Whether the function is monotonically non-decreasing (Lemma 1's
    /// precondition `p_i >= p_{i-1}`).
    pub fn is_monotone(&self) -> bool {
        self.p.windows(2).all(|w| w[1] >= w[0] - 1e-9)
    }

    /// Evaluates the function at `t`, clamping outside `[τ_0, τ_{L+1}]`
    /// and returning NaN at `t = NaN`: the tape's and the served
    /// interpolation, [`pwl_interp_row`].
    pub fn eval(&self, t: f32) -> f32 {
        pwl_interp_row(&self.tau, &self.p, t)
    }
}

/// Result of fitting a one-dimensional curve.
#[derive(Clone, Debug)]
pub struct PwlFit {
    /// The fitted function.
    pub pwl: PiecewiseLinear,
    /// Final training MSE.
    pub mse: f64,
}

/// Fits the SelNet head (learnable τ via Norml2+prefix-sum, learnable p via
/// ReLU increments) to one-dimensional samples — the §6.2 comparison where
/// the model learns to place control points in the "interesting area".
pub fn fit_selnet_head(
    samples: &[(f32, f32)],
    num_control_points: usize,
    tmax: f32,
    epochs: usize,
    lr: f32,
    seed: u64,
) -> PwlFit {
    assert!(!samples.is_empty(), "need samples");
    let l = num_control_points.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    // raw parameters: tau increments (L+1 of them -> L interior points),
    // and p increments (L+2)
    let raw_tau = store.add("raw_tau", init::normal(1, l + 1, 0.5, &mut rng));
    let raw_p = store.add("raw_p", init::normal(1, l + 2, 0.5, &mut rng));
    let mut opt = Adam::new(lr);

    let ts = Matrix::col_vector(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
    let ys = Matrix::col_vector(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    // τ from Norml2 + prefix sum behind a zero knot, p from softplus
    // increments
    let curve = |g: &mut Graph, store: &ParamStore| -> (Var, Var) {
        let rt = store.inject(g, raw_tau);
        let rp = store.inject(g, raw_p);
        let norm = g.norml2(rt, 1e-6);
        let scaled = g.scale(norm, tmax);
        let tau_tail = g.cumsum_cols(scaled);
        let zero = g.leaf(Matrix::zeros(1, 1));
        let tau = g.concat_cols(zero, tau_tail);
        let inc = g.softplus(rp);
        (tau, g.cumsum_cols(inc))
    };
    let mut last_mse = f64::MAX;
    for _ in 0..epochs {
        let mut g = Graph::new();
        let (tau, p) = curve(&mut g, &store);
        let t = g.leaf(ts.clone());
        let y = g.leaf(ys.clone());
        let pred = g.pwl_interp(tau, p, t);
        let diff = g.sub(pred, y);
        let sq = g.square(diff);
        let loss = g.mean(sq);
        g.backward_params(loss);
        last_mse = g.value(loss).get(0, 0) as f64;
        let grads = g.param_grad_refs();
        opt.step_refs(&mut store, &grads);
    }

    // extract the fitted control points
    let mut g = Graph::new();
    let (tau, p) = curve(&mut g, &store);
    let pwl = PiecewiseLinear::new(g.value(tau).data().to_vec(), g.value(p).data().to_vec());
    PwlFit { pwl, mse: last_mse }
}

/// Fits a DLN-style calibrator to the same samples: `τ` values *fixed* and
/// evenly spaced in `[0, tmax]`, only `p` learnable with a monotone
/// parameterization (this is the §6.2 simplified-DLN comparison).
pub fn fit_fixed_grid(
    samples: &[(f32, f32)],
    num_control_points: usize,
    tmax: f32,
    epochs: usize,
    lr: f32,
    seed: u64,
) -> PwlFit {
    assert!(!samples.is_empty(), "need samples");
    let m = num_control_points.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let raw_p = store.add("raw_p", init::normal(1, m, 0.5, &mut rng));
    let mut opt = Adam::new(lr);
    let tau_fixed: Vec<f32> = (0..m).map(|i| tmax * i as f32 / (m - 1) as f32).collect();

    let ts = Matrix::col_vector(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
    let ys = Matrix::col_vector(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    // p from softplus increments, τ fixed
    let curve = |g: &mut Graph, store: &ParamStore| -> Var {
        let rp = store.inject(g, raw_p);
        let inc = g.softplus(rp);
        g.cumsum_cols(inc)
    };
    let mut last_mse = f64::MAX;
    for _ in 0..epochs {
        let mut g = Graph::new();
        let p = curve(&mut g, &store);
        let tau = g.leaf(Matrix::row_vector(&tau_fixed));
        let t = g.leaf(ts.clone());
        let y = g.leaf(ys.clone());
        let pred = g.pwl_interp(tau, p, t);
        let diff = g.sub(pred, y);
        let sq = g.square(diff);
        let loss = g.mean(sq);
        g.backward_params(loss);
        last_mse = g.value(loss).get(0, 0) as f64;
        let grads = g.param_grad_refs();
        opt.step_refs(&mut store, &grads);
    }

    let mut g = Graph::new();
    let p = curve(&mut g, &store);
    let pwl = PiecewiseLinear::new(tau_fixed, g.value(p).data().to_vec());
    PwlFit { pwl, mse: last_mse }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_interpolates_and_clamps() {
        let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 10.0]);
        assert_eq!(f.eval(-1.0), 0.0);
        assert_eq!(f.eval(0.5), 5.0);
        assert_eq!(f.eval(1.5), 10.0);
        assert_eq!(f.eval(3.0), 10.0);
        assert!(f.is_monotone());
    }

    /// Regression: `eval(NaN)` underflowed `hi - 1` and panicked.
    #[test]
    fn eval_handles_nan_and_infinities() {
        let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 10.0]);
        assert!(f.eval(f32::NAN).is_nan());
        // infinities clamp like any other out-of-range input
        assert_eq!(f.eval(f32::NEG_INFINITY), 0.0);
        assert_eq!(f.eval(f32::INFINITY), 10.0);
    }

    #[test]
    fn non_monotone_detected() {
        let f = PiecewiseLinear::new(vec![0.0, 1.0], vec![5.0, 1.0]);
        assert!(!f.is_monotone());
    }

    /// The §6.2 example: fitting y = exp(t)/10 on [0, 10]. The adaptive
    /// head must beat the fixed evenly-spaced grid.
    #[test]
    fn adaptive_head_beats_fixed_grid_on_exponential() {
        let samples: Vec<(f32, f32)> = (0..80)
            .map(|i| {
                let t = 10.0 * (i as f32 + 0.5) / 80.0;
                (t, t.exp() / 10.0)
            })
            .collect();
        let adaptive = fit_selnet_head(&samples, 8, 10.0, 3000, 0.05, 1);
        let fixed = fit_fixed_grid(&samples, 8, 10.0, 3000, 0.05, 1);
        assert!(adaptive.pwl.is_monotone());
        assert!(fixed.pwl.is_monotone());
        assert!(
            adaptive.mse < fixed.mse,
            "adaptive {:.3} should beat fixed {:.3}",
            adaptive.mse,
            fixed.mse
        );
        // the adaptive model should place most interior points in the
        // rapidly-changing region (t > 5)
        let interior = &adaptive.pwl.tau()[1..adaptive.pwl.tau().len() - 1];
        let high = interior.iter().filter(|&&t| t > 5.0).count();
        assert!(high * 2 >= interior.len(), "control points {interior:?}");
    }

    #[test]
    fn fitted_function_covers_range() {
        let samples: Vec<(f32, f32)> = (0..50)
            .map(|i| (i as f32 / 10.0, (i as f32 / 10.0) * 2.0))
            .collect();
        let fit = fit_selnet_head(&samples, 6, 5.0, 1500, 0.05, 3);
        assert_eq!(fit.pwl.tau()[0], 0.0);
        let last = *fit.pwl.tau().last().expect("nonempty");
        assert!((last - 5.0).abs() < 1e-3, "tau_max {last}");
        assert!(fit.mse < 0.4, "mse {}", fit.mse);
    }
}
