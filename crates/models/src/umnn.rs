//! Unconstrained Monotonic Neural Network (the UMNN baseline, Wehenkel &
//! Louppe, NeurIPS'19).
//!
//! The estimator is the integral of a strictly positive integrand network:
//!
//! `f(x, t) = offset(x) + ∫_0^t ĝ(x, s) ds`,   `ĝ = elu(FFN([x; s])) + 1 > 0`
//!
//! evaluated with Clenshaw–Curtis quadrature (§6.3). Positivity of `ĝ`
//! makes `f` monotone in `t` by construction; the non-negative offset
//! models `f(x, 0) ≥ 1` (the query is itself a database point). As §6.3
//! points out, the quadrature nodes are the *same* for every query —
//! the inflexibility SelNet's query-dependent control points remove.

use crate::common::{Network, NeuralConfig, Regressor};
use crate::quadrature::clenshaw_curtis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_data::Dataset;
use selnet_tensor::{Activation, Graph, Mlp, ParamStore, Var};
use selnet_workload::Workload;

/// UMNN hyper-parameters.
#[derive(Clone, Debug)]
pub struct UmnnConfig {
    /// Shared neural settings (`hidden` shapes the integrand FFN).
    pub base: NeuralConfig,
    /// Quadrature points = `nodes + 1`.
    pub nodes: usize,
    /// Hidden widths of the offset network.
    pub offset_hidden: Vec<usize>,
}

impl Default for UmnnConfig {
    fn default() -> Self {
        UmnnConfig {
            base: NeuralConfig::default(),
            nodes: 8,
            offset_hidden: vec![32],
        }
    }
}

impl UmnnConfig {
    /// Small fast configuration for tests.
    pub fn tiny() -> Self {
        UmnnConfig {
            base: NeuralConfig::tiny(),
            nodes: 6,
            offset_hidden: vec![8],
        }
    }
}

/// The UMNN's network: the integrand and offset FFNs and the quadrature
/// rule.
pub struct Umnn {
    integrand: Mlp,
    offset: Mlp,
    /// CC node coefficients mapped to `[0, 1]`: `c_j = (ξ_j + 1) / 2`.
    node_coeff: Vec<f32>,
    /// CC weights already divided by 2 (the `t/2` Jacobian).
    half_weights: Vec<f32>,
    dim: usize,
}

impl Network for Umnn {
    /// The output is the *raw* selectivity (non-negative, monotone in `t`).
    const LOG_SPACE: bool = false;
    const CONSISTENT: bool = true;

    fn dim(&self) -> usize {
        self.dim
    }

    fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var, t: Var) -> Var {
        // integral: (t/2) Σ_j w_j ĝ(x, c_j t)
        let mut acc: Option<Var> = None;
        for (&c, &hw) in self.node_coeff.iter().zip(&self.half_weights) {
            let s = g.scale(t, c);
            let input = g.concat_cols(x, s);
            let raw = self.integrand.forward(g, store, input);
            let pos = g.elu_plus_one(raw);
            let weighted = g.scale(pos, hw);
            acc = Some(match acc {
                Some(prev) => g.add(prev, weighted),
                None => weighted,
            });
        }
        let weighted_sum = acc.expect("at least one node");
        let integral = g.mul(weighted_sum, t);
        // non-negative query-dependent offset: f(x, 0)
        let off_raw = self.offset.forward(g, store, x);
        let off = g.softplus(off_raw);
        g.add(integral, off)
    }
}

/// A trained UMNN estimator.
pub type UmnnEstimator = Regressor<Umnn>;

impl UmnnEstimator {
    /// Trains the UMNN on a workload.
    pub fn fit(ds: &Dataset, workload: &Workload, cfg: &UmnnConfig) -> Self {
        let dim = ds.dim();
        let mut rng = StdRng::seed_from_u64(cfg.base.seed);
        let mut store = ParamStore::new();
        let mut widths = vec![dim + 1];
        widths.extend_from_slice(&cfg.base.hidden);
        widths.push(1);
        let integrand = Mlp::new(
            &mut store,
            "integrand",
            &widths,
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        let mut off_widths = vec![dim];
        off_widths.extend_from_slice(&cfg.offset_hidden);
        off_widths.push(1);
        let offset = Mlp::new(
            &mut store,
            "offset",
            &off_widths,
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        let (nodes, weights) = clenshaw_curtis(cfg.nodes.max(1));
        let net = Umnn {
            integrand,
            offset,
            node_coeff: nodes.iter().map(|&xi| ((xi + 1.0) / 2.0) as f32).collect(),
            half_weights: weights.iter().map(|&w| (w / 2.0) as f32).collect(),
            dim,
        };
        Regressor::train(store, net, workload, &cfg.base, "UMNN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_eval::{evaluate, SelectivityEstimator};
    use selnet_metric::DistanceKind;
    use selnet_workload::{generate_workload, WorkloadConfig};

    #[test]
    fn untrained_umnn_is_already_monotone() {
        let ds = fasttext_like(&GeneratorConfig::new(200, 5, 3, 37));
        let mut wcfg = WorkloadConfig::new(10, DistanceKind::Euclidean, 15);
        wcfg.thresholds_per_query = 5;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = UmnnConfig::tiny();
        cfg.base.epochs = 0; // untrained
        let model = UmnnEstimator::fit(&ds, &w, &cfg);
        let ts: Vec<f32> = (0..80).map(|i| w.tmax * i as f32 / 79.0).collect();
        let preds = model.estimate_many(ds.row(0), &ts);
        for pair in preds.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-5, "UMNN must be monotone: {pair:?}");
        }
    }

    #[test]
    fn umnn_trains_and_is_consistent() {
        let ds = fasttext_like(&GeneratorConfig::new(800, 5, 3, 41));
        let mut wcfg = WorkloadConfig::new(40, DistanceKind::Euclidean, 17);
        wcfg.thresholds_per_query = 8;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = UmnnConfig::tiny();
        cfg.base.epochs = 8;
        let model = UmnnEstimator::fit(&ds, &w, &cfg);
        let m = evaluate(&model, &w.test);
        assert!(m.mse.is_finite() && m.count > 0);
        let score = selnet_eval::empirical_monotonicity(&model, &w.test, 8, 50, w.tmax);
        assert_eq!(score, 100.0);
    }

    #[test]
    fn prediction_at_zero_is_offset_only() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 4, 2, 43));
        let mut wcfg = WorkloadConfig::new(10, DistanceKind::Euclidean, 19);
        wcfg.thresholds_per_query = 5;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = UmnnConfig::tiny();
        cfg.base.epochs = 2;
        let model = UmnnEstimator::fit(&ds, &w, &cfg);
        // integral over [0, 0] vanishes; prediction = softplus(offset) >= 0
        let at_zero = model.estimate(ds.row(0), 0.0);
        assert!(at_zero >= 0.0);
    }
}
