//! Vanilla deep regression (the DNN baseline): an FFN over
//! `[x; ReLU(W t)]` predicting `log(y + ε)`. No consistency guarantee.

use crate::common::{Network, NeuralConfig, Regressor, TEmbedding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_tensor::{Activation, Graph, Mlp, ParamStore, Var};
use selnet_workload::Workload;

/// The DNN's network: an FFN of `hidden` widths over `[x; emb(t)]`. RMI's
/// stage models are DNNs sharing one embedding.
pub struct Dnn {
    emb: TEmbedding,
    net: Mlp,
    dim: usize,
}

impl Dnn {
    /// Registers the FFN as `name` in `store`, over `emb` (already
    /// registered).
    pub(crate) fn new(
        store: &mut ParamStore,
        name: &str,
        emb: TEmbedding,
        dim: usize,
        cfg: &NeuralConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let mut widths = vec![dim + cfg.t_embed];
        widths.extend_from_slice(&cfg.hidden);
        widths.push(1);
        let net = Mlp::new(
            store,
            name,
            &widths,
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        Dnn { emb, net, dim }
    }
}

impl Network for Dnn {
    const LOG_SPACE: bool = true;
    const CONSISTENT: bool = false;

    fn dim(&self) -> usize {
        self.dim
    }

    fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var, t: Var) -> Var {
        let te = self.emb.forward(g, store, t);
        let input = g.concat_cols(x, te);
        self.net.forward(g, store, input)
    }
}

/// A trained DNN estimator.
pub type DnnEstimator = Regressor<Dnn>;

impl DnnEstimator {
    /// Trains the DNN on a workload.
    pub fn fit(ds: &Dataset, workload: &Workload, cfg: &NeuralConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let emb = TEmbedding::new(&mut store, "temb", cfg.t_embed, &mut rng);
        let net = Dnn::new(&mut store, "dnn", emb, ds.dim(), cfg, &mut rng);
        Regressor::train(store, net, workload, cfg, "DNN")
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
    fn dnn_trains_and_predicts() {
        let ds = fasttext_like(&GeneratorConfig::new(1200, 6, 4, 9));
        let mut wcfg = WorkloadConfig::new(60, DistanceKind::Euclidean, 3);
        wcfg.thresholds_per_query = 10;
        let w = generate_workload(&ds, &wcfg);
        let model = DnnEstimator::fit(&ds, &w, &NeuralConfig::tiny());
        let m = evaluate(&model, &w.test);
        assert!(m.mse.is_finite() && m.count > 0);
        // sanity: beats predicting zero everywhere
        let zero_mse: f64 = {
            let flat = Workload::flatten(&w.test);
            flat.iter().map(|f| f.2 * f.2).sum::<f64>() / flat.len() as f64
        };
        assert!(
            m.mse < zero_mse,
            "DNN {} vs zero predictor {}",
            m.mse,
            zero_mse
        );
    }

    /// With an empty validation split the trainer selects on training
    /// loss: more epochs move the answers instead of keeping the first
    /// epoch's parameters for good.
    #[test]
    fn empty_validation_split_keeps_learning() {
        let ds = fasttext_like(&GeneratorConfig::new(600, 5, 3, 9));
        let mut wcfg = WorkloadConfig::new(30, DistanceKind::Euclidean, 3);
        wcfg.thresholds_per_query = 6;
        let mut w = generate_workload(&ds, &wcfg);
        w.valid.clear();
        let answers = |epochs| {
            let cfg = NeuralConfig {
                epochs,
                ..NeuralConfig::tiny()
            };
            let model = DnnEstimator::fit(&ds, &w, &cfg);
            let q = &w.test[0];
            model.estimate_many(&q.x, &q.thresholds)
        };
        assert_ne!(answers(1), answers(10));
    }
}
