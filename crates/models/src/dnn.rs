//! Vanilla deep regression (the DNN baseline): an FFN over
//! `[x; ReLU(W t)]` predicting `log(y + ε)`. No consistency guarantee.

use crate::common::{from_log, train_minibatch, NeuralConfig, TEmbedding};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_tensor::{Activation, Graph, Matrix, Mlp, ParamStore};
use selnet_workload::Workload;

/// A trained DNN estimator.
pub struct DnnEstimator {
    store: ParamStore,
    emb: TEmbedding,
    net: Mlp,
    dim: usize,
    log_eps: f32,
    name: String,
}

/// Replicates one query row for batched threshold evaluation.
pub(crate) fn replicate(x: &[f32], rows: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, x.len());
    for i in 0..rows {
        m.row_mut(i).copy_from_slice(x);
    }
    m
}

impl DnnEstimator {
    /// Trains the DNN on a workload.
    pub fn fit(ds: &Dataset, workload: &Workload, cfg: &NeuralConfig) -> Self {
        let dim = ds.dim();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let emb = TEmbedding::new(&mut store, "temb", cfg.t_embed, &mut rng);
        let mut widths = vec![dim + cfg.t_embed];
        widths.extend_from_slice(&cfg.hidden);
        widths.push(1);
        let net = Mlp::new(
            &mut store,
            "dnn",
            &widths,
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );

        let emb_f = emb.clone();
        let net_f = net.clone();
        let emb_p = emb.clone();
        let net_p = net.clone();
        let log_eps = cfg.log_eps;
        train_minibatch(
            &mut store,
            &workload.train,
            &workload.valid,
            cfg,
            dim,
            move |g, s, x, t| {
                let te = emb_f.forward(g, s, t);
                let input = g.concat_cols(x, te);
                (net_f.forward(g, s, input), true)
            },
            move |s, x, ts| {
                let mut g = Graph::new();
                let xv = g.leaf(replicate(x, ts.len()));
                let tv = g.leaf(Matrix::col_vector(ts));
                let te = emb_p.forward(&mut g, s, tv);
                let input = g.concat_cols(xv, te);
                let out = net_p.forward(&mut g, s, input);
                g.value(out)
                    .data()
                    .iter()
                    .map(|&z| from_log(z as f64, log_eps))
                    .collect()
            },
            |_| {},
        );
        DnnEstimator {
            store,
            emb,
            net,
            dim,
            log_eps,
            name: "DNN".into(),
        }
    }
}

impl SelectivityEstimator for DnnEstimator {
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        self.estimate_many(x, &[t])[0]
    }

    fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let mut g = Graph::new();
        let xv = g.leaf(replicate(x, ts.len()));
        let tv = g.leaf(Matrix::col_vector(ts));
        let te = self.emb.forward(&mut g, &self.store, tv);
        let input = g.concat_cols(xv, te);
        let out = self.net.forward(&mut g, &self.store, input);
        g.value(out)
            .data()
            .iter()
            .map(|&z| from_log(z as f64, self.log_eps))
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_eval::evaluate;
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
}
