//! Recursive Model Index (the RMI baseline, Kraska et al.): a hierarchy of
//! small FFNs trained stage by stage. Each stage's prediction routes the
//! input to one model of the next stage; the leaf model's prediction is the
//! answer. Trained in log space like the other regressors.

use crate::common::{flatten, from_log, NeuralConfig, TEmbedding};
use crate::dnn::replicate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_tensor::{Activation, Adam, Graph, Matrix, Mlp, Optimizer, ParamStore};
use selnet_workload::Workload;

/// RMI hyper-parameters.
#[derive(Clone, Debug)]
pub struct RmiConfig {
    /// Shared neural settings.
    pub base: NeuralConfig,
    /// Models per stage (paper: `[1, 4, 8]`).
    pub stage_sizes: Vec<usize>,
}

impl Default for RmiConfig {
    fn default() -> Self {
        RmiConfig {
            base: NeuralConfig::default(),
            stage_sizes: vec![1, 4, 8],
        }
    }
}

impl RmiConfig {
    /// Small fast configuration for tests.
    pub fn tiny() -> Self {
        RmiConfig {
            base: NeuralConfig::tiny(),
            stage_sizes: vec![1, 2, 4],
        }
    }
}

/// A trained RMI estimator.
pub struct RmiEstimator {
    store: ParamStore,
    emb: TEmbedding,
    stages: Vec<Vec<Mlp>>,
    /// Log-space label range used for routing.
    zmin: f32,
    zmax: f32,
    dim: usize,
    log_eps: f32,
    name: String,
}

impl RmiEstimator {
    fn route(&self, z: f32, next_size: usize) -> usize {
        let span = (self.zmax - self.zmin).max(1e-6);
        let frac = ((z - self.zmin) / span).clamp(0.0, 1.0);
        ((frac * next_size as f32) as usize).min(next_size - 1)
    }

    fn forward_one(&self, store: &ParamStore, x: &[f32], t: f32) -> f32 {
        let mut g = Graph::new();
        let xv = g.leaf(Matrix::row_vector(x));
        let tv = g.leaf(Matrix::full(1, 1, t));
        let te = self.emb.forward(&mut g, store, tv);
        let input = g.concat_cols(xv, te);
        let mut idx = 0usize;
        let mut z = 0.0f32;
        for (s, stage) in self.stages.iter().enumerate() {
            let out = stage[idx].forward(&mut g, store, input);
            z = g.value(out).get(0, 0);
            if s + 1 < self.stages.len() {
                idx = self.route(z, self.stages[s + 1].len());
            }
        }
        z
    }

    /// Trains the hierarchy stage by stage.
    pub fn fit(ds: &Dataset, workload: &Workload, cfg: &RmiConfig) -> Self {
        let dim = ds.dim();
        let mut rng = StdRng::seed_from_u64(cfg.base.seed);
        let mut store = ParamStore::new();
        let emb = TEmbedding::new(&mut store, "temb", cfg.base.t_embed, &mut rng);
        let in_dim = dim + cfg.base.t_embed;
        let stages: Vec<Vec<Mlp>> = cfg
            .stage_sizes
            .iter()
            .enumerate()
            .map(|(s, &size)| {
                (0..size.max(1))
                    .map(|i| {
                        let mut widths = vec![in_dim];
                        widths.extend_from_slice(&cfg.base.hidden);
                        widths.push(1);
                        Mlp::new(
                            &mut store,
                            &format!("s{s}m{i}"),
                            &widths,
                            Activation::Relu,
                            Activation::Linear,
                            &mut rng,
                        )
                    })
                    .collect()
            })
            .collect();

        let pairs = flatten(&workload.train, cfg.base.log_eps);
        let n = pairs.t.len();
        let zmin = pairs.ylog.iter().cloned().fold(f32::MAX, f32::min);
        let zmax = pairs.ylog.iter().cloned().fold(f32::MIN, f32::max);

        let mut model = RmiEstimator {
            store,
            emb,
            stages,
            zmin,
            zmax,
            dim,
            log_eps: cfg.base.log_eps,
            name: "RMI".into(),
        };

        // assignment of each pair to a model per stage; stage 0 -> model 0
        let mut assignment: Vec<usize> = vec![0; n];
        let epochs_per_stage = (cfg.base.epochs / cfg.stage_sizes.len().max(1)).max(1);
        for s in 0..model.stages.len() {
            let num_models = model.stages[s].len();
            // gather pair indices per model of this stage
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); num_models];
            for (i, &m) in assignment.iter().enumerate() {
                buckets[m.min(num_models - 1)].push(i);
            }
            // train each model of this stage on its bucket
            for (mi, bucket) in buckets.iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                train_pairs_subset(
                    &mut model.store,
                    &model.emb,
                    &model.stages[s][mi],
                    &pairs,
                    bucket,
                    dim,
                    epochs_per_stage,
                    &cfg.base,
                    &mut rng,
                );
            }
            // compute routing for the next stage
            if s + 1 < model.stages.len() {
                let next = model.stages[s + 1].len();
                for (i, a) in assignment.iter_mut().enumerate() {
                    let pred = predict_submodel(
                        &model.store,
                        &model.emb,
                        &model.stages[s][(*a).min(num_models - 1)],
                        pairs.x[i],
                        pairs.t[i],
                    );
                    *a = model.route_static(pred, next);
                }
            }
        }
        model
    }

    fn route_static(&self, z: f32, next_size: usize) -> usize {
        self.route(z, next_size)
    }
}

fn predict_submodel(store: &ParamStore, emb: &TEmbedding, net: &Mlp, x: &[f32], t: f32) -> f32 {
    let mut g = Graph::new();
    let xv = g.leaf(Matrix::row_vector(x));
    let tv = g.leaf(Matrix::full(1, 1, t));
    let te = emb.forward(&mut g, store, tv);
    let input = g.concat_cols(xv, te);
    let out = net.forward(&mut g, store, input);
    g.value(out).get(0, 0)
}

/// Trains one sub-model on a subset of pairs (Huber on logs). One arena
/// tape is reused across all batches and epochs (the PR 3 lifecycle):
/// leaves gather in place, gradients reach Adam as borrows.
#[allow(clippy::too_many_arguments)]
fn train_pairs_subset(
    store: &mut ParamStore,
    emb: &TEmbedding,
    net: &Mlp,
    pairs: &crate::common::Pairs<'_>,
    subset: &[usize],
    dim: usize,
    epochs: usize,
    cfg: &NeuralConfig,
    rng: &mut StdRng,
) {
    let mut order: Vec<usize> = subset.to_vec();
    let mut opt = Adam::new(cfg.learning_rate).with_clip(1.0);
    let mut g = Graph::new();
    for _ in 0..epochs {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            g.reset();
            let (xv, tv, yv) = crate::common::batch_leaves(&mut g, pairs, chunk, dim);
            let te = emb.forward(&mut g, store, tv);
            let input = g.concat_cols(xv, te);
            let pred = net.forward(&mut g, store, input);
            let r = g.sub(pred, yv);
            let h = g.huber(r, cfg.huber_delta);
            let loss = g.mean(h);
            g.backward_params(loss);
            let grads = g.param_grad_refs();
            opt.step_refs(store, &grads);
        }
    }
}

impl RmiEstimator {
    /// Clamps a log-space prediction to the training label range (with a
    /// small margin) — leaf models trained on tiny routing buckets can
    /// otherwise extrapolate wildly.
    fn clamp_z(&self, z: f32) -> f32 {
        z.clamp(self.zmin - 1.0, self.zmax + 1.0)
    }
}

impl SelectivityEstimator for RmiEstimator {
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let z = self.forward_one(&self.store, x, t);
        from_log(self.clamp_z(z) as f64, self.log_eps)
    }

    fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        // the leaf model can differ per threshold; batch per unique leaf
        // is possible, but route-per-threshold stays simple and correct.
        // Batch the first stage since it is shared:
        let mut g = Graph::new();
        let xv = g.leaf(replicate(x, ts.len()));
        let tv = g.leaf(Matrix::col_vector(ts));
        let te = self.emb.forward(&mut g, &self.store, tv);
        let input = g.concat_cols(xv, te);
        let out0 = self.stages[0][0].forward(&mut g, &self.store, input);
        let z0: Vec<f32> = g.value(out0).data().to_vec();
        if self.stages.len() == 1 {
            return z0
                .iter()
                .map(|&z| from_log(self.clamp_z(z) as f64, self.log_eps))
                .collect();
        }
        ts.iter()
            .zip(&z0)
            .map(|(&t, &z_first)| {
                let mut idx = self.route(z_first, self.stages[1].len());
                let mut z = z_first;
                for s in 1..self.stages.len() {
                    z = predict_submodel(&self.store, &self.emb, &self.stages[s][idx], x, t);
                    if s + 1 < self.stages.len() {
                        idx = self.route(z, self.stages[s + 1].len());
                    }
                }
                from_log(self.clamp_z(z) as f64, self.log_eps)
            })
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
    fn rmi_trains_and_routes() {
        let ds = fasttext_like(&GeneratorConfig::new(1000, 6, 4, 19));
        let mut wcfg = WorkloadConfig::new(50, DistanceKind::Euclidean, 7);
        wcfg.thresholds_per_query = 8;
        wcfg.threads = 4;
        let w = generate_workload(&ds, &wcfg);
        let model = RmiEstimator::fit(&ds, &w, &RmiConfig::tiny());
        let m = evaluate(&model, &w.test);
        assert!(m.mse.is_finite() && m.count > 0);
        // estimate and estimate_many agree
        let q = &w.test[0];
        let many = model.estimate_many(&q.x, &q.thresholds);
        for (i, &t) in q.thresholds.iter().enumerate() {
            let one = model.estimate(&q.x, t);
            assert!((one - many[i]).abs() < 1e-6 * one.abs().max(1.0));
        }
    }

    #[test]
    fn routing_is_bounded() {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, 23));
        let mut wcfg = WorkloadConfig::new(20, DistanceKind::Euclidean, 9);
        wcfg.thresholds_per_query = 6;
        wcfg.threads = 2;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = RmiConfig::tiny();
        cfg.base.epochs = 4;
        let model = RmiEstimator::fit(&ds, &w, &cfg);
        for z in [-100.0f32, 0.0, 1.5, 100.0] {
            let r = model.route(z, 4);
            assert!(r < 4);
        }
    }
}
