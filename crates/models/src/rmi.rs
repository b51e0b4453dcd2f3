//! Recursive Model Index (the RMI baseline, Kraska et al.): a hierarchy of
//! small FFNs trained stage by stage. Each stage's prediction routes the
//! input to one model of the next stage; the leaf model's prediction is the
//! answer. Trained in log space like the other regressors.

use crate::common::{
    arena_train_step, flatten, forward_rows, from_log, stack, Network, NeuralConfig, Pairs,
    TEmbedding,
};
use crate::dnn::Dnn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_tensor::{Adam, Graph, ParamStore};
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

/// A trained RMI estimator. It serves itself rather than as a
/// [`crate::common::Regressor`]: each `(x, t)` row routes down the stages
/// on its own.
pub struct RmiEstimator {
    store: ParamStore,
    /// The stage models: DNNs sharing one threshold embedding.
    stages: Vec<Vec<Dnn>>,
    /// Log-space label range used for routing.
    zmin: f32,
    zmax: f32,
    log_eps: f32,
}

impl RmiEstimator {
    fn route(&self, z: f32, next_size: usize) -> usize {
        let span = (self.zmax - self.zmin).max(1e-6);
        let frac = ((z - self.zmin) / span).clamp(0.0, 1.0);
        ((frac * next_size as f32) as usize).min(next_size - 1)
    }

    /// The rows routed to each model of a stage of `size` models, by the
    /// outputs `z` of the stage before, in row order.
    fn route_rows(&self, z: &[f32], size: usize) -> Vec<Vec<usize>> {
        let mut buckets = vec![Vec::new(); size];
        for (r, &z) in z.iter().enumerate() {
            buckets[self.route(z, size)].push(r);
        }
        buckets
    }

    /// Runs each model of `stage` with a non-empty bucket once, over the
    /// rows `(xs[r], ts[r])` of its bucket (the buckets cover every row);
    /// returns each row's output.
    fn forward_stage(
        &self,
        stage: &[Dnn],
        buckets: &[Vec<usize>],
        xs: &[&[f32]],
        ts: &[f32],
    ) -> Vec<f32> {
        let mut z = vec![0.0; ts.len()];
        for (net, rows) in stage.iter().zip(buckets).filter(|(_, r)| !r.is_empty()) {
            let sub_xs: Vec<&[f32]> = rows.iter().map(|&r| xs[r]).collect();
            let sub_ts: Vec<f32> = rows.iter().map(|&r| ts[r]).collect();
            let sub_z = forward_rows(net, &self.store, &sub_xs, &sub_ts);
            for (&r, sub_z) in rows.iter().zip(sub_z) {
                z[r] = sub_z;
            }
        }
        z
    }

    /// Clamps a log-space prediction to the training label range (with a
    /// small margin) — leaf models trained on tiny routing buckets can
    /// otherwise extrapolate wildly.
    fn clamp_z(&self, z: f32) -> f32 {
        z.clamp(self.zmin - 1.0, self.zmax + 1.0)
    }

    /// Trains the hierarchy stage by stage.
    pub fn fit(ds: &Dataset, workload: &Workload, cfg: &RmiConfig) -> Self {
        let dim = ds.dim();
        let mut rng = StdRng::seed_from_u64(cfg.base.seed);
        let mut store = ParamStore::new();
        let emb = TEmbedding::new(&mut store, "temb", cfg.base.t_embed, &mut rng);
        let stages: Vec<Vec<Dnn>> = cfg
            .stage_sizes
            .iter()
            .enumerate()
            .map(|(s, &size)| {
                (0..size.max(1))
                    .map(|i| {
                        let name = format!("s{s}m{i}");
                        Dnn::new(&mut store, &name, emb.clone(), dim, &cfg.base, &mut rng)
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
            stages,
            zmin,
            zmax,
            log_eps: cfg.base.log_eps,
        };

        // the pairs each model of a stage trains on; stage 0's model 0
        // takes them all
        let mut buckets = vec![(0..n).collect::<Vec<usize>>()];
        let epochs_per_stage = (cfg.base.epochs / cfg.stage_sizes.len().max(1)).max(1);
        for s in 0..model.stages.len() {
            for (net, bucket) in model.stages[s].iter().zip(&buckets) {
                if bucket.is_empty() {
                    continue;
                }
                train_pairs_subset(
                    &mut model.store,
                    net,
                    &pairs,
                    bucket,
                    epochs_per_stage,
                    &cfg.base,
                    &mut rng,
                );
            }
            // route the pairs to the next stage
            if s + 1 < model.stages.len() {
                let z = model.forward_stage(&model.stages[s], &buckets, &pairs.x, &pairs.t);
                buckets = model.route_rows(&z, model.stages[s + 1].len());
            }
        }
        model
    }
}

/// Trains one sub-model on a subset of pairs (Huber on logs): the
/// baselines' one training step, [`arena_train_step`], over one arena
/// tape reused across all batches and epochs.
fn train_pairs_subset(
    store: &mut ParamStore,
    net: &Dnn,
    pairs: &Pairs<'_>,
    subset: &[usize],
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
            arena_train_step(&mut g, store, &mut opt, pairs, chunk, cfg, net);
        }
    }
}

impl SelectivityEstimator for RmiEstimator {
    /// Stage 0 runs once over the wave's stacked `(x, t)` rows; each
    /// later-stage model then runs once, over the rows routed to it.
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        let (xs, ts) = stack(queries, self.stages[0][0].dim());
        let mut z = forward_rows(&self.stages[0][0], &self.store, &xs, &ts);
        for stage in &self.stages[1..] {
            let buckets = self.route_rows(&z, stage.len());
            z = self.forward_stage(stage, &buckets, &xs, &ts);
        }
        out.clear();
        out.extend(
            z.into_iter()
                .map(|z| from_log(self.clamp_z(z) as f64, self.log_eps)),
        );
    }

    fn name(&self) -> &str {
        "RMI"
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
