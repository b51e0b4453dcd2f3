//! Training of the single (non-partitioned) SelNet model: the estimation
//! loss of Eq. (2) (Huber on log-selectivities) combined with the
//! autoencoder term of Eq. (4), minimized with Adam; the parameters with
//! the smallest validation error are kept (Appendix B.2).

use crate::autoencoder::Autoencoder;
use crate::config::{LossKind, SelNetConfig};
use crate::model::{ControlPointNets, SelNetModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_tensor::{Adam, Graph, Optimizer, ParamStore};
use selnet_workload::{LabeledQuery, Workload};

/// Per-epoch training diagnostics.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_train_loss: Vec<f64>,
    /// Validation MAE per epoch.
    pub epoch_val_mae: Vec<f64>,
    /// Index of the epoch whose parameters were kept.
    pub best_epoch: usize,
}

/// Flattened `(x, t, log(y+eps))` training pairs.
pub(crate) struct FlatPairs<'a> {
    pub x: Vec<&'a [f32]>,
    pub t: Vec<f32>,
    pub ylog: Vec<f32>,
}

pub(crate) fn flatten_pairs<'a>(split: &'a [LabeledQuery], log_eps: f32) -> FlatPairs<'a> {
    let mut x = Vec::new();
    let mut t = Vec::new();
    let mut ylog = Vec::new();
    for q in split {
        for (i, &ti) in q.thresholds.iter().enumerate() {
            x.push(q.x.as_slice());
            t.push(ti);
            ylog.push((q.selectivities[i] as f32 + log_eps).ln());
        }
    }
    FlatPairs { x, t, ylog }
}

/// Records the batch `(x, t, ylog)` leaves for the given pair indices
/// directly on the (reused) tape: the query rows are gathered in parallel
/// into the recycled leaf buffer, so batch assembly allocates nothing once
/// the tape is warm.
pub(crate) fn batch_leaves(
    g: &mut Graph,
    pairs: &FlatPairs<'_>,
    order: &[usize],
    dim: usize,
) -> (selnet_tensor::Var, selnet_tensor::Var, selnet_tensor::Var) {
    let b = order.len();
    let threads = selnet_tensor::parallel::configured_threads();
    let xv = g.leaf_with(b, dim, |data| {
        selnet_tensor::parallel::par_fill_rows(data, dim, threads, |bi, row| {
            row.copy_from_slice(pairs.x[order[bi]])
        });
    });
    let tv = g.leaf_with(b, 1, |data| {
        for (o, &i) in data.iter_mut().zip(order) {
            *o = pairs.t[i];
        }
    });
    let yv = g.leaf_with(b, 1, |data| {
        for (o, &i) in data.iter_mut().zip(order) {
            *o = pairs.ylog[i];
        }
    });
    (xv, tv, yv)
}

/// Records the configured loss (§5.1 design choice) on log residuals.
pub(crate) fn apply_loss(
    g: &mut Graph,
    residual: selnet_tensor::Var,
    loss: LossKind,
    delta: f32,
) -> selnet_tensor::Var {
    match loss {
        LossKind::Huber => g.huber(residual, delta),
        LossKind::L2 => {
            let sq = g.square(residual);
            g.scale(sq, 0.5)
        }
        LossKind::L1 => g.abs(residual),
    }
}

/// Mean absolute error of `predict` over a labeled split, parallelized
/// over queries (per-query sums are reduced in query order, so the result
/// is independent of the thread count). Shared by the single-model and
/// partitioned validation paths.
///
/// Returns `f64::INFINITY` for an empty split: the seed returned `0.0`,
/// which made the training loops lock in the earliest parameters as
/// "best" and store a bogus drift reference of 0.
pub(crate) fn mean_abs_error<F>(split: &[LabeledQuery], predict: F) -> f64
where
    F: Fn(&LabeledQuery) -> Vec<f64> + Sync,
{
    if split.is_empty() {
        return f64::INFINITY;
    }
    let threads = selnet_tensor::parallel::configured_threads();
    let per_query = selnet_tensor::parallel::par_map_indexed(split.len(), threads, 4, |qi| {
        let q = &split[qi];
        let abs: f64 = predict(q)
            .iter()
            .zip(&q.selectivities)
            .map(|(p, &y)| (p - y).abs())
            .sum();
        (abs, q.thresholds.len())
    });
    let mut abs = 0.0f64;
    let mut n = 0usize;
    for (a, c) in per_query {
        abs += a;
        n += c;
    }
    abs / n.max(1) as f64
}

/// [`mean_abs_error`] of the current parameters on a validation split.
pub(crate) fn validation_mae(model: &SelNetModel, split: &[LabeledQuery]) -> f64 {
    mean_abs_error(split, |q| model.predict_many(&q.x, &q.thresholds))
}

/// Trains a fresh SelNet model (no data partitioning — the `SelNet-ct`
/// configuration, or `SelNet-ad-ct` when
/// [`SelNetConfig::query_dependent_tau`] is off).
pub fn fit(ds: &Dataset, workload: &Workload, cfg: &SelNetConfig) -> (SelNetModel, TrainReport) {
    let name = if cfg.query_dependent_tau {
        "SelNet-ct"
    } else {
        "SelNet-ad-ct"
    };
    fit_named(ds, workload, cfg, name)
}

/// Like [`fit`] but with an explicit model name (used by the harness).
pub fn fit_named(
    ds: &Dataset,
    workload: &Workload,
    cfg: &SelNetConfig,
    name: &str,
) -> (SelNetModel, TrainReport) {
    let dim = ds.dim();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let ae = Autoencoder::new(
        &mut store,
        "ae",
        dim,
        &cfg.ae_hidden,
        cfg.latent_dim,
        &mut rng,
    );
    let nets = ControlPointNets::new(&mut store, "net", dim + cfg.latent_dim, cfg, &mut rng);

    // ---- AE pretraining: database objects, then training queries ----
    ae.pretrain(
        &mut store,
        ds,
        cfg.ae_pretrain_epochs,
        cfg.batch_size,
        cfg.ae_pretrain_sample,
        cfg.learning_rate,
        cfg.seed ^ 0x5e1f,
    );
    if !workload.train.is_empty() {
        let queries = Dataset::from_rows(
            dim,
            &workload
                .train
                .iter()
                .map(|q| q.x.clone())
                .collect::<Vec<_>>(),
        );
        ae.pretrain(
            &mut store,
            &queries,
            (cfg.ae_pretrain_epochs / 2).max(1),
            cfg.batch_size,
            cfg.ae_pretrain_sample,
            cfg.learning_rate,
            cfg.seed ^ 0xae,
        );
    }

    let mut model = SelNetModel {
        cfg: cfg.clone(),
        dim,
        tmax: workload.tmax,
        store,
        ae,
        nets,
        name: name.to_string(),
        reference_val_mae: f64::MAX,
        plans: crate::plans::PlanCell::new(),
    };

    let report = train_loop(
        &mut model,
        &workload.train,
        &workload.valid,
        cfg.epochs,
        &mut rng,
    );
    (model, report)
}

/// The core mini-batch loop, shared by initial training and the §5.4
/// incremental update. Keeps the parameters with the smallest validation
/// MAE and stores that MAE as the model's reference.
///
/// One arena tape is reused for every batch of every epoch
/// ([`Graph::reset`] keeps the buffers), and gradients flow to Adam as
/// borrows — after the first batch a step performs no per-op matrix
/// allocations.
pub(crate) fn train_loop(
    model: &mut SelNetModel,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    epochs: usize,
    rng: &mut StdRng,
) -> TrainReport {
    let cfg = model.cfg.clone();
    let pairs = flatten_pairs(train, cfg.log_eps);
    let n = pairs.t.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut opt = Adam::new(cfg.learning_rate).with_clip(1.0);
    let mut report = TrainReport::default();
    let mut best_mae = f64::MAX;
    let mut best_store = model.store.clone();
    let mut g = Graph::new();

    for epoch in 0..epochs {
        // shuffle
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            g.reset();
            let (xv, tv, yv) = batch_leaves(&mut g, &pairs, chunk, model.dim);
            let (tau, p, z) = model.forward_control_points(&mut g, &model.store, xv);
            let yhat = g.pwl_interp(tau, p, tv);
            let yhat_log = g.ln_eps(yhat, cfg.log_eps);
            let r = g.sub(yhat_log, yv);
            let per_pair = apply_loss(&mut g, r, cfg.loss, cfg.huber_delta);
            let est_loss = g.mean(per_pair);
            // autoencoder reconstruction on this batch (Eq. 4)
            let recon = model.ae.decode(&mut g, &model.store, z);
            let dx = g.sub(recon, xv);
            let sq = g.square(dx);
            let ae_loss = g.mean(sq);
            let ae_scaled = g.scale(ae_loss, cfg.lambda_ae);
            let loss = g.add(est_loss, ae_scaled);
            g.backward_params(loss);
            epoch_loss += g.value(loss).get(0, 0) as f64;
            batches += 1;
            let grads = g.param_grad_refs();
            opt.step_refs(&mut model.store, &grads);
        }
        let mean_train_loss = epoch_loss / batches.max(1) as f64;
        report.epoch_train_loss.push(mean_train_loss);
        let mae = validation_mae(model, valid);
        report.epoch_val_mae.push(mae);
        // With an empty validation split the MAE is infinite every epoch;
        // fall back to selecting on training loss so "best" tracks
        // learning instead of freezing the earliest parameters.
        let selection = if valid.is_empty() {
            mean_train_loss
        } else {
            mae
        };
        if selection < best_mae {
            best_mae = selection;
            best_store = model.store.clone();
            report.best_epoch = epoch;
        }
    }
    if best_mae.is_finite() {
        model.store = best_store;
        if !valid.is_empty() {
            // only a real validation MAE may serve as the §5.4 drift
            // reference
            model.reference_val_mae = best_mae;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_eval::{evaluate, SelectivityEstimator};
    use selnet_metric::DistanceKind;
    use selnet_workload::{generate_workload, WorkloadConfig};

    fn fixture() -> (Dataset, Workload) {
        let ds = fasttext_like(&GeneratorConfig::new(2000, 6, 4, 7));
        let cfg = WorkloadConfig {
            num_queries: 60,
            thresholds_per_query: 12,
            kind: DistanceKind::Euclidean,
            scheme: selnet_workload::ThresholdScheme::GeometricSelectivity,
            seed: 1,
            threads: 4,
        };
        let w = generate_workload(&ds, &cfg);
        (ds, w)
    }

    #[test]
    fn training_reduces_validation_mae() {
        let (ds, w) = fixture();
        let cfg = SelNetConfig::tiny();
        let (model, report) = fit(&ds, &w, &cfg);
        assert_eq!(report.epoch_val_mae.len(), cfg.epochs);
        let first = report.epoch_val_mae[0];
        let best = report.epoch_val_mae[report.best_epoch];
        assert!(best < first, "val MAE should improve: {first} -> {best}");
        assert!(model.reference_val_mae.is_finite());
    }

    #[test]
    fn trained_model_beats_constant_predictor() {
        let (ds, w) = fixture();
        let (model, _) = fit(&ds, &w, &SelNetConfig::tiny());
        let metrics = evaluate(&model, &w.test);

        // constant predictor at the mean label
        let mean_label: f64 = {
            let flat = Workload::flatten(&w.train);
            flat.iter().map(|f| f.2).sum::<f64>() / flat.len() as f64
        };
        struct Const(f64);
        impl SelectivityEstimator for Const {
            fn estimate(&self, _: &[f32], _: f32) -> f64 {
                self.0
            }
            fn name(&self) -> &str {
                "const"
            }
        }
        let baseline = evaluate(&Const(mean_label), &w.test);
        // The Huber-on-log loss optimizes *relative* error (§5.1), so MAPE
        // is the primary learned-signal check. Since the PR-4
        // hyperparameter pass (batch 96, 20 epochs, lr 4e-3) the tiny
        // model also beats the mean-label constant on raw-scale MSE — a
        // strictly harder bar, because that constant is the MSE-optimal
        // constant predictor.
        assert!(
            metrics.mape < baseline.mape,
            "SelNet MAPE {} should beat constant {}",
            metrics.mape,
            baseline.mape
        );
        assert!(
            metrics.mse < baseline.mse,
            "SelNet MSE {} should beat the MSE-optimal constant {}",
            metrics.mse,
            baseline.mse
        );
    }

    /// Regression: with an empty validation split, `validation_mae`
    /// returned 0.0, so the loop froze the epoch-0 parameters as "best"
    /// and stored a bogus drift reference of 0.
    #[test]
    fn empty_validation_split_selects_on_training_loss() {
        let (ds, mut w) = fixture();
        w.valid.clear();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 6;
        let (model, report) = fit(&ds, &w, &cfg);
        assert!(
            report.epoch_val_mae.iter().all(|m| m.is_infinite()),
            "empty split must yield infinite MAE, got {:?}",
            report.epoch_val_mae
        );
        // best epoch tracks the training-loss minimum instead of epoch 0
        let argmin = report
            .epoch_train_loss
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite losses"))
            .expect("has epochs")
            .0;
        assert_eq!(report.best_epoch, argmin);
        // and the §5.4 drift reference is not silently set to 0
        assert_eq!(model.reference_val_mae, f64::MAX);
    }

    #[test]
    fn trained_model_remains_consistent() {
        let (ds, w) = fixture();
        let (model, _) = fit(&ds, &w, &SelNetConfig::tiny());
        let score = selnet_eval::empirical_monotonicity(&model, &w.test, 10, 50, w.tmax);
        assert_eq!(score, 100.0);
    }
}
