//! Shared plumbing for the neural baselines: the learned threshold
//! embedding `t ↦ ReLU(w t)` (Appendix B.2 — "DNN, MoE and RMI cannot
//! directly handle the threshold t"), flattened training pairs, and a
//! generic mini-batch trainer with validation-based model selection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_tensor::{Adam, Graph, Matrix, Optimizer, ParamStore, Var};
use selnet_workload::LabeledQuery;

/// One arena-tape training step shared by the baseline trainers: reset the
/// tape, gather the batch leaves in place, record `forward`, apply the
/// Huber-on-(log-)residual loss, and feed Adam **borrowed** gradients.
/// After the first batch this performs no per-op matrix allocations (the
/// PR 3 tape lifecycle), and it is bit-identical to the old
/// fresh-`Graph`-per-batch step (pinned by `tests/arena_trainer.rs`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn arena_train_step(
    g: &mut Graph,
    store: &mut ParamStore,
    opt: &mut Adam,
    pairs: &Pairs<'_>,
    chunk: &[usize],
    dim: usize,
    cfg: &NeuralConfig,
    forward: &mut impl FnMut(&mut Graph, &ParamStore, Var, Var) -> (Var, bool),
) {
    g.reset();
    let (xv, tv, yv) = batch_leaves(g, pairs, chunk, dim);
    let (pred, is_log) = forward(g, store, xv, tv);
    let pred_log = if is_log {
        pred
    } else {
        g.ln_eps(pred, cfg.log_eps)
    };
    let r = g.sub(pred_log, yv);
    let h = g.huber(r, cfg.huber_delta);
    let loss = g.mean(h);
    g.backward_params(loss);
    let grads = g.param_grad_refs();
    opt.step_refs(store, &grads);
}

/// Hyper-parameters shared by the neural baselines.
#[derive(Clone, Debug)]
pub struct NeuralConfig {
    /// Hidden widths of the main FFN (paper: 512/512/512/256; scaled).
    pub hidden: Vec<usize>,
    /// Width of the learned threshold embedding.
    pub t_embed: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Huber δ.
    pub huber_delta: f32,
    /// Log padding ε.
    pub log_eps: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NeuralConfig {
    fn default() -> Self {
        NeuralConfig {
            hidden: vec![128, 128, 64],
            t_embed: 16,
            learning_rate: 1e-3,
            epochs: 40,
            batch_size: 256,
            huber_delta: 1.345,
            log_eps: 1.0,
            seed: 42,
        }
    }
}

impl NeuralConfig {
    /// A small fast configuration for tests.
    pub fn tiny() -> Self {
        NeuralConfig {
            hidden: vec![32, 16],
            t_embed: 8,
            epochs: 15,
            batch_size: 128,
            learning_rate: 3e-3,
            ..Default::default()
        }
    }
}

/// The learned threshold embedding `t ↦ ReLU(W t + b)`.
#[derive(Clone, Debug)]
pub struct TEmbedding {
    linear: selnet_tensor::Linear,
}

impl TEmbedding {
    /// Registers the embedding in `store`.
    pub fn new(store: &mut ParamStore, name: &str, width: usize, rng: &mut impl Rng) -> Self {
        TEmbedding {
            linear: selnet_tensor::Linear::new(store, name, 1, width, rng),
        }
    }

    /// Records the forward pass (`t` is an `R x 1` column).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, t: Var) -> Var {
        let h = self.linear.forward(g, store, t);
        g.relu(h)
    }
}

/// Flattened `(x, t, log(y+eps))` pairs.
pub struct Pairs<'a> {
    /// Query vectors (borrowed).
    pub x: Vec<&'a [f32]>,
    /// Thresholds.
    pub t: Vec<f32>,
    /// Log-space targets.
    pub ylog: Vec<f32>,
}

/// Flattens a split for training.
pub fn flatten<'a>(split: &'a [LabeledQuery], log_eps: f32) -> Pairs<'a> {
    let mut p = Pairs {
        x: Vec::new(),
        t: Vec::new(),
        ylog: Vec::new(),
    };
    for q in split {
        for (i, &t) in q.thresholds.iter().enumerate() {
            p.x.push(q.x.as_slice());
            p.t.push(t);
            p.ylog.push((q.selectivities[i] as f32 + log_eps).ln());
        }
    }
    p
}

/// Assembles batch matrices for the given pair indices (allocating; kept
/// for callers outside a training loop). Hot loops use
/// [`batch_leaves`], which gathers straight into a reused tape's recycled
/// buffers instead.
pub fn batch(pairs: &Pairs<'_>, order: &[usize], dim: usize) -> (Matrix, Matrix, Matrix) {
    let b = order.len();
    let mut xb = Vec::with_capacity(b * dim);
    let mut tb = Vec::with_capacity(b);
    let mut yb = Vec::with_capacity(b);
    for &i in order {
        xb.extend_from_slice(pairs.x[i]);
        tb.push(pairs.t[i]);
        yb.push(pairs.ylog[i]);
    }
    (
        Matrix::from_vec(b, dim, xb),
        Matrix::col_vector(&tb),
        Matrix::col_vector(&yb),
    )
}

/// Records the batch `(x, t, ylog)` leaves for the given pair indices
/// directly on a (reused) tape — the arena-lifecycle counterpart of
/// [`batch`]: once the tape is warm, batch assembly touches the allocator
/// not at all, and the leaf values are bit-identical to the allocating
/// path.
pub fn batch_leaves(
    g: &mut Graph,
    pairs: &Pairs<'_>,
    order: &[usize],
    dim: usize,
) -> (Var, Var, Var) {
    let b = order.len();
    let xv = g.leaf_with(b, dim, |data| {
        for (row, &i) in data.chunks_mut(dim.max(1)).zip(order) {
            row.copy_from_slice(pairs.x[i]);
        }
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

/// Generic mini-batch trainer. `forward` records the model and returns the
/// prediction; `pred_is_log` says whether it is already in log space (else
/// `ln(max(·,0)+ε)` is applied before the Huber loss). `post_step` runs
/// after every optimizer step (parameter projections). `predict` maps
/// `(store, x, ts)` to selectivity predictions for validation. The
/// parameters with the smallest validation MAE are kept; returns the
/// per-epoch validation MAE history.
///
/// One arena tape is reused across every batch of every epoch
/// ([`Graph::reset`] keeps the buffers) and gradients reach Adam as
/// borrows — the PR 3 tape lifecycle, bit-identical to the old
/// fresh-`Graph`-per-batch loop (pinned by `tests/arena_trainer.rs`).
#[allow(clippy::too_many_arguments)]
pub fn train_minibatch(
    store: &mut ParamStore,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    cfg: &NeuralConfig,
    dim: usize,
    mut forward: impl FnMut(&mut Graph, &ParamStore, Var, Var) -> (Var, bool),
    predict: impl Fn(&ParamStore, &[f32], &[f32]) -> Vec<f64>,
    mut post_step: impl FnMut(&mut ParamStore),
) -> Vec<f64> {
    let pairs = flatten(train, cfg.log_eps);
    let n = pairs.t.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
    let mut opt = Adam::new(cfg.learning_rate).with_clip(1.0);
    let mut best_mae = f64::MAX;
    let mut best_store = store.clone();
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut g = Graph::new();

    for _ in 0..cfg.epochs {
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            arena_train_step(
                &mut g,
                store,
                &mut opt,
                &pairs,
                chunk,
                dim,
                cfg,
                &mut forward,
            );
            post_step(store);
        }
        // validation MAE with current parameters
        let mut abs = 0.0f64;
        let mut cnt = 0usize;
        for q in valid {
            let preds = predict(store, &q.x, &q.thresholds);
            for (p, &y) in preds.iter().zip(&q.selectivities) {
                abs += (p - y).abs();
                cnt += 1;
            }
        }
        let mae = abs / cnt.max(1) as f64;
        history.push(mae);
        if mae < best_mae {
            best_mae = mae;
            best_store = store.clone();
        }
    }
    if best_mae.is_finite() && best_mae < f64::MAX {
        store.copy_from(&best_store);
    }
    history
}

/// Exponentiates a log-space prediction back to a selectivity.
pub fn from_log(z: f64, log_eps: f32) -> f64 {
    (z.min(60.0).exp() - log_eps as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_tensor::{Activation, Mlp};

    #[test]
    fn t_embedding_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = TEmbedding::new(&mut store, "t", 8, &mut rng);
        let mut g = Graph::new();
        let t = g.leaf(Matrix::col_vector(&[0.1, 0.2, 0.3]));
        let e = emb.forward(&mut g, &store, t);
        assert_eq!(g.value(e).shape(), (3, 8));
        assert!(g.value(e).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn trainer_fits_simple_log_model() {
        // one query, labels linear in t: y = 100 t; an MLP on [x, emb(t)]
        // trained in log space should get close
        let q = LabeledQuery {
            x: vec![0.5, -0.5],
            thresholds: (1..40).map(|i| i as f32 * 0.1).collect(),
            selectivities: (1..40).map(|i| (i as f64) * 10.0).collect(),
        };
        let train = vec![q.clone()];
        let valid = vec![q.clone()];
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cfg = NeuralConfig {
            epochs: 250,
            learning_rate: 1e-2,
            ..NeuralConfig::tiny()
        };
        let emb = TEmbedding::new(&mut store, "t", cfg.t_embed, &mut rng);
        let net = Mlp::new(
            &mut store,
            "net",
            &[2 + cfg.t_embed, 32, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        let log_eps = cfg.log_eps;
        let emb2 = emb.clone();
        let net2 = net.clone();
        let history = train_minibatch(
            &mut store,
            &train,
            &valid,
            &cfg,
            2,
            |g, s, x, t| {
                let te = emb.forward(g, s, t);
                let input = g.concat_cols(x, te);
                (net.forward(g, s, input), true)
            },
            |s, x, ts| {
                let mut g = Graph::new();
                let xv = g.leaf(Matrix::row_vector(x));
                // broadcast x across thresholds
                let mut xr = Matrix::zeros(ts.len(), x.len());
                for i in 0..ts.len() {
                    xr.row_mut(i).copy_from_slice(g.value(xv).row(0));
                }
                let mut g = Graph::new();
                let xv = g.leaf(xr);
                let tv = g.leaf(Matrix::col_vector(ts));
                let te = emb2.forward(&mut g, s, tv);
                let input = g.concat_cols(xv, te);
                let out = net2.forward(&mut g, s, input);
                g.value(out)
                    .data()
                    .iter()
                    .map(|&z| from_log(z as f64, log_eps))
                    .collect()
            },
            |_| {},
        );
        let first = history[0];
        let last = history.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            last < first * 0.6,
            "training should substantially reduce val MAE: {first} -> {last}"
        );
    }
}
