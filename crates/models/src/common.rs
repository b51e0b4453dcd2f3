//! Shared plumbing for the neural baselines: the learned threshold
//! embedding `t ↦ ReLU(w t)` (Appendix B.2 — "DNN, MoE and RMI cannot
//! directly handle the threshold t"), flattened training pairs, the
//! [`Network`] trait each baseline implements with its architecture and
//! forward, the one mini-batch trainer over it with validation-based
//! model selection, and [`Regressor`], the one estimator that serves a
//! trained [`Network`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_eval::SelectivityEstimator;
use selnet_tensor::{Adam, Graph, Matrix, ParamStore, Var};
use selnet_workload::{LabeledQuery, Workload};

/// A neural baseline's architecture: parameter ids into a [`ParamStore`]
/// and the one forward pass over them, which training, validation and
/// serving all record.
pub trait Network {
    /// `forward` predicts `log(y + ε)`; otherwise it predicts the raw
    /// selectivity, and training takes `ln(max(·, 0) + ε)` of it.
    const LOG_SPACE: bool;
    /// The estimate is monotone in `t` by construction (the paper's `*`).
    const CONSISTENT: bool;

    /// Dimensionality of the query vectors.
    fn dim(&self) -> usize;

    /// Records the forward pass: `x` is `R x dim`, `t` is `R x 1`, the
    /// result `R x 1`.
    fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var, t: Var) -> Var;

    /// Runs after every optimizer step (parameter projections); does
    /// nothing by default.
    fn project(&self, _store: &mut ParamStore) {}
}

/// One arena-tape training step shared by the baseline trainers: reset the
/// tape, gather the batch leaves in place, record `net`'s forward, apply
/// the Huber-on-(log-)residual loss, and feed Adam **borrowed** gradients.
/// Returns the batch loss. After the first batch this performs no per-op
/// matrix allocations, and it is bit-identical to a fresh-`Graph`-per-batch
/// step (pinned by `tests/arena_trainer.rs`).
pub(crate) fn arena_train_step<N: Network>(
    g: &mut Graph,
    store: &mut ParamStore,
    opt: &mut Adam,
    pairs: &Pairs<'_>,
    chunk: &[usize],
    cfg: &NeuralConfig,
    net: &N,
) -> f64 {
    g.reset();
    let (xv, tv, yv) = batch_leaves(g, pairs, chunk, net.dim());
    let pred = net.forward(g, store, xv, tv);
    let pred_log = if N::LOG_SPACE {
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
    g.value(loss).get(0, 0) as f64
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

/// Assembles batch matrices for the given pair indices (allocating). Its
/// one caller is the fresh-`Graph`-per-batch reference trainer in
/// `tests/arena_trainer.rs`; the trainer uses [`batch_leaves`], which
/// gathers straight into a reused tape's recycled buffers instead.
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

/// Mini-batch trainer of `net`, whose parameters live in `store`. The
/// parameters with the smallest validation MAE are kept (with an empty
/// validation split, those of the epoch with the smallest mean training
/// loss); returns the per-epoch validation MAE history (infinite with an
/// empty split).
///
/// One arena tape is reused across every batch of every epoch
/// ([`Graph::reset`] keeps the buffers) and gradients reach Adam as
/// borrows, bit-identical to a fresh-`Graph`-per-batch loop (pinned by
/// `tests/arena_trainer.rs`).
pub fn train_minibatch<N: Network>(
    store: &mut ParamStore,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    cfg: &NeuralConfig,
    net: &N,
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
    let valid_wave: Vec<_> = valid.iter().map(LabeledQuery::query).collect();
    let mut preds = Vec::new();

    for _ in 0..cfg.epochs {
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            epoch_loss += arena_train_step(&mut g, store, &mut opt, &pairs, chunk, cfg, net);
            batches += 1;
            net.project(store);
        }
        // validation MAE with current parameters, the split as one wave
        predict_into(net, store, cfg.log_eps, &valid_wave, &mut preds);
        let truths = valid.iter().flat_map(|q| &q.selectivities);
        let mut abs = 0.0f64;
        for (p, &y) in preds.iter().zip(truths) {
            abs += (p - y).abs();
        }
        // With an empty validation split there is no MAE; select on the
        // epoch's mean training loss so "best" tracks learning instead of
        // freezing the first epoch's parameters.
        let (mae, selection) = if valid.is_empty() {
            (f64::INFINITY, epoch_loss / batches.max(1) as f64)
        } else {
            let mae = abs / preds.len().max(1) as f64;
            (mae, mae)
        };
        history.push(mae);
        if selection < best_mae {
            best_mae = selection;
            best_store = store.clone();
        }
    }
    if best_mae.is_finite() && best_mae < f64::MAX {
        *store = best_store;
    }
    history
}

/// A wave's `(x, t)` pairs stacked as rows `(xs[r], ts[r])` in query order;
/// asserts every object has `dim` coordinates.
pub(crate) fn stack<'a>(queries: &[(&'a [f32], &[f32])], dim: usize) -> (Vec<&'a [f32]>, Vec<f32>) {
    let mut xs = Vec::new();
    let mut ts = Vec::new();
    for &(x, qts) in queries {
        assert_eq!(x.len(), dim, "dimension mismatch");
        xs.extend(std::iter::repeat_n(x, qts.len()));
        ts.extend_from_slice(qts);
    }
    (xs, ts)
}

/// Records `net` on one tape over the rows `(xs[r], ts[r])`; returns its
/// outputs, one per row. Every op of a forward is row-wise, so a row's
/// output does not depend on the rows beside it.
pub(crate) fn forward_rows<N: Network>(
    net: &N,
    store: &ParamStore,
    xs: &[&[f32]],
    ts: &[f32],
) -> Vec<f32> {
    let mut g = Graph::new();
    let xv = g.leaf(Matrix::from_vec(xs.len(), net.dim(), xs.concat()));
    let tv = g.leaf(Matrix::col_vector(ts));
    let out = net.forward(&mut g, store, xv, tv);
    g.value(out).data().to_vec()
}

/// `net`'s answers to a wave into `out` (cleared first): one forward over
/// its stacked rows ([`stack`], [`forward_rows`]), mapped back from log
/// space ([`Network::LOG_SPACE`]) or clamped at zero.
pub(crate) fn predict_into<N: Network>(
    net: &N,
    store: &ParamStore,
    log_eps: f32,
    queries: &[(&[f32], &[f32])],
    out: &mut Vec<f64>,
) {
    let (xs, ts) = stack(queries, net.dim());
    out.clear();
    out.extend(forward_rows(net, store, &xs, &ts).into_iter().map(|z| {
        if N::LOG_SPACE {
            from_log(z as f64, log_eps)
        } else {
            (z as f64).max(0.0)
        }
    }));
}

/// A trained neural baseline: DNN, MoE, DLN and UMNN are each a
/// `Regressor` of their [`Network`].
pub struct Regressor<N> {
    store: ParamStore,
    pub(crate) net: N,
    log_eps: f32,
    name: &'static str,
}

impl<N: Network> Regressor<N> {
    /// Trains `net`, registered in `store`, on the workload's training
    /// split, selecting on its validation split ([`train_minibatch`]).
    pub(crate) fn train(
        mut store: ParamStore,
        net: N,
        workload: &Workload,
        cfg: &NeuralConfig,
        name: &'static str,
    ) -> Self {
        train_minibatch(&mut store, &workload.train, &workload.valid, cfg, &net);
        Regressor {
            store,
            net,
            log_eps: cfg.log_eps,
            name,
        }
    }
}

impl<N: Network> SelectivityEstimator for Regressor<N> {
    /// One forward over the wave's stacked `(x, t)` rows.
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        predict_into(&self.net, &self.store, self.log_eps, queries, out)
    }

    fn name(&self) -> &str {
        self.name
    }

    fn guarantees_consistency(&self) -> bool {
        N::CONSISTENT
    }
}

/// Exponentiates a log-space prediction back to a selectivity.
pub fn from_log(z: f64, log_eps: f32) -> f64 {
    (z.min(60.0).exp() - log_eps as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnn::Dnn;

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
            hidden: vec![32],
            epochs: 250,
            learning_rate: 1e-2,
            ..NeuralConfig::tiny()
        };
        let emb = TEmbedding::new(&mut store, "t", cfg.t_embed, &mut rng);
        let net = Dnn::new(&mut store, "net", emb, 2, &cfg, &mut rng);
        let history = train_minibatch(&mut store, &train, &valid, &cfg, &net);
        let first = history[0];
        let last = history.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            last < first * 0.6,
            "training should substantially reduce val MAE: {first} -> {last}"
        );
    }
}
