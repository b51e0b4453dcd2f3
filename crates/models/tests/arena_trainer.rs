//! Regression pin for the arena-lifecycle port of the baseline trainers:
//! `train_minibatch` (one reused tape, in-place batch leaves, borrowed
//! gradients) must produce **bit-identical** parameters and validation
//! history to the old fresh-`Graph`-per-batch loop, reimplemented here as
//! the reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_models::common::{
    batch, flatten, from_log, train_minibatch, Network, NeuralConfig, TEmbedding,
};
use selnet_tensor::{Activation, Adam, Graph, Matrix, Mlp, ParamStore, Var};
use selnet_workload::LabeledQuery;

fn fixture_queries() -> Vec<LabeledQuery> {
    // deterministic synthetic workload: three query objects, labels a
    // smooth function of (x, t)
    (0..3)
        .map(|qi| {
            let x: Vec<f32> = (0..4).map(|d| ((qi * 4 + d) as f32 * 0.37).sin()).collect();
            let thresholds: Vec<f32> = (1..=8).map(|i| i as f32 * 0.25).collect();
            let selectivities: Vec<f64> = thresholds
                .iter()
                .map(|&t| (20.0 * t as f64 + 3.0 * qi as f64).max(1.0))
                .collect();
            LabeledQuery {
                x,
                thresholds,
                selectivities,
            }
        })
        .collect()
}

fn build_nets(cfg: &NeuralConfig, dim: usize) -> (ParamStore, TEmbedding, Mlp) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let emb = TEmbedding::new(&mut store, "t", cfg.t_embed, &mut rng);
    let net = Mlp::new(
        &mut store,
        "net",
        &[dim + cfg.t_embed, 16, 1],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    (store, emb, net)
}

fn predict(
    emb: &TEmbedding,
    net: &Mlp,
    log_eps: f32,
    store: &ParamStore,
    x: &[f32],
    ts: &[f32],
) -> Vec<f64> {
    let mut g = Graph::new();
    let mut xr = Matrix::zeros(ts.len(), x.len());
    for i in 0..ts.len() {
        xr.row_mut(i).copy_from_slice(x);
    }
    let xv = g.leaf(xr);
    let tv = g.leaf(Matrix::col_vector(ts));
    let te = emb.forward(&mut g, store, tv);
    let input = g.concat_cols(xv, te);
    let out = net.forward(&mut g, store, input);
    g.value(out)
        .data()
        .iter()
        .map(|&z| from_log(z as f64, log_eps))
        .collect()
}

/// The shipped trainer's network: the MLP over `[x; emb(t)]`, predicting
/// `log(y + ε)`.
struct EmbeddedMlp {
    emb: TEmbedding,
    net: Mlp,
    dim: usize,
}

impl Network for EmbeddedMlp {
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

/// The seed trainer: a fresh `Graph` per batch, allocated batch matrices,
/// cloned gradients.
#[allow(clippy::too_many_arguments)]
fn reference_train(
    store: &mut ParamStore,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    cfg: &NeuralConfig,
    dim: usize,
    emb: &TEmbedding,
    net: &Mlp,
) -> Vec<f64> {
    let pairs = flatten(train, cfg.log_eps);
    let n = pairs.t.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
    let mut opt = Adam::new(cfg.learning_rate).with_clip(1.0);
    let mut best_mae = f64::MAX;
    let mut best_store = store.clone();
    let mut history = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let (x, t, ylog) = batch(&pairs, chunk, dim);
            let mut g = Graph::new();
            let xv = g.leaf(x);
            let tv = g.leaf(t);
            let yv = g.leaf(ylog);
            let te = emb.forward(&mut g, store, tv);
            let input = g.concat_cols(xv, te);
            let pred = net.forward(&mut g, store, input);
            let r = g.sub(pred, yv);
            let h = g.huber(r, cfg.huber_delta);
            let loss = g.mean(h);
            g.backward(loss);
            let grads = g.param_grads();
            let refs: Vec<_> = grads.iter().map(|(id, m)| (*id, m)).collect();
            opt.step_refs(store, &refs);
        }
        let mut abs = 0.0f64;
        let mut cnt = 0usize;
        for q in valid {
            let preds = predict(emb, net, cfg.log_eps, store, &q.x, &q.thresholds);
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
        *store = best_store;
    }
    history
}

#[test]
fn arena_trainer_is_bit_identical_to_fresh_graph_trainer() {
    let queries = fixture_queries();
    let cfg = NeuralConfig {
        epochs: 6,
        batch_size: 5,
        ..NeuralConfig::tiny()
    };
    let dim = 4;

    // arena path (the shipped trainer)
    let (mut store_a, emb, net) = build_nets(&cfg, dim);
    let net_a = EmbeddedMlp { emb, net, dim };
    let hist_a = train_minibatch(&mut store_a, &queries, &queries, &cfg, &net_a);

    // reference path (fresh graph per batch)
    let (mut store_b, emb_b, net_b) = build_nets(&cfg, dim);
    let hist_b = reference_train(&mut store_b, &queries, &queries, &cfg, dim, &emb_b, &net_b);

    assert_eq!(
        hist_a, hist_b,
        "validation histories must match bit for bit"
    );
    assert_eq!(store_a.len(), store_b.len());
    for id in store_a.ids() {
        assert_eq!(
            store_a.value(id).data(),
            store_b.value(id).data(),
            "parameter {} diverged between arena and fresh-graph training",
            store_a.name(id)
        );
    }
}
