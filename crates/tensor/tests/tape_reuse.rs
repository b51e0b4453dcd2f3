//! Edge-case coverage for the arena-backed reusable tape: `reset()` after
//! a backward pass, reuse across changing batch sizes (buffer growth and
//! shrink), gradient correctness across consecutive reused batches, and
//! the stale-handle guard. Everything here asserts **bit-identical**
//! equality against a fresh graph — reuse must be invisible to the math.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_tensor::{Activation, Adam, Graph, Matrix, Mlp, ParamStore, Var};

/// A forward pass exercising a representative op mix (matmul + bias +
/// activations + the SelNet head ops) ending in a scalar loss.
fn build_net_loss(
    g: &mut Graph,
    store: &ParamStore,
    net: &Mlp,
    x: &Matrix,
    target: &Matrix,
) -> (Var, Var) {
    let xv = g.leaf_ref(x);
    let tv = g.leaf_ref(target);
    let h = net.forward(g, store, xv);
    let n = g.norml2(h, 1e-4);
    let c = g.cumsum_cols(n);
    let s = g.row_sum(c);
    let d = g.sub(s, tv);
    let hu = g.huber(d, 1.0);
    let loss = g.mean(hu);
    (xv, loss)
}

fn batch(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let v = (i as u64)
            .wrapping_mul(31)
            .wrapping_add((j as u64).wrapping_mul(17))
            .wrapping_add(seed.wrapping_mul(101));
        ((v % 97) as f32) * 0.021 - 1.0
    })
}

fn fixture() -> (ParamStore, Mlp) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let net = Mlp::new(
        &mut store,
        "net",
        &[5, 12, 6],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    (store, net)
}

/// Reset-and-reuse after a backward pass is bit-identical to a fresh
/// graph: same loss value, same input gradient, same parameter gradients.
#[test]
fn reset_after_backward_matches_fresh_graph() {
    let (store, net) = fixture();
    let x1 = batch(8, 5, 1);
    let y1 = batch(8, 1, 2);
    let x2 = batch(8, 5, 3);
    let y2 = batch(8, 1, 4);

    // reused tape: batch 1, reset, batch 2
    let mut reused = Graph::new();
    let (_, l) = build_net_loss(&mut reused, &store, &net, &x1, &y1);
    reused.backward(l);
    reused.reset();
    let (xv_r, loss_r) = build_net_loss(&mut reused, &store, &net, &x2, &y2);
    reused.backward(loss_r);

    // fresh tape: batch 2 only
    let mut fresh = Graph::new();
    let (xv_f, loss_f) = build_net_loss(&mut fresh, &store, &net, &x2, &y2);
    fresh.backward(loss_f);

    assert_eq!(reused.value(loss_r), fresh.value(loss_f));
    assert_eq!(reused.grad(xv_r), fresh.grad(xv_f));
    let gr = reused.param_grads();
    let gf = fresh.param_grads();
    assert_eq!(gr.len(), gf.len());
    for ((id_r, g_r), (id_f, g_f)) in gr.iter().zip(&gf) {
        assert_eq!(id_r, id_f);
        assert_eq!(g_r.data(), g_f.data(), "param grad mismatch for {id_r:?}");
    }
}

/// Reuse with a different batch size (growth and shrink) stays
/// bit-identical to fresh graphs at every size.
#[test]
fn reuse_across_batch_sizes_matches_fresh_graph() {
    let (store, net) = fixture();
    let mut reused = Graph::new();
    // shrink (16 -> 3) then grow (3 -> 64) the live buffers
    for (i, rows) in [16usize, 3, 64].into_iter().enumerate() {
        let x = batch(rows, 5, 10 + i as u64);
        let y = batch(rows, 1, 20 + i as u64);
        reused.reset();
        let (xv_r, loss_r) = build_net_loss(&mut reused, &store, &net, &x, &y);
        reused.backward(loss_r);

        let mut fresh = Graph::new();
        let (xv_f, loss_f) = build_net_loss(&mut fresh, &store, &net, &x, &y);
        fresh.backward(loss_f);

        assert_eq!(reused.value(loss_r), fresh.value(loss_f), "rows = {rows}");
        assert_eq!(reused.grad(xv_r), fresh.grad(xv_f), "rows = {rows}");
        for ((_, g_r), (_, g_f)) in reused.param_grads().iter().zip(&fresh.param_grads()) {
            assert_eq!(g_r, g_f, "rows = {rows}");
        }
        assert_eq!(reused.len(), fresh.len());
    }
}

/// Two consecutive optimizer steps on one reused tape produce exactly the
/// parameters of two steps on two fresh tapes — `param_grad_refs` must
/// hand Adam the same gradients the cloning path would have.
#[test]
fn param_grads_bit_identical_across_two_reused_batches() {
    let (store0, net) = fixture();
    let batches: Vec<(Matrix, Matrix)> = (0..2)
        .map(|i| (batch(8, 5, 30 + i), batch(8, 1, 40 + i)))
        .collect();

    // path A: one reused tape, borrowed gradients
    let mut store_a = store0.clone();
    let mut opt_a = Adam::new(1e-2).with_clip(1.0);
    let mut g = Graph::new();
    for (x, y) in &batches {
        g.reset();
        let (_, loss) = build_net_loss(&mut g, &store_a, &net, x, y);
        g.backward(loss);
        let grads = g.param_grad_refs();
        opt_a.step_refs(&mut store_a, &grads);
    }

    // path B: fresh tape per batch, cloned gradients
    let mut store_b = store0.clone();
    let mut opt_b = Adam::new(1e-2).with_clip(1.0);
    for (x, y) in &batches {
        let mut g = Graph::new();
        let (_, loss) = build_net_loss(&mut g, &store_b, &net, x, y);
        g.backward(loss);
        let grads = g.param_grads();
        let refs: Vec<_> = grads.iter().map(|(id, m)| (*id, m)).collect();
        opt_b.step_refs(&mut store_b, &refs);
    }

    for id in store_a.ids() {
        assert_eq!(
            store_a.value(id).data(),
            store_b.value(id).data(),
            "parameter {:?} diverged between reused and fresh tapes",
            store_a.name(id)
        );
    }
}

/// `leaf_with` and `leaf_ref` record the same leaf as `leaf`.
#[test]
fn leaf_variants_are_equivalent() {
    let m = batch(4, 3, 5);
    let mut g = Graph::new();
    let a = g.leaf(m.clone());
    let b = g.leaf_ref(&m);
    let c = g.leaf_with(4, 3, |data| data.copy_from_slice(m.data()));
    assert_eq!(g.value(a), g.value(b));
    assert_eq!(g.value(a), g.value(c));
}

/// Steady-state reuse allocates no new tape slots: the arena's node
/// capacity is flat after the first batch, even when the batch size
/// shrinks and grows again.
#[test]
fn steady_state_reuse_keeps_node_capacity_flat() {
    let (store, net) = fixture();
    let mut g = Graph::new();
    let x = batch(32, 5, 50);
    let y = batch(32, 1, 51);
    let (_, loss) = build_net_loss(&mut g, &store, &net, &x, &y);
    g.backward(loss);
    let cap = g.node_capacity();
    for (i, rows) in [32usize, 8, 32, 15, 32].into_iter().enumerate() {
        let x = batch(rows, 5, 60 + i as u64);
        let y = batch(rows, 1, 70 + i as u64);
        g.reset();
        let (_, loss) = build_net_loss(&mut g, &store, &net, &x, &y);
        g.backward(loss);
        let _ = g.param_grad_refs();
        assert_eq!(
            g.node_capacity(),
            cap,
            "arena grew on reuse (rows = {rows})"
        );
    }
}

/// The PWL head keeps a per-node segment cache (`seg`) that is recycled
/// across batches; a reused tape must re-derive it from the new batch,
/// including the clamped below/above-range rows, and stay bit-identical.
#[test]
fn pwl_segment_cache_is_rebuilt_on_reuse() {
    let tau = Matrix::row_vector(&[0.0, 0.5, 1.0, 2.0]);
    let p = Matrix::row_vector(&[0.0, 1.0, 3.0, 4.0]);
    // first batch: 6 in-range points; second batch: 3 points hitting the
    // below-range (-1.0) and above-range (5.0) clamp paths
    let t1 = Matrix::col_vector(&[0.1, 0.4, 0.6, 0.9, 1.5, 1.9]);
    let t2 = Matrix::col_vector(&[-1.0, 0.75, 5.0]);

    let run = |g: &mut Graph, t: &Matrix| {
        let tauv = g.leaf_ref(&tau);
        let pv = g.leaf_ref(&p);
        let tv = g.leaf_ref(t);
        let y = g.pwl_interp(tauv, pv, tv);
        let loss = g.mean(y);
        g.backward(loss);
        (g.value(y).clone(), g.grad(tauv), g.grad(pv), g.grad(tv))
    };

    let mut reused = Graph::new();
    let _ = run(&mut reused, &t1);
    reused.reset();
    let got = run(&mut reused, &t2);

    let mut fresh = Graph::new();
    let want = run(&mut fresh, &t2);
    assert_eq!(got.0, want.0, "values");
    assert_eq!(got.1, want.1, "d/dtau");
    assert_eq!(got.2, want.2, "d/dp");
    assert_eq!(got.3, want.3, "d/dt");
}

/// A `Var` from before `reset()` must not silently read recycled data.
#[test]
#[should_panic(expected = "stale Var")]
fn stale_var_is_rejected() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::zeros(2, 2));
    let y = g.square(x);
    g.reset();
    let _ = g.value(y);
}
