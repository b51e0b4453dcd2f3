//! Property-based verification of the autodiff engine: every op's analytic
//! gradient is compared against central finite differences on random
//! inputs, and algebraic identities of the tape are checked.

use proptest::prelude::*;
use selnet_tensor::gradcheck::check_gradients;
use selnet_tensor::{Graph, Matrix};

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn assert_grad_ok(report: &selnet_tensor::gradcheck::GradCheckReport) {
    assert!(
        report.max_rel_diff < 7e-2 || report.max_abs_diff < 7e-3,
        "gradient mismatch: {report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn elementwise_activation_gradients(m in matrix_strategy(3, 4), pick in 0usize..4) {
        let report = check_gradients(&[m], 1e-3, |g, xs| {
            let x = g.leaf(xs[0].clone());
            let y = match pick {
                0 => g.sigmoid(x),
                1 => g.softplus(x),
                2 => g.elu_plus_one(x),
                _ => g.square(x),
            };
            let sq = g.square(y);
            let loss = g.mean(sq);
            (vec![x], loss)
        });
        assert_grad_ok(&report);
    }

    #[test]
    fn broadcast_op_gradients(
        m in matrix_strategy(4, 3),
        row in matrix_strategy(1, 3),
        col in matrix_strategy(4, 1),
    ) {
        let report = check_gradients(&[m, row, col], 1e-3, |g, xs| {
            let m = g.leaf(xs[0].clone());
            let r = g.leaf(xs[1].clone());
            let c = g.leaf(xs[2].clone());
            let a = g.add_row_vec(m, r);
            let b = g.mul_col_vec(a, c);
            let t = g.sigmoid(b);
            let loss = g.mean(t);
            (vec![m, r, c], loss)
        });
        assert_grad_ok(&report);
    }

    #[test]
    fn structural_op_gradients(a in matrix_strategy(3, 4), b in matrix_strategy(3, 2)) {
        let report = check_gradients(&[a, b], 1e-3, |g, xs| {
            let a = g.leaf(xs[0].clone());
            let b = g.leaf(xs[1].clone());
            let cat = g.concat_cols(a, b);
            let sl = g.slice_cols(cat, 1, 5);
            let cs = g.cumsum_cols(sl);
            let rs = g.row_sum(cs);
            let loss = g.mean(rs);
            (vec![a, b], loss)
        });
        assert_grad_ok(&report);
    }

    #[test]
    fn softmax_rows_is_stochastic(m in matrix_strategy(5, 6)) {
        let mut g = Graph::new();
        let x = g.leaf(m);
        let y = g.softmax_rows(x);
        for i in 0..5 {
            let row = g.value(y).row(i);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    /// sum(a + b) == sum(a) + sum(b) on the tape.
    #[test]
    fn add_is_linear_under_sum(a in matrix_strategy(3, 3), b in matrix_strategy(3, 3)) {
        let mut g = Graph::new();
        let av = g.leaf(a.clone());
        let bv = g.leaf(b.clone());
        let s = g.add(av, bv);
        let total = g.sum(s);
        let expected = a.sum() + b.sum();
        prop_assert!((g.value(total).get(0, 0) as f64 - expected).abs() < 1e-3);
    }

    /// Gradient of sum w.r.t. any leaf is all-ones (chain through add).
    #[test]
    fn sum_gradient_is_ones(a in matrix_strategy(2, 5)) {
        let mut g = Graph::new();
        let x = g.leaf(a);
        let s = g.sum(x);
        g.backward(s);
        let grad = g.grad(x);
        prop_assert!(grad.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    /// cumsum is inverted by adjacent differences.
    #[test]
    fn cumsum_roundtrip(a in matrix_strategy(2, 8)) {
        let mut g = Graph::new();
        let x = g.leaf(a.clone());
        let c = g.cumsum_cols(x);
        let v = g.value(c);
        for i in 0..2 {
            let mut prev = 0.0f32;
            for j in 0..8 {
                let diff = v.get(i, j) - prev;
                prop_assert!((diff - a.get(i, j)).abs() < 1e-4);
                prev = v.get(i, j);
            }
        }
    }

    /// matmul associativity holds numerically on the tape.
    #[test]
    fn matmul_is_associative(
        a in matrix_strategy(2, 3),
        b in matrix_strategy(3, 4),
        c in matrix_strategy(4, 2),
    ) {
        let mut g = Graph::new();
        let (av, bv, cv) = (g.leaf(a), g.leaf(b), g.leaf(c));
        let ab = g.matmul(av, bv);
        let ab_c = g.matmul(ab, cv);
        let bc = g.matmul(bv, cv);
        let a_bc = g.matmul(av, bc);
        let v1 = g.value(ab_c).clone();
        let v2 = g.value(a_bc);
        for (x, y) in v1.data().iter().zip(v2.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Reset-and-reuse is bit-identical to a fresh graph: after recording
    /// and differentiating an unrelated decoy batch (different shapes, so
    /// every buffer is recycled at a new size), the reused tape must
    /// reproduce the fresh tape's values and gradients exactly — the core
    /// determinism contract of the arena tape.
    #[test]
    fn reset_and_reuse_is_bit_identical_to_fresh_graph(
        x in matrix_strategy(5, 4),
        w in matrix_strategy(4, 3),
        row in matrix_strategy(1, 3),
        decoy in matrix_strategy(7, 2),
    ) {
        // an op mix covering matmul, broadcast, activations, the SelNet
        // head ops, and a reduction
        let build = |g: &mut Graph, x: &Matrix, w: &Matrix, row: &Matrix| {
            let xv = g.leaf_ref(x);
            let wv = g.leaf_ref(w);
            let rv = g.leaf_ref(row);
            let mm = g.matmul(xv, wv);
            let biased = g.add_row_vec(mm, rv);
            let act = g.sigmoid(biased);
            let n = g.norml2(act, 1e-4);
            let cs = g.cumsum_cols(n);
            let sm = g.softmax_rows(cs);
            let rs = g.row_sum(sm);
            let sq = g.square(rs);
            let loss = g.mean(sq);
            (vec![xv, wv, rv], loss)
        };

        let mut fresh = Graph::new();
        let (vars_f, loss_f) = build(&mut fresh, &x, &w, &row);
        fresh.backward(loss_f);

        let mut reused = Graph::new();
        // decoy batch with different shapes, then reset and rebuild
        let dv = reused.leaf_ref(&decoy);
        let ds = reused.sigmoid(dv);
        let dl = reused.mean(ds);
        reused.backward(dl);
        reused.reset();
        let (vars_r, loss_r) = build(&mut reused, &x, &w, &row);
        reused.backward(loss_r);

        prop_assert_eq!(reused.value(loss_r).data(), fresh.value(loss_f).data());
        for (vr, vf) in vars_r.iter().zip(&vars_f) {
            prop_assert_eq!(reused.grad(*vr).data(), fresh.grad(*vf).data());
        }
        // a second reuse of the same tape stays identical too
        reused.reset();
        let (vars_r2, loss_r2) = build(&mut reused, &x, &w, &row);
        reused.backward(loss_r2);
        prop_assert_eq!(reused.value(loss_r2).data(), fresh.value(loss_f).data());
        for (vr, vf) in vars_r2.iter().zip(&vars_f) {
            prop_assert_eq!(reused.grad(*vr).data(), fresh.grad(*vf).data());
        }
    }

    /// PWL interpolation at control points returns the control values
    /// (for strictly increasing tau).
    #[test]
    fn pwl_hits_control_points(
        incs in prop::collection::vec(0.05f32..1.0, 3..10),
        p_raw in prop::collection::vec(-5.0f32..5.0, 3..10),
    ) {
        let m = incs.len().min(p_raw.len());
        let mut tau = vec![0.0f32];
        for &d in incs.iter().take(m - 1) {
            tau.push(tau.last().unwrap() + d);
        }
        let p: Vec<f32> = p_raw.iter().take(m).copied().collect();
        let mut g = Graph::new();
        let tv = g.leaf(Matrix::row_vector(&tau));
        let pv = g.leaf(Matrix::row_vector(&p));
        let t = g.leaf(Matrix::col_vector(&tau));
        let y = g.pwl_interp(tv, pv, t);
        for (j, &pj) in p.iter().enumerate() {
            prop_assert!(
                (g.value(y).get(j, 0) - pj).abs() < 1e-4,
                "f(tau_{j}) = {} != p_{j} = {pj}",
                g.value(y).get(j, 0)
            );
        }
    }
}

// ---- the parameters-only sweep against the full sweep ----

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_tensor::{ParamId, ParamStore, Var};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

/// Shapes of one random MLP tape: `b` rows, a constant `dx`-wide batch, a
/// `dz`-wide learned code, hidden width `h`, `k` constant columns in the
/// mixed-consumer concat.
#[derive(Clone, Copy, Debug)]
struct Dims {
    b: usize,
    dx: usize,
    dz: usize,
    h: usize,
    k: usize,
}

struct LivenessFixture {
    store: ParamStore,
    /// In registration order: enc.w, enc.b, w1, b1, w2, sq, w3, w3b, w4, w5, w6.
    ids: Vec<ParamId>,
    /// x, c2, other, t, y, csq — the constant leaves.
    consts: Vec<Matrix>,
}

impl LivenessFixture {
    fn new(d: Dims, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let shapes = [
            (d.dx, d.dz),
            (1, d.dz),
            (d.dx + d.dz, d.h),
            (1, d.h),
            (d.dx + d.dz, d.h),
            (d.h, d.h),
            (d.k + d.h, d.h + 1),
            (d.k + d.h, d.h + 1),
            (d.h + 1, 1),
            (d.dz, d.b - 1),
            (d.dz, d.dx),
        ];
        let ids = shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| store.add(format!("p{i}"), random_matrix(&mut rng, r, c)))
            .collect();
        let mut consts: Vec<Matrix> = [
            (d.b, d.dx),
            (d.b, d.k),
            (d.b, d.k + d.h),
            (d.b, 1),
            (d.b, 1),
            (d.b, 1),
        ]
        .iter()
        .map(|&(r, c)| random_matrix(&mut rng, r, c))
        .collect();
        // evaluation points inside the curve's range
        for t in consts[3].data_mut() {
            *t = t.abs() * d.h as f32 * 0.5;
        }
        LivenessFixture { store, ids, consts }
    }

    /// Records the tape. Returns the loss, the nodes no parameter feeds,
    /// and the `concat(x, z)` whose consumers are all `MatMul` left
    /// operands. With `add_consumer` the second concat also feeds an `Add`.
    fn record(&self, g: &mut Graph, d: Dims, add_consumer: bool) -> (Var, Vec<Var>, Var) {
        let p: Vec<Var> = self
            .ids
            .iter()
            .map(|&id| self.store.inject(g, id))
            .collect();
        let c: Vec<Var> = self.consts.iter().map(|m| g.leaf_ref(m)).collect();
        let (x, c2, other, t, y, csq) = (c[0], c[1], c[2], c[3], c[4], c[5]);

        // z = sigmoid(x·W + b): the constant batch under a first layer
        let xw = g.matmul(x, p[0]);
        let xwb = g.add_row_vec(xw, p[1]);
        let z = g.sigmoid(xwb);
        // concat(constant, live) read by MatMul left operands only — one
        // parameter leaf used twice among them
        let input = g.concat_cols(x, z);
        let a1 = g.matmul(input, p[2]);
        let a1b = g.add_row_vec(a1, p[3]);
        let h1 = g.relu(a1b);
        let h2 = g.matmul(input, p[2]);
        let h3 = g.matmul(input, p[4]);
        // MatMul(a, a)
        let sq2 = g.matmul(p[5], p[5]);
        let h4 = g.matmul(h1, sq2);
        let h23 = g.add(h2, h3);
        let sum = g.add(h23, h4);
        // concat(constant, live) with mixed consumers: MatMul and Add
        let mixed = g.concat_cols(c2, sum);
        let mut enc = g.matmul(mixed, p[6]);
        if add_consumer {
            let shifted = g.add(mixed, other);
            let more = g.matmul(shifted, p[7]);
            enc = g.add(enc, more);
        }
        // ... and the SelNet head's: PwlInterp and MatMul
        let inc = g.softplus(sum);
        let tail = g.cumsum_cols(inc);
        let zeros = g.leaf_with(d.b, 1, |_| {});
        let tau = g.concat_cols(zeros, tail);
        let k = g.relu(enc);
        let pv = g.cumsum_cols(k);
        let pred = g.pwl_interp(tau, pv, t);
        let tau_lin = g.matmul(tau, p[8]);
        let mut out = g.add(pred, tau_lin);
        // a concat that is both operands of one MatMul
        let zw = g.matmul(z, p[9]);
        let square = g.concat_cols(csq, zw);
        let ss = g.matmul(square, square);
        let ssr = g.row_sum(ss);
        out = g.add(out, ssr);
        let r = g.sub(out, y);
        let h = g.huber(r, 1.0);
        let est = g.mean(h);
        // reconstruction against a node computed from constants only
        let target = g.sigmoid(x);
        let recon = g.matmul(z, p[10]);
        let dxv = g.sub(recon, target);
        let sqd = g.square(dxv);
        let ae = g.mean(sqd);
        let ae = g.scale(ae, 0.3);
        let loss = g.add(est, ae);

        let mut dead = vec![x, c2, t, y, csq, zeros, target];
        if add_consumer {
            dead.push(other);
        }
        (loss, dead, input)
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `backward_params` hands the optimizer the bits `backward` does —
    /// through a narrow `concat(constant, live)` gradient, concats whose
    /// other consumers forbid one, a parameter leaf used twice and
    /// `MatMul(a, a)` — and reaches no node that no parameter feeds.
    #[test]
    fn parameters_only_sweep_equals_the_full_sweep_bit_for_bit(
        dims in (2usize..10, 0usize..40, 1usize..40, 1usize..40),
        k in 1usize..6,
        seed in 0u64..u64::MAX,
        add_consumer in 0usize..2,
    ) {
        let d = Dims { b: dims.0, dx: dims.1, dz: dims.2, h: dims.3, k };
        let fx = LivenessFixture::new(d, seed);
        let mut full = Graph::new();
        let (loss_f, dead_f, input_f) = fx.record(&mut full, d, add_consumer == 1);
        full.backward(loss_f);
        let mut only = Graph::new();
        let (loss_p, dead_p, input_p) = fx.record(&mut only, d, add_consumer == 1);
        only.backward_params(loss_p);

        // the full sweep visits every constant; the parameters-only none
        let reached = |g: &Graph, vars: &[Var]| vars.iter().filter(|&&v| g.grad_reached(v)).count();
        prop_assert_eq!(reached(&full, &dead_f), dead_f.len());
        prop_assert_eq!(reached(&only, &dead_p), 0, "{d:?}");

        // the narrow gradient reads back as the full one with the constant
        // columns zeroed
        let (gi_f, gi_p) = (full.grad(input_f), only.grad(input_p));
        prop_assert_eq!(gi_p.shape(), gi_f.shape());
        for i in 0..d.b {
            prop_assert!(gi_p.row(i)[..d.dx].iter().all(|&v| v.to_bits() == 0));
            prop_assert_eq!(bits(&gi_p.row(i)[d.dx..]), bits(&gi_f.row(i)[d.dx..]));
        }

        let (gf, gp) = (full.param_grad_refs(), only.param_grad_refs());
        prop_assert_eq!(gf.len(), gp.len());
        prop_assert_eq!(gf.len(), fx.ids.len());
        for ((id_f, m_f), (id_p, m_p)) in gf.iter().zip(&gp) {
            prop_assert_eq!(id_f, id_p);
            prop_assert_eq!(m_f.shape(), m_p.shape());
            prop_assert_eq!(bits(m_f.data()), bits(m_p.data()), "{d:?} parameter {}", id_f.index());
        }

        // and a full sweep on the tape the narrow one ran on widens again
        only.backward(loss_p);
        prop_assert_eq!(bits(only.grad(input_p).data()), bits(gi_f.data()));
    }
}
