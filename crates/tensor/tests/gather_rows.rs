//! `Graph::gather_rows` against the tape it stands in for: the same rows
//! written out as a leaf. Forward values and the gradient that reaches the
//! gathered node must be the expanded tape's to the bit (the backward is
//! the expanded gradient's rows added up in index order), on fresh and on
//! reused tapes, with repeated, missing and no indices at all.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_tensor::gradcheck::check_gradients;
use selnet_tensor::{Graph, Matrix, ParamStore, Var};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// What both tapes record on top of the expanded rows `e`: a per-row
/// weight, a non-linearity and a reduction. Returns the loss.
fn head(g: &mut Graph, e: Var, weights: &Matrix) -> Var {
    let w = g.leaf_ref(weights);
    let scaled = g.mul_col_vec(e, w);
    let act = g.sigmoid(scaled);
    let sq = g.square(act);
    g.mean(sq)
}

/// `(loss bits, gathered values, gradient at v)` of the gather tape.
fn gather_tape(
    g: &mut Graph,
    v: &Matrix,
    idx: &[usize],
    weights: &Matrix,
) -> (u32, Matrix, Matrix) {
    let vv = g.leaf_ref(v);
    let e = g.gather_rows(vv, idx);
    let loss = head(g, e, weights);
    g.backward(loss);
    (
        g.value(loss).get(0, 0).to_bits(),
        g.value(e).clone(),
        g.grad(vv),
    )
}

#[test]
fn gradients_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(11);
    let v = random_matrix(&mut rng, 4, 3);
    let w = random_matrix(&mut rng, 3, 2);
    // row 2 three times, row 1 never
    let idx = [2usize, 0, 2, 3, 2, 0];
    let report = check_gradients(&[v, w], 1e-3, |g, xs| {
        let v = g.leaf(xs[0].clone());
        let w = g.leaf(xs[1].clone());
        let e = g.gather_rows(v, &idx);
        let y = g.matmul(e, w);
        let t = g.sigmoid(y);
        let sq = g.square(t);
        let loss = g.mean(sq);
        (vec![v, w], loss)
    });
    assert!(
        report.max_rel_diff < 7e-2 || report.max_abs_diff < 7e-3,
        "gradient mismatch: {report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gather_equals_the_expanded_tape_bit_for_bit(
        shape in (1usize..7, 1usize..6),
        pairs in 0usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let (rows, cols) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let v = random_matrix(&mut rng, rows, cols);
        let idx: Vec<usize> = (0..pairs).map(|_| rng.gen_range(0..rows)).collect();
        let weights = random_matrix(&mut rng, pairs, 1);

        // the expanded tape: the rows as a leaf, no gather
        let mut expanded = Graph::new();
        let e = expanded.leaf(v.gather_rows(&idx));
        let loss = head(&mut expanded, e, &weights);
        expanded.backward(loss);
        let ge = expanded.grad(e);
        // ... and its gradient rows added up per source row, in index order
        let mut want = Matrix::zeros(rows, cols);
        for (r, &src) in idx.iter().enumerate() {
            for (o, &g) in want.row_mut(src).iter_mut().zip(ge.row(r)) {
                *o += g;
            }
        }

        let mut fresh = Graph::new();
        let (loss_bits, values, grad) = gather_tape(&mut fresh, &v, &idx, &weights);
        prop_assert_eq!(loss_bits, expanded.value(loss).get(0, 0).to_bits());
        prop_assert_eq!(values.shape(), (pairs, cols));
        prop_assert_eq!(bits(values.data()), bits(expanded.value(e).data()));
        prop_assert_eq!(grad.shape(), (rows, cols));
        prop_assert_eq!(bits(grad.data()), bits(want.data()), "idx {:?}", idx);

        // a tape that held a longer gather of a wider matrix, reset
        let mut reused = Graph::new();
        let decoy = random_matrix(&mut rng, rows + 2, cols + 1);
        let decoy_idx: Vec<usize> = (0..pairs + 3).map(|i| i % (rows + 2)).collect();
        let decoy_weights = random_matrix(&mut rng, pairs + 3, 1);
        gather_tape(&mut reused, &decoy, &decoy_idx, &decoy_weights);
        for _ in 0..2 {
            reused.reset();
            let again = gather_tape(&mut reused, &v, &idx, &weights);
            prop_assert_eq!(again.0, loss_bits);
            prop_assert_eq!(bits(again.1.data()), bits(values.data()));
            prop_assert_eq!(bits(again.2.data()), bits(grad.data()));
        }
    }

    /// Under `backward_params` a gather is live iff its input is: the
    /// parameter behind one gets the bits `backward` gives it, and a
    /// gather of constants is never visited.
    #[test]
    fn parameters_only_sweep_gives_the_full_sweep_s_parameter_bits(
        shape in (1usize..7, 1usize..6, 1usize..5),
        pairs in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let (rows, inner, cols) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_matrix(&mut rng, rows, inner);
        let mut store = ParamStore::new();
        let w = store.add("w", random_matrix(&mut rng, inner, cols));
        let idx: Vec<usize> = (0..pairs).map(|_| rng.gen_range(0..rows)).collect();
        let weights = random_matrix(&mut rng, pairs, 1);
        let record = |g: &mut Graph| {
            let xv = g.leaf_ref(&x);
            let wv = store.inject(g, w);
            let v = g.matmul(xv, wv);
            let live = g.gather_rows(v, &idx);
            let dead = g.gather_rows(xv, &idx);
            let dead_sum = g.row_sum(dead);
            let mixed = g.mul_col_vec(live, dead_sum);
            let loss = head(g, mixed, &weights);
            (loss, live, dead, wv)
        };
        let mut full = Graph::new();
        let (loss_f, live_f, dead_f, w_f) = record(&mut full);
        full.backward(loss_f);
        let mut only = Graph::new();
        let (loss_p, live_p, dead_p, w_p) = record(&mut only);
        only.backward_params(loss_p);

        prop_assert!(full.grad_reached(live_f) && full.grad_reached(dead_f));
        prop_assert!(only.grad_reached(live_p));
        prop_assert!(!only.grad_reached(dead_p));
        prop_assert_eq!(bits(only.grad(w_p).data()), bits(full.grad(w_f).data()));
    }
}

#[test]
fn an_empty_index_gives_no_rows_and_a_zero_gradient() {
    let mut g = Graph::new();
    let v = g.leaf(Matrix::from_fn(3, 2, |i, j| (i + j) as f32));
    let e = g.gather_rows(v, &[]);
    assert_eq!(g.value(e).shape(), (0, 2));
    let loss = g.mean(e);
    g.backward(loss);
    assert_eq!(g.grad(v), Matrix::zeros(3, 2));
}

#[test]
#[should_panic(expected = "gather_rows: index 3 out of range for 3 rows")]
fn an_out_of_range_index_panics_naming_the_op() {
    let mut g = Graph::new();
    let v = g.leaf(Matrix::zeros(3, 2));
    g.gather_rows(v, &[0, 3]);
}
