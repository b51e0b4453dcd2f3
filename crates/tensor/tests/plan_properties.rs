//! Property-based verification of compiled inference plans: for random
//! networks, shapes, and batch sizes, a plan replay is **bit-identical**
//! to the tape forward pass it was compiled from — including across
//! [`PlanBuffers`] reuse at changing row counts, affine fusion, and
//! interleaved use of the pooled tape.
//!
//! The recorded program is the shape the models compile: batch-scaled `x`
//! in, control points `(τ, p)` out, the threshold applied outside the plan
//! by [`pwl_interp_row`]. The tape — which interpolates with its own
//! `pwl_interp` op — is the oracle for all three.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_tensor::{
    pwl_interp_row, Activation, Graph, InferencePlan, Matrix, Mlp, ParamId, ParamStore,
    PlanBuffers, PlanOutputs, Var,
};

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

struct Fixture {
    store: ParamStore,
    net: Mlp,
    dec_w: ParamId,
    dec_b: ParamId,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    // trunk out width 8: the τ head takes the first half, and the
    // block-linear decoder splits all 8 into 4 blocks of width 2
    let net = Mlp::new(
        &mut store,
        "net",
        &[5, 7, 8],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    let dec_w = store.add("dec.w", selnet_tensor::init::he(4, 2, &mut rng));
    let dec_b = store.add("dec.b", Matrix::zeros(1, 4));
    Fixture {
        store,
        net,
        dec_w,
        dec_b,
    }
}

/// Records a small SelNet-shaped control-point forward over a batch `x`:
/// an MLP trunk (whose matmul+bias+relu layers exercise affine fusion), a
/// `Norml2`-or-softmax → scale → cumsum τ head behind a zeros column, and
/// a block-linear + relu + cumsum p head. With `query_dependent_tau` the τ
/// head reads the batch and its zeros column has the batch's rows (a
/// batch-broadcast constant); without, it reads a constant one-row vector
/// and τ is one shared row behind a one-row zero. Returns `(xv, tau, p)`.
fn record_curves(
    g: &mut Graph,
    f: &Fixture,
    x: &Matrix,
    softmax_tau: bool,
    query_dependent_tau: bool,
) -> (Var, Var, Var) {
    let xv = g.leaf_ref(x);
    let h = f.net.forward(g, &f.store, xv);
    let (tau_h, tau_rows) = if query_dependent_tau {
        (h, x.rows())
    } else {
        let ones = g.leaf_with(1, x.cols(), |d| d.fill(1.0));
        (f.net.forward(g, &f.store, ones), 1)
    };
    let cols = g.value(tau_h).cols();
    let tau_raw = g.slice_cols(tau_h, 0, cols / 2 - 1);
    let norm = if softmax_tau {
        g.softmax_rows(tau_raw)
    } else {
        g.norml2(tau_raw, 1e-6)
    };
    let scaled = g.scale(norm, 2.0);
    let tail = g.cumsum_cols(scaled);
    let zeros = g.leaf_with(tau_rows, 1, |_| {});
    let tau = g.concat_cols(zeros, tail);
    let w = f.store.inject(g, f.dec_w);
    let b = f.store.inject(g, f.dec_b);
    let k_raw = g.block_linear(h, w, b);
    let k = g.relu(k_raw);
    let p = g.cumsum_cols(k);
    (xv, tau, p)
}

/// A threshold per batch row, spread over and a little past `[0, 2]`.
fn thresholds(rows: usize) -> Vec<f32> {
    (0..rows).map(|i| 2.2 * i as f32 / rows as f32).collect()
}

/// Row `j`'s estimate from a replay's `(τ, p)` outputs — τ is one shared
/// row when it is not query-dependent.
fn interpolate(run: &PlanOutputs<'_>, j: usize, t: f32) -> f32 {
    let tau = run.output(0);
    let tau_row = if tau.rows() == 1 { 0 } else { j };
    pwl_interp_row(tau.row(tau_row), run.output(1).row(j), t)
}

/// What the tape answers for `x` at `ts`: `(τ, p, pwl_interp(τ, p, ts))`.
fn tape_oracle(
    f: &Fixture,
    x: &Matrix,
    ts: &[f32],
    softmax_tau: bool,
    query_dependent_tau: bool,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut g = Graph::new();
    let (_, tau, p) = record_curves(&mut g, f, x, softmax_tau, query_dependent_tau);
    let tv = g.leaf_ref(&Matrix::col_vector(ts));
    let y = g.pwl_interp(tau, p, tv);
    (
        g.value(tau).data().to_vec(),
        g.value(p).data().to_vec(),
        g.value(y).data().to_vec(),
    )
}

fn probe_x() -> Matrix {
    Matrix::from_fn(2, 5, |i, j| ((i * 5 + j) as f32).cos())
}

fn batch_x(seed: u64, rows: usize) -> Matrix {
    Matrix::from_fn(rows, 5, |i, j| ((seed as usize + i * 5 + j) as f32).sin())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plan replay of a SelNet-shaped network equals the tape forward pass
    /// bit for bit — control points and the interpolated estimates — for
    /// both τ normalizations, shared and query-dependent τ, and every
    /// probed batch size, with one `PlanBuffers` arena reused across all
    /// runs (capacity recycling must not change a bit).
    #[test]
    fn selnet_like_plan_matches_tape(
        seed in 0u64..10_000,
        softmax_pick in 0usize..2,
        query_dependent_pick in 0usize..2,
        probe in matrix_strategy(2, 5),
    ) {
        let (softmax_tau, query_dependent_tau) = (softmax_pick == 1, query_dependent_pick == 1);
        let f = fixture(seed);
        let mut g = Graph::new();
        let (xv, tau, p) = record_curves(&mut g, &f, &probe, softmax_tau, query_dependent_tau);
        let plan = InferencePlan::compile(&g, &[xv], &[tau, p])
            .expect("SelNet-shaped tape must compile");

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 3, 9, 33] {
            let x = batch_x(seed, rows);
            let ts = thresholds(rows);
            let out = plan.run(&mut bufs, rows, |_, m| m.data_mut().copy_from_slice(x.data()));
            let (ftau, fp, fy) = tape_oracle(&f, &x, &ts, softmax_tau, query_dependent_tau);
            prop_assert_eq!(out.output(0).data(), ftau.as_slice());
            prop_assert_eq!(out.output(1).data(), fp.as_slice());
            let y: Vec<f32> = (0..rows).map(|j| interpolate(&out, j, ts[j])).collect();
            prop_assert_eq!(y, fy);
        }
    }

    /// The batch-broadcast zeros constant replays bit-identically at row
    /// counts on both sides of the probe size.
    #[test]
    fn batch_plan_matches_tape(seed in 0u64..10_000) {
        let f = fixture(seed ^ 0xb47c4);
        let mut g = Graph::new();
        let (xv, tau, p) = record_curves(&mut g, &f, &probe_x(), false, true);
        let plan = InferencePlan::compile(&g, &[xv], &[tau, p])
            .expect("batch tape must compile");

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 7, 64] {
            let x = batch_x(seed, rows);
            let ts = thresholds(rows);
            let out = plan.run(&mut bufs, rows, |_, m| m.data_mut().copy_from_slice(x.data()));
            let (ftau, _, fy) = tape_oracle(&f, &x, &ts, false, true);
            prop_assert_eq!(out.output(0).data(), ftau.as_slice());
            let y: Vec<f32> = (0..rows).map(|j| interpolate(&out, j, ts[j])).collect();
            prop_assert_eq!(y, fy);
        }
    }

    /// Plans are independent of tape state: resetting / reusing the pooled
    /// tape between replays changes nothing, and a plan compiled before a
    /// `reset` keeps answering from its compiled snapshot.
    #[test]
    fn plan_survives_tape_reset_and_pooled_interleaving(seed in 0u64..10_000) {
        let f = fixture(seed ^ 0x9e5e7);
        let mut g = Graph::new();
        let (xv, tau, p) = record_curves(&mut g, &f, &probe_x(), false, false);
        let plan = InferencePlan::compile(&g, &[xv], &[tau, p]).expect("compiles");
        // reference BEFORE any interference
        let x = batch_x(seed, 4);
        let ts = [0.05f32, 0.5, 0.95, 1.4];
        let (_, _, reference) = tape_oracle(&f, &x, &ts, false, false);
        // trash the source tape and exercise the pooled tape in between
        g.reset();
        Graph::with_pooled(|pg| {
            let a = pg.leaf_with(4, 4, |d| d.iter_mut().enumerate().for_each(|(i, v)| *v = i as f32));
            let s = pg.square(a);
            let _ = pg.sum(s);
        });
        let mut bufs = PlanBuffers::new();
        for _ in 0..3 {
            let out = plan.run(&mut bufs, ts.len(), |_, m| m.data_mut().copy_from_slice(x.data()));
            let y: Vec<f32> = (0..ts.len()).map(|j| interpolate(&out, j, ts[j])).collect();
            prop_assert_eq!(&y, &reference);
        }
    }

    /// Row-chunked parallel replay is **bit-identical** to single-threaded
    /// replay at every thread count — including uneven splits and more
    /// threads than rows. The chunk boundary can never change a bit
    /// because every batch-scaled kernel is per-row and chunk boundaries
    /// are deterministic.
    #[test]
    fn chunked_replay_matches_serial_at_every_thread_count(
        seed in 0u64..10_000,
        query_dependent_pick in 0usize..2,
    ) {
        let f = fixture(seed ^ 0xc4a11);
        let mut g = Graph::new();
        let (xv, tau, p) = record_curves(&mut g, &f, &probe_x(), false, query_dependent_pick == 1);
        let plan = InferencePlan::compile(&g, &[xv], &[tau, p])
            .expect("batch tape must compile");
        prop_assert!(plan.flops_per_row() > 0);

        // uneven row counts on purpose: primes, rows < threads, rows = 1
        for rows in [1usize, 3, 5, 13, 64, 67] {
            let x = batch_x(seed, rows);
            let ts = thresholds(rows);
            // serial reference through the plain replay path
            let reference: Vec<f32> = {
                let mut bufs = PlanBuffers::new();
                let out = plan.run(&mut bufs, rows, |_, m| m.data_mut().copy_from_slice(x.data()));
                (0..rows).map(|j| interpolate(&out, j, ts[j])).collect()
            };
            // ragged ownership: row r owns 1 + r % 3 output slots (a query
            // row owns one slot per threshold), each holding the row's value
            let mut offsets = vec![0usize];
            for r in 0..rows {
                offsets.push(offsets[r] + 1 + r % 3);
            }
            let want: Vec<f32> = (0..rows)
                .flat_map(|r| std::iter::repeat_n(reference[r], 1 + r % 3))
                .collect();
            for threads in [1usize, 2, 4, 8] {
                let mut got = vec![0.0f32; want.len()];
                plan.run_chunked(
                    &offsets,
                    threads,
                    &mut got,
                    |_, first_row, m| {
                        let take = m.rows() * 5;
                        m.data_mut()
                            .copy_from_slice(&x.data()[first_row * 5..first_row * 5 + take]);
                    },
                    |first_row, run, chunk| {
                        let base = offsets[first_row];
                        for j in 0..run.rows() {
                            let r = first_row + j;
                            chunk[offsets[r] - base..offsets[r + 1] - base]
                                .fill(interpolate(&run, j, ts[r]));
                        }
                    },
                );
                prop_assert_eq!(
                    &got, &want,
                    "rows {} threads {} diverged", rows, threads
                );
            }
        }
    }
}
