//! Property-based verification of compiled inference plans: for random
//! networks, shapes, and batch sizes, a plan replay is **bit-identical**
//! to the tape forward pass it was compiled from — including across
//! [`PlanBuffers`] reuse at changing row counts, affine fusion, and
//! interleaved use of the pooled tape.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_tensor::{
    Activation, Graph, InferencePlan, Matrix, Mlp, ParamId, ParamStore, PlanBuffers, Var,
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

/// Records a small SelNet-shaped forward pass: an MLP trunk (whose
/// matmul+bias+relu layers exercise affine fusion), a `Norml2`-or-softmax
/// → scale → cumsum τ-head, a block-linear + relu + cumsum p-head, and a
/// PWL head over a batch of thresholds. `x` is a fixed single-row input,
/// `t` is batch-scaled — exactly the structure `predict_many` compiles.
/// Returns `(xv, tv, y, tau, p)`.
fn record_selnet_like(
    g: &mut Graph,
    f: &Fixture,
    x: &Matrix,
    ts: &Matrix,
    softmax_tau: bool,
) -> (Var, Var, Var, Var, Var) {
    let xv = g.leaf_ref(x);
    let tv = g.leaf_ref(ts);
    let h = f.net.forward(g, &f.store, xv);
    let cols = g.value(h).cols();
    let tau_raw = g.slice_cols(h, 0, cols / 2 - 1);
    let norm = if softmax_tau {
        g.softmax_rows(tau_raw)
    } else {
        g.norml2(tau_raw, 1e-6)
    };
    let scaled = g.scale(norm, 2.0);
    let tail = g.cumsum_cols(scaled);
    let zeros = g.leaf_with(1, 1, |_| {});
    let tau = g.concat_cols(zeros, tail);
    let w = f.store.inject(g, f.dec_w);
    let b = f.store.inject(g, f.dec_b);
    let k_raw = g.block_linear(h, w, b);
    let k = g.relu(k_raw);
    let p = g.cumsum_cols(k);
    let y = g.pwl_interp(tau, p, tv);
    (xv, tv, y, tau, p)
}

/// Records a batch-everything forward (both `x` rows and `t` rows scale),
/// with a batch-broadcast zeros constant — the structure `predict_batch`
/// compiles. Returns `(xv, tv, y)`.
fn record_batch_like(g: &mut Graph, f: &Fixture, x: &Matrix, ts: &Matrix) -> (Var, Var, Var) {
    let rows = x.rows();
    let xv = g.leaf_ref(x);
    let tv = g.leaf_ref(ts);
    let h = f.net.forward(g, &f.store, xv);
    let cols = g.value(h).cols();
    let tau_raw = g.slice_cols(h, 0, cols / 2 - 1);
    let norm = g.norml2(tau_raw, 1e-6);
    let scaled = g.scale(norm, 2.0);
    let tail = g.cumsum_cols(scaled);
    let zeros = g.leaf_with(rows, 1, |_| {});
    let tau = g.concat_cols(zeros, tail);
    let w = f.store.inject(g, f.dec_w);
    let b = f.store.inject(g, f.dec_b);
    let k_raw = g.block_linear(h, w, b);
    let k = g.relu(k_raw);
    let p = g.cumsum_cols(k);
    let y = g.pwl_interp(tau, p, tv);
    (xv, tv, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plan replay of a SelNet-shaped network equals the tape forward pass
    /// bit for bit, for every probed batch size — with one `PlanBuffers`
    /// arena reused across all runs (capacity recycling must not change a
    /// bit).
    #[test]
    fn selnet_like_plan_matches_tape(
        seed in 0u64..10_000,
        softmax_pick in 0usize..2,
        x in matrix_strategy(1, 5),
    ) {
        let softmax_tau = softmax_pick == 1;
        let f = fixture(seed);
        let probe_ts = Matrix::col_vector(&[0.2, 0.9, 1.7]);
        let mut g = Graph::new();
        let (xv, tv, y, tau, p) = record_selnet_like(&mut g, &f, &x, &probe_ts, softmax_tau);
        let plan = InferencePlan::compile(&g, &[(xv, false), (tv, true)], &[y, tau, p])
            .expect("SelNet-shaped tape must compile");

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 3, 9, 33] {
            let ts: Vec<f32> = (0..rows).map(|i| 2.2 * i as f32 / rows as f32).collect();
            let tm = Matrix::col_vector(&ts);
            let out = plan.run(&mut bufs, rows, |k, m| match k {
                0 => m.data_mut().copy_from_slice(x.data()),
                _ => m.data_mut().copy_from_slice(&ts),
            });

            let mut fresh = Graph::new();
            let (_, _, fy, ftau, fp) = record_selnet_like(&mut fresh, &f, &x, &tm, softmax_tau);
            prop_assert_eq!(out.output(0).data(), fresh.value(fy).data());
            prop_assert_eq!(out.output(1).data(), fresh.value(ftau).data());
            prop_assert_eq!(out.output(2).data(), fresh.value(fp).data());
        }
    }

    /// Batch-everything plans (distinct `(x, t)` per row, batch-broadcast
    /// zeros constant) also replay bit-identically, at row counts on both
    /// sides of the probe size.
    #[test]
    fn batch_plan_matches_tape(seed in 0u64..10_000) {
        let f = fixture(seed ^ 0xb47c4);
        let probe_x = Matrix::from_fn(2, 5, |i, j| ((i * 5 + j) as f32).cos());
        let probe_t = Matrix::col_vector(&[0.4, 1.2]);
        let mut g = Graph::new();
        let (xv, tv, y) = record_batch_like(&mut g, &f, &probe_x, &probe_t);
        let plan = InferencePlan::compile(&g, &[(xv, true), (tv, true)], &[y])
            .expect("batch tape must compile");

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 7, 64] {
            let x = Matrix::from_fn(rows, 5, |i, j| ((seed as usize + i * 5 + j) as f32).sin());
            let ts: Vec<f32> = (0..rows).map(|i| 2.0 * (i as f32 + 0.3) / rows as f32).collect();
            let tm = Matrix::col_vector(&ts);
            let out = plan.run(&mut bufs, rows, |k, m| match k {
                0 => m.data_mut().copy_from_slice(x.data()),
                _ => m.data_mut().copy_from_slice(&ts),
            });
            let mut fresh = Graph::new();
            let (_, _, fy) = record_batch_like(&mut fresh, &f, &x, &tm);
            prop_assert_eq!(out.output(0).data(), fresh.value(fy).data());
        }
    }

    /// Plans are independent of tape state: resetting / reusing the pooled
    /// tape between replays changes nothing, and a plan compiled before a
    /// `reset` keeps answering from its compiled snapshot.
    #[test]
    fn plan_survives_tape_reset_and_pooled_interleaving(seed in 0u64..10_000) {
        let f = fixture(seed ^ 0x9e5e7);
        let x = Matrix::from_fn(1, 5, |_, j| (j as f32) * 0.21 - 0.4);
        let probe_ts = Matrix::col_vector(&[0.1, 0.6, 1.1]);
        let mut g = Graph::new();
        let (xv, tv, y, _, _) = record_selnet_like(&mut g, &f, &x, &probe_ts, false);
        let plan = InferencePlan::compile(&g, &[(xv, false), (tv, true)], &[y]).expect("compiles");
        // reference BEFORE any interference
        let ts = [0.05f32, 0.5, 0.95, 1.4];
        let reference: Vec<f32> = {
            let mut fresh = Graph::new();
            let tm = Matrix::col_vector(&ts);
            let (_, _, fy, _, _) = record_selnet_like(&mut fresh, &f, &x, &tm, false);
            fresh.value(fy).data().to_vec()
        };
        // trash the source tape and exercise the pooled tape in between
        g.reset();
        Graph::with_pooled(|pg| {
            let a = pg.leaf_with(4, 4, |d| d.iter_mut().enumerate().for_each(|(i, v)| *v = i as f32));
            let s = pg.square(a);
            let _ = pg.sum(s);
        });
        let mut bufs = PlanBuffers::new();
        for _ in 0..3 {
            let out = plan.run(&mut bufs, ts.len(), |k, m| match k {
                0 => m.data_mut().copy_from_slice(x.data()),
                _ => m.data_mut().copy_from_slice(&ts),
            });
            prop_assert_eq!(out.output(0).data(), reference.as_slice());
        }
    }

    /// Row-chunked parallel replay is **bit-identical** to single-threaded
    /// replay at every thread count — including uneven splits and more
    /// threads than rows. The chunk boundary can never change a bit
    /// because every batch-scaled kernel is per-row and chunk boundaries
    /// are deterministic.
    #[test]
    fn chunked_replay_matches_serial_at_every_thread_count(seed in 0u64..10_000) {
        let f = fixture(seed ^ 0xc4a11);
        let probe_x = Matrix::from_fn(2, 5, |i, j| ((i * 5 + j) as f32).cos());
        let probe_t = Matrix::col_vector(&[0.4, 1.2]);
        let mut g = Graph::new();
        let (xv, tv, y) = record_batch_like(&mut g, &f, &probe_x, &probe_t);
        let plan = InferencePlan::compile(&g, &[(xv, true), (tv, true)], &[y])
            .expect("batch tape must compile");
        prop_assert!(plan.chunkable(), "no cross-row reduction in this tape");
        prop_assert!(plan.flops_per_row() > 0);

        // uneven row counts on purpose: primes, rows < threads, rows = 1
        for rows in [1usize, 3, 5, 13, 64, 67] {
            let x = Matrix::from_fn(rows, 5, |i, j| ((seed as usize + i * 5 + j) as f32).sin());
            let ts: Vec<f32> = (0..rows).map(|i| 2.0 * (i as f32 + 0.3) / rows as f32).collect();
            // serial reference through the plain replay path
            let reference: Vec<f32> = {
                let mut bufs = PlanBuffers::new();
                let out = plan.run(&mut bufs, rows, |k, m| match k {
                    0 => m.data_mut().copy_from_slice(x.data()),
                    _ => m.data_mut().copy_from_slice(&ts),
                });
                out.output(0).data().to_vec()
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
                    |k, first_row, m| match k {
                        0 => {
                            let take = m.rows() * 5;
                            m.data_mut()
                                .copy_from_slice(&x.data()[first_row * 5..first_row * 5 + take]);
                        }
                        _ => {
                            let take = m.rows();
                            m.data_mut().copy_from_slice(&ts[first_row..first_row + take]);
                        }
                    },
                    |first_row, run, chunk| {
                        let base = offsets[first_row];
                        for (j, &v) in run.output(0).data().iter().enumerate() {
                            let r = first_row + j;
                            chunk[offsets[r] - base..offsets[r + 1] - base].fill(v);
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

    /// A plan with a cross-row reduction (`sum` over the batch) reports
    /// `chunkable() == false`, and `run_chunked` still answers correctly
    /// (it degrades to one serial chunk rather than splitting rows a
    /// reduction spans).
    #[test]
    fn non_chunkable_plans_fall_back_to_serial(seed in 0u64..10_000) {
        let f = fixture(seed ^ 0x5ca1a);
        let probe_x = Matrix::from_fn(2, 5, |i, j| ((i * 5 + j) as f32).cos());
        let mut g = Graph::new();
        let xv = g.leaf_ref(&probe_x);
        let h = f.net.forward(&mut g, &f.store, xv);
        let s = g.square(h);
        let total = g.sum(s);
        let plan = InferencePlan::compile(&g, &[(xv, true)], &[total])
            .expect("reduction tape must compile");
        prop_assert!(!plan.chunkable(), "batch sum must disable chunking");
        prop_assert_eq!(plan.replay_threads(64, 8), 1);

        for rows in [1usize, 4, 19] {
            let x = Matrix::from_fn(rows, 5, |i, j| ((seed as usize + i * 5 + j) as f32).sin());
            let reference: Vec<f32> = {
                let mut bufs = PlanBuffers::new();
                let out = plan.run(&mut bufs, rows, |_, m| {
                    m.data_mut().copy_from_slice(x.data());
                });
                out.output(0).data().to_vec()
            };
            // run_chunked's out slice is per-row even though the output is
            // a scalar: consume sees the whole (single) chunk
            let mut got = vec![f32::NAN; rows];
            plan.run_chunked(
                &(0..=rows).collect::<Vec<_>>(),
                8,
                &mut got,
                |_, first_row, m| {
                    assert_eq!(first_row, 0, "non-chunkable ⇒ one chunk");
                    m.data_mut().copy_from_slice(x.data());
                },
                |_, run, chunk| {
                    chunk[0] = run.output(0).data()[0];
                },
            );
            prop_assert_eq!(got[0], reference[0]);
        }
    }
}
