//! Property tests of the served curve forward at the network level:
//! [`ControlPointNets::infer`], which SelNet serves from, equals
//! [`ControlPointNets::control_points`] recorded on a tape **bit for bit**
//! — the control points `(τ, p)` and the estimates interpolated from them —
//! for both τ normalizations, shared and query-dependent τ, random
//! weights, and batch sizes that grow and shrink between calls sharing one
//! [`Scratch`] and one output pair.
//!
//! The tape, which interpolates with its own `pwl_interp` op, is the
//! oracle; the served side interpolates with [`pwl_interp_row`], as
//! `estimate_into` does.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_core::model::{ControlPointNets, Scratch};
use selnet_core::{SelNetConfig, TauNormalization};
use selnet_tensor::{pwl_interp_row, Graph, Matrix, ParamStore};

/// Width of the enhanced input `[x; z]`.
const IN_DIM: usize = 7;
const TMAX: f32 = 2.0;

fn config(softmax_tau: bool, query_dependent_tau: bool) -> SelNetConfig {
    SelNetConfig {
        query_dependent_tau,
        tau_normalization: if softmax_tau {
            TauNormalization::Softmax
        } else {
            TauNormalization::Norml2
        },
        ..SelNetConfig::tiny()
    }
}

/// Networks at `tiny()` widths with every weight and bias redrawn in
/// `[-1, 1)`, so the biases and the ReLUs bite.
fn fixture(seed: u64, cfg: &SelNetConfig) -> (ParamStore, ControlPointNets) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let nets = ControlPointNets::new(&mut store, "m", IN_DIM, cfg, &mut rng);
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        for v in store.value_mut(id).data_mut() {
            *v = rng.gen_range(-1.0f32..1.0);
        }
    }
    (store, nets)
}

fn batch_x(seed: u64, rows: usize) -> Matrix {
    Matrix::from_fn(rows, IN_DIM, |i, j| {
        ((seed as usize + i * IN_DIM + j) as f32).sin()
    })
}

/// A threshold per batch row, spread over and a little past `[0, TMAX]`.
fn thresholds(rows: usize) -> Vec<f32> {
    (0..rows)
        .map(|i| 1.1 * TMAX * i as f32 / rows as f32)
        .collect()
}

/// What the tape answers for `x` at `ts`: `(τ, p, pwl_interp(τ, p, ts))`.
fn tape_oracle(
    store: &ParamStore,
    nets: &ControlPointNets,
    x: &Matrix,
    ts: &[f32],
    query_dependent_tau: bool,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut g = Graph::new();
    let xv = g.leaf_ref(x);
    let (tau, p) = nets.control_points(&mut g, store, xv, TMAX, query_dependent_tau);
    let tv = g.leaf_ref(&Matrix::col_vector(ts));
    let y = g.pwl_interp(tau, p, tv);
    (bits(g.value(tau)), bits(g.value(p)), bits(g.value(y)))
}

/// Row `j`'s estimate at `t` from the served `(τ, p)` — τ is one shared
/// row when it is not query-dependent.
fn interpolate(out: &(Matrix, Matrix), j: usize, t: f32) -> f32 {
    let tau_row = if out.0.rows() == 1 { 0 } else { j };
    pwl_interp_row(out.0.row(tau_row), out.1.row(j), t)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn served_estimates(out: &(Matrix, Matrix), ts: &[f32]) -> Vec<u32> {
    ts.iter()
        .enumerate()
        .map(|(j, &t)| interpolate(out, j, t).to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The served forward of a SelNet network equals the tape bit for bit
    /// — control points and the interpolated estimates — for both τ
    /// normalizations, shared and query-dependent τ, and every batch size,
    /// with one `Scratch` and one output pair reused across all calls
    /// (recycled capacity must not change a bit).
    #[test]
    fn selnet_like_plan_matches_tape(
        seed in 0u64..10_000,
        softmax_pick in 0usize..2,
        query_dependent_pick in 0usize..2,
    ) {
        let query_dependent_tau = query_dependent_pick == 1;
        let cfg = config(softmax_pick == 1, query_dependent_tau);
        let (store, nets) = fixture(seed, &cfg);
        let mut scratch = Scratch::default();
        let mut out = (Matrix::default(), Matrix::default());
        for rows in [1usize, 2, 3, 9, 33, 2] {
            let x = batch_x(seed, rows);
            let ts = thresholds(rows);
            nets.infer(&store, &x, TMAX, query_dependent_tau, &mut scratch, &mut out);
            let (ftau, fp, fy) = tape_oracle(&store, &nets, &x, &ts, query_dependent_tau);
            let tau_rows = if query_dependent_tau { rows } else { 1 };
            prop_assert_eq!(out.0.shape(), (tau_rows, cfg.control_points + 2));
            prop_assert_eq!(bits(&out.0), ftau);
            prop_assert_eq!(bits(&out.1), fp);
            prop_assert_eq!(served_estimates(&out, &ts), fy);
        }
    }

    /// With query-dependent τ the zero column in front of τ follows the
    /// batch: row counts on both sides of the last call, up to 64, answer
    /// bit-identically to the tape.
    #[test]
    fn batch_plan_matches_tape(seed in 0u64..10_000) {
        let cfg = config(false, true);
        let (store, nets) = fixture(seed ^ 0xb47c4, &cfg);
        let mut scratch = Scratch::default();
        let mut out = (Matrix::default(), Matrix::default());
        for rows in [1usize, 2, 7, 64, 3] {
            let x = batch_x(seed, rows);
            let ts = thresholds(rows);
            nets.infer(&store, &x, TMAX, true, &mut scratch, &mut out);
            let (ftau, _, fy) = tape_oracle(&store, &nets, &x, &ts, true);
            prop_assert_eq!(out.0.rows(), rows);
            prop_assert_eq!(bits(&out.0), ftau);
            prop_assert_eq!(served_estimates(&out, &ts), fy);
        }
    }

    /// The served forward does not depend on tape state: recording a tape
    /// of the same networks, resetting it, and recording unrelated ops on
    /// another tape between calls changes no bit of the answer.
    #[test]
    fn plan_survives_tape_reset_and_pooled_interleaving(seed in 0u64..10_000) {
        let query_dependent_tau = false;
        let cfg = config(false, query_dependent_tau);
        let (store, nets) = fixture(seed ^ 0x9e5e7, &cfg);
        let x = batch_x(seed, 4);
        let ts = [0.05f32, 0.5, 0.95, 1.4];
        // reference BEFORE any interference
        let (_, _, reference) = tape_oracle(&store, &nets, &x, &ts, query_dependent_tau);
        let mut scratch = Scratch::default();
        let mut out = (Matrix::default(), Matrix::default());
        for _ in 0..3 {
            let mut g = Graph::new();
            let xv = g.leaf_ref(&x);
            let _ = nets.control_points(&mut g, &store, xv, TMAX, query_dependent_tau);
            g.reset();
            let mut other = Graph::new();
            let a = other.leaf_with(4, 4, |d| {
                d.iter_mut().enumerate().for_each(|(i, v)| *v = i as f32)
            });
            let s = other.square(a);
            let _ = other.sum(s);
            nets.infer(&store, &x, TMAX, query_dependent_tau, &mut scratch, &mut out);
            prop_assert_eq!(served_estimates(&out, &ts), reference.clone());
        }
    }
}
