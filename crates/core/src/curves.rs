//! The curve forward: a SelNet model's networks run without a tape, and
//! the one replay body that turns their curves into estimates.
//!
//! The paper's estimator is a query-dependent piece-wise linear function
//! (§4–§5.1): the networks map **`x` alone** to control points `(τ, p)`,
//! and the threshold `t` enters only at the interpolation of Eq. (1) and
//! at the partition indicator. [`curves`] is the first half: the shared
//! encoder, `[x; z]`, then the `(τ_k, p_k)` of each of the model's `K`
//! curves (one per partition; a model from [`crate::fit`] has one). It
//! calls the `fwd` kernels the tape's ops call, in the tape's order, and
//! reads the weights where the `ParamStore` keeps them, so its curves are
//! the tape's bit for bit and there is nothing to compile or to cache: a
//! retrained model answers from its new weights on the next call.
//! [`replay_curves`] applies the rest with [`pwl_interp_row`], the row
//! body of the tape's own `pwl_interp` op — see "The curve forward" in
//! `ARCHITECTURE.md`.

use crate::model::Scratch;
use crate::partitioned::PartitionedSelNet;
use selnet_tensor::{fwd, pwl_interp_row, Matrix};

/// The buffers of one curve forward, owned by the call that runs it.
#[derive(Default)]
pub(crate) struct Curves {
    x: Matrix,
    input: Matrix,
    scratch: Scratch,
    /// `(τ_k, p_k)` per local model.
    knots: Vec<(Matrix, Matrix)>,
}

/// Runs `model`'s networks over the query objects `xs` and returns one
/// `(τ_k, p_k)` per curve, row `j` belonging to object `j` — except that
/// τ is one shared row when the model was trained without query-dependent
/// knots. Records a `curve_forward` span on the global recorder (inert
/// until armed): a = rows, b = curves.
pub(crate) fn curves<'c, 'x>(
    model: &PartitionedSelNet,
    xs: impl ExactSizeIterator<Item = &'x [f32]>,
    c: &'c mut Curves,
) -> &'c [(Matrix, Matrix)] {
    let _span = selnet_obs::trace::global()
        .span("curve_forward", 0)
        .detail(xs.len() as u64, model.locals.len() as u64);
    c.x.reset_shape(xs.len(), model.dim);
    for (row, x) in c.x.data_mut().chunks_exact_mut(model.dim).zip(xs) {
        row.copy_from_slice(x);
    }
    let z = model.ae.infer(&model.store, &c.x, &mut c.scratch.layers);
    c.input.reset_shape(c.x.rows(), c.x.cols() + z.cols());
    fwd::concat_cols(&c.x, z, &mut c.input);
    c.knots.resize_with(model.locals.len(), Default::default);
    for (nets, out) in model.locals.iter().zip(&mut c.knots) {
        nets.infer(
            &model.store,
            &c.input,
            model.tmax,
            model.cfg.query_dependent_tau,
            &mut c.scratch,
            out,
        );
    }
    &c.knots
}

/// The one replay body: answers every `(x, ts)` query into `out` (cleared
/// first; flat, query order).
///
/// The networks run once over the queries' objects ([`curves`]), then
/// every `(x_i, t_ij)` interpolates its row's curves. The estimate is
/// §5.3's `Σ_k f_c(x, t)[k] · f^(k)(x, t)` with the model's partition
/// indicator as `f_c`: curves it switches off are never interpolated and
/// contribute the same `0.0` term the tape sums.
pub(crate) fn replay_curves(
    model: &PartitionedSelNet,
    queries: &[(&[f32], &[f32])],
    out: &mut Vec<f64>,
) {
    out.clear();
    for (x, _) in queries {
        assert_eq!(x.len(), model.dim, "query dimension mismatch");
    }
    if queries.is_empty() {
        return;
    }
    let mut c = Curves::default();
    let tau_p = curves(model, queries.iter().map(|&(x, _)| x), &mut c);
    // τ is one shared row when the model was trained without
    // query-dependent knots
    fn row_of(m: &Matrix, j: usize) -> &[f32] {
        m.row(if m.rows() == 1 { 0 } else { j })
    }
    let mut knots: Vec<(&[f32], &[f32])> = Vec::with_capacity(tau_p.len());
    let mut on: Vec<bool> = Vec::new();
    for (j, &(x, ts)) in queries.iter().enumerate() {
        knots.clear();
        knots.extend(tau_p.iter().map(|(tau, p)| (row_of(tau, j), row_of(p, j))));
        // one indicator pass per query object: the distances to the
        // region centres do not depend on the threshold
        model.partitioning.indicator_many_into(x, ts, &mut on);
        out.extend(ts.iter().enumerate().map(|(i, &t)| {
            knots
                .iter()
                .zip(&on[i * knots.len()..(i + 1) * knots.len()])
                .map(|(&(tau, p), &on)| {
                    if on {
                        pwl_interp_row(tau, p, t) as f64
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
        }));
    }
}

/// The control points `(τ_k, p_k)` the networks place for one query —
/// what the Figure 4 experiment plots and the per-partition diagnostics
/// interpolate.
pub(crate) fn control_points(model: &PartitionedSelNet, x: &[f32]) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut c = Curves::default();
    curves(model, std::iter::once(x), &mut c)
        .iter()
        .map(|(tau, p)| (tau.row(0).to_vec(), p.row(0).to_vec()))
        .collect()
}
