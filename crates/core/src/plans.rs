//! Curve plans: the compiled half of a SelNet model, the one replay body
//! that turns it into estimates, and the version-keyed plan cache.
//!
//! The paper's estimator is a query-dependent piece-wise linear function
//! (§4–§5.1): the networks map **`x` alone** to control points `(τ, p)`,
//! and the threshold `t` enters only at the interpolation of Eq. (1) and
//! at the partition indicator. The compiled program is split at exactly
//! that boundary. A model compiles **one** plan per parameter version,
//! `x [B × d] → (τ_k, p_k)` for each of its `K` curves (one per
//! partition; a model from [`crate::fit`] has one) — no threshold input, no
//! interpolation instruction — and [`replay_curves`] applies the rest
//! with [`selnet_tensor::pwl_interp_row`], the row body of the tape's own
//! `pwl_interp` op, so bit-identity with the tape is structural — see
//! "The curve plan" in `ARCHITECTURE.md`.
//!
//! A model caches its compiled [`InferencePlan`] in a [`PlanCell`], keyed
//! by [`ParamStore::version`](selnet_tensor::ParamStore::version). Any
//! mutation of the store (an optimizer step during a §5.4 retrain, a
//! checkpoint restore) bumps the version, so the next prediction
//! recompiles automatically — there is no invalidation call to forget.
//! Cloning a model (the hot-swap registry's `spawn_update` path) clones an
//! **empty** cell: plans bake parameter values, and the clone builds its
//! own on first use.

use selnet_index::Partitioning;
use selnet_tensor::{pwl_interp_row, InferencePlan, PlanBuffers};
use std::sync::{Arc, RwLock};

/// The one replay body: answers every `(x, ts)` query into `out` (cleared
/// first; flat, query order) from a curve plan whose outputs are
/// `[τ_0, p_0, τ_1, p_1, …]`.
///
/// The plan runs once over the queries' objects, then every `(x_i,
/// t_ij)` interpolates its row's curves. The estimate is §5.3's
/// `Σ_k f_c(x, t)[k] · f^(k)(x, t)` with `partitioning`'s indicator as
/// `f_c`: curves it switches off are never interpolated and contribute the
/// same `0.0` term the tape sums.
pub(crate) fn replay_curves(
    plan: &InferencePlan,
    dim: usize,
    queries: &[(&[f32], &[f32])],
    partitioning: &Partitioning,
    out: &mut Vec<f64>,
) {
    out.clear();
    for (x, _) in queries {
        assert_eq!(x.len(), dim, "query dimension mismatch");
    }
    if queries.is_empty() {
        return;
    }
    let curves = plan.num_outputs() / 2;
    PlanBuffers::with_pooled(|bufs| {
        let run = plan.run(bufs, queries.len(), |m| {
            for (row, (x, _)) in m.data_mut().chunks_exact_mut(dim).zip(queries) {
                row.copy_from_slice(x);
            }
        });
        // τ is one shared row when the model was trained without
        // query-dependent knots
        let row_of = |output: usize, j: usize| {
            let m = run.output(output);
            m.row(if m.rows() == 1 { 0 } else { j })
        };
        let mut knots: Vec<(&[f32], &[f32])> = Vec::with_capacity(curves);
        let mut on: Vec<bool> = Vec::new();
        for (j, &(x, ts)) in queries.iter().enumerate() {
            knots.clear();
            knots.extend((0..curves).map(|k| (row_of(2 * k, j), row_of(2 * k + 1, j))));
            // one indicator pass per query object: the distances to the
            // region centres do not depend on the threshold
            partitioning.indicator_many_into(x, ts, &mut on);
            out.extend(ts.iter().enumerate().map(|(i, &t)| {
                knots
                    .iter()
                    .zip(&on[i * curves..(i + 1) * curves])
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
    });
}

/// The control points `(τ_k, p_k)` a curve plan places for one query —
/// what the Figure 4 experiment plots and the per-partition diagnostics
/// interpolate.
pub(crate) fn control_points(plan: &InferencePlan, x: &[f32]) -> Vec<(Vec<f32>, Vec<f32>)> {
    PlanBuffers::with_pooled(|bufs| {
        let run = plan.run(bufs, 1, |m| m.data_mut().copy_from_slice(x));
        (0..plan.num_outputs() / 2)
            .map(|k| {
                (
                    run.output(2 * k).row(0).to_vec(),
                    run.output(2 * k + 1).row(0).to_vec(),
                )
            })
            .collect()
    })
}

/// A lazily-built slot for a compiled plan `T`, keyed on the parameter
/// version.
pub(crate) struct PlanCell<T> {
    slot: RwLock<Option<(u64, Arc<T>)>>,
}

impl<T> PlanCell<T> {
    pub(crate) fn new() -> Self {
        PlanCell {
            slot: RwLock::new(None),
        }
    }

    /// The cached plan for `version`, building (and caching) it with
    /// `build` when absent or stale. Readers share the slot; a rebuild
    /// takes the write lock briefly and replaces the older version's plan.
    pub(crate) fn get_or(&self, version: u64, build: impl FnOnce() -> T) -> Arc<T> {
        let current = |slot: &Option<(u64, Arc<T>)>| match slot {
            Some((v, plan)) if *v == version => Some(Arc::clone(plan)),
            _ => None,
        };
        if let Some(plan) = current(&self.slot.read().expect("plan cell poisoned")) {
            return plan;
        }
        let mut slot = self.slot.write().expect("plan cell poisoned");
        if let Some(plan) = current(&slot) {
            return plan;
        }
        let plan = Arc::new(build());
        *slot = Some((version, Arc::clone(&plan)));
        plan
    }
}

impl<T> Clone for PlanCell<T> {
    /// Clones as an empty cell: the clone rebuilds its plans on first use
    /// (cheap, and immune to divergence once the clone retrains).
    fn clone(&self) -> Self {
        PlanCell::new()
    }
}

impl<T> Default for PlanCell<T> {
    fn default() -> Self {
        PlanCell::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuilds_only_on_version_change() {
        let cell: PlanCell<u32> = PlanCell::new();
        let mut builds = 0;
        let a = cell.get_or(1, || {
            builds += 1;
            10
        });
        let b = cell.get_or(1, || {
            builds += 1;
            11
        });
        assert_eq!((*a, *b, builds), (10, 10, 1));
        let c = cell.get_or(2, || {
            builds += 1;
            12
        });
        assert_eq!((*c, builds), (12, 2));
    }

    #[test]
    fn clone_is_empty() {
        let cell: PlanCell<u32> = PlanCell::new();
        let _ = cell.get_or(7, || 1);
        let clone = cell.clone();
        let v = clone.get_or(7, || 2);
        assert_eq!(*v, 2, "cloned cell must rebuild, not share");
    }
}
