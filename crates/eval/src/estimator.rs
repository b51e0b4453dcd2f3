//! The estimator interface every model in this workspace implements: one
//! answering method, [`SelectivityEstimator::estimate_into`], of which
//! `estimate`, `estimate_many` and `estimate_batch` are fixed-shape waves
//! that no model overrides.

/// A trained selectivity estimator: answers "how many database objects are
/// within distance `t` of `x`?" (Definition 1 of the paper).
pub trait SelectivityEstimator {
    /// Answers every `(x, ts)` query of a wave into `out` (cleared first),
    /// flat in query order, one estimate per threshold. A query's answers
    /// do not depend on the rest of the wave, to the bit
    /// (`tests/tests/wave_identity.rs`).
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>);

    /// Estimates the selectivity of query `(x, t)`.
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        self.estimate_many(x, std::slice::from_ref(&t))[0]
    }

    /// Estimates selectivities of many thresholds for one query object.
    fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        let mut out = Vec::with_capacity(ts.len());
        self.estimate_into(&[(x, ts)], &mut out);
        out
    }

    /// Estimates selectivities of many **distinct** queries at once:
    /// query `i` is `(xs[i], ts[i])`.
    fn estimate_batch(&self, xs: &[&[f32]], ts: &[f32]) -> Vec<f64> {
        assert_eq!(xs.len(), ts.len(), "one threshold per query object");
        let queries: Vec<(&[f32], &[f32])> = xs
            .iter()
            .zip(ts)
            .map(|(x, t)| (*x, std::slice::from_ref(t)))
            .collect();
        let mut out = Vec::with_capacity(queries.len());
        self.estimate_into(&queries, &mut out);
        out
    }

    /// The query dimensionality this estimator accepts, when it has a
    /// fixed one. Serving layers use this to reject mis-shaped queries
    /// *before* evaluation (the models themselves assert on dimension
    /// mismatch, which must not be reachable from untrusted input).
    fn query_dim(&self) -> Option<usize> {
        None
    }

    /// Model name used in result tables.
    fn name(&self) -> &str;

    /// Whether the model guarantees consistency (monotonicity in `t`);
    /// models marked `*` in the paper's tables.
    fn guarantees_consistency(&self) -> bool {
        false
    }
}

/// [`SelectivityEstimator::estimate_into`] for an estimator that answers
/// one `(x, t)` pair at a time.
pub fn per_pair(
    queries: &[(&[f32], &[f32])],
    out: &mut Vec<f64>,
    mut estimate: impl FnMut(&[f32], f32) -> f64,
) {
    out.clear();
    for &(x, ts) in queries {
        out.extend(ts.iter().map(|&t| estimate(x, t)));
    }
}

impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for Box<T> {
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        (**self).estimate_into(queries, out)
    }

    fn query_dim(&self) -> Option<usize> {
        (**self).query_dim()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn guarantees_consistency(&self) -> bool {
        (**self).guarantees_consistency()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::{per_pair, SelectivityEstimator};

    /// A deterministic fake estimator for metric tests: predicts
    /// `scale * t` regardless of the query.
    pub struct LinearInT {
        pub scale: f64,
    }

    impl SelectivityEstimator for LinearInT {
        fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
            per_pair(queries, out, |_, t| self.scale * t as f64)
        }

        fn name(&self) -> &str {
            "linear-in-t"
        }

        fn guarantees_consistency(&self) -> bool {
            true
        }
    }
}
