//! The estimator interface every model in this workspace implements.

/// A trained selectivity estimator: answers "how many database objects are
/// within distance `t` of `x`?" (Definition 1 of the paper).
pub trait SelectivityEstimator {
    /// Estimates the selectivity of query `(x, t)`.
    fn estimate(&self, x: &[f32], t: f32) -> f64;

    /// Estimates selectivities of many thresholds for one query object.
    ///
    /// The default loops over [`SelectivityEstimator::estimate`]; batched
    /// models override this with a single network evaluation.
    fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        ts.iter().map(|&t| self.estimate(x, t)).collect()
    }

    /// Estimates selectivities of many **distinct** queries at once:
    /// query `i` is `(xs[i], ts[i])`. Provided on top of
    /// [`SelectivityEstimator::estimate_into`].
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

    /// The serving hook: answers every `(x, ts)` query of a wave into
    /// `out` (cleared first), flat in query order — query `i`'s estimates
    /// follow query `i - 1`'s, one per threshold.
    ///
    /// The default loops [`SelectivityEstimator::estimate_many`] — correct
    /// for estimators without a batched forward (histograms, samplers,
    /// reference tapes). SelNet overrides it with one network pass over
    /// the wave's query objects; an override must produce exactly the
    /// values `estimate_many` returns per query.
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        out.clear();
        for &(x, ts) in queries {
            out.extend(self.estimate_many(x, ts));
        }
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

impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for Box<T> {
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        (**self).estimate(x, t)
    }

    fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        (**self).estimate_many(x, ts)
    }

    fn estimate_batch(&self, xs: &[&[f32]], ts: &[f32]) -> Vec<f64> {
        (**self).estimate_batch(xs, ts)
    }

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
    use super::SelectivityEstimator;

    /// A deterministic fake estimator for metric tests: predicts
    /// `scale * t` regardless of the query.
    pub struct LinearInT {
        pub scale: f64,
    }

    impl SelectivityEstimator for LinearInT {
        fn estimate(&self, _x: &[f32], t: f32) -> f64 {
            self.scale * t as f64
        }

        fn name(&self) -> &str {
            "linear-in-t"
        }

        fn guarantees_consistency(&self) -> bool {
            true
        }
    }
}
