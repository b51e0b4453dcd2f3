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
        self.estimate_into(&queries, 1, &mut out);
        out
    }

    /// The serving hook: answers every `(x, ts)` query of a wave into
    /// `out` (cleared first), flat in query order — query `i`'s estimates
    /// follow query `i - 1`'s, one per threshold. `threads` is the worker
    /// budget one wave may fan its evaluation across (`0` = the
    /// process-wide `selnet_tensor::parallel` configuration, `1` =
    /// serial).
    ///
    /// The default ignores `threads` and loops
    /// [`SelectivityEstimator::estimate_many`] — correct for estimators
    /// without compiled plans (histograms, samplers, reference tapes),
    /// which have nothing to fan out. Plan-backed models override it with
    /// one network pass over the wave's query objects; an override must
    /// produce exactly the values `estimate_many` returns per query, and
    /// `threads` must never change a bit (parallelism is a latency knob,
    /// never an accuracy knob).
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], threads: usize, out: &mut Vec<f64>) {
        let _ = threads;
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

/// Definition 1's similarity variant: for a *similarity* function `sim`
/// with `sim = 1 - d` (e.g. cosine similarity vs cosine distance), the
/// selectivity `|{o : sim(x, o) >= s}|` equals `|{o : d(x, o) <= 1 - s}|`.
/// This view adapts any distance-threshold estimator to similarity
/// thresholds; estimates are monotonically non-increasing in `s` whenever
/// the inner estimator is consistent.
pub struct SimilarityView<'a, E: SelectivityEstimator + ?Sized> {
    inner: &'a E,
}

impl<'a, E: SelectivityEstimator + ?Sized> SimilarityView<'a, E> {
    /// Wraps a distance-based estimator.
    pub fn new(inner: &'a E) -> Self {
        SimilarityView { inner }
    }

    /// Estimates `|{o : sim(x, o) >= s}|`.
    pub fn estimate(&self, x: &[f32], s: f32) -> f64 {
        self.inner.estimate(x, 1.0 - s)
    }

    /// Batched similarity estimates.
    pub fn estimate_many(&self, x: &[f32], sims: &[f32]) -> Vec<f64> {
        let ts: Vec<f32> = sims.iter().map(|&s| 1.0 - s).collect();
        self.inner.estimate_many(x, &ts)
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

    fn estimate_into(&self, queries: &[(&[f32], &[f32])], threads: usize, out: &mut Vec<f64>) {
        (**self).estimate_into(queries, threads, out)
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
mod tests {
    use super::test_util::LinearInT;
    use super::*;

    #[test]
    fn similarity_view_flips_monotonicity() {
        let model = LinearInT { scale: 10.0 };
        let view = SimilarityView::new(&model);
        // estimates decrease as the similarity threshold rises
        let e_low = view.estimate(&[0.0], 0.2);
        let e_high = view.estimate(&[0.0], 0.8);
        assert!(e_low > e_high);
        // and match the distance-space equivalent
        assert_eq!(view.estimate(&[0.0], 0.3), model.estimate(&[0.0], 0.7));
        let many = view.estimate_many(&[0.0], &[0.1, 0.5]);
        assert_eq!(many[0], model.estimate(&[0.0], 0.9));
        assert_eq!(many[1], model.estimate(&[0.0], 0.5));
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
