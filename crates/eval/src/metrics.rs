//! Error metrics (Appendix B.3) and the empirical monotonicity measure
//! (§7.3).

use crate::estimator::SelectivityEstimator;
use selnet_workload::LabeledQuery;

/// MSE / MAE / MAPE over one evaluation split.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ErrorMetrics {
    /// Mean squared error.
    pub mse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Mean absolute percentage error (`|ŷ−y| / y`; `y` is never 0 in the
    /// paper's workloads since queries are database points).
    pub mape: f64,
    /// Number of `(x, t)` pairs evaluated.
    pub count: usize,
}

/// Accumulates metrics from `(prediction, truth)` pairs.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsAccumulator {
    se: f64,
    ae: f64,
    ape: f64,
    n: usize,
}

impl MetricsAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(prediction, truth)` pair.
    pub fn push(&mut self, pred: f64, truth: f64) {
        let err = pred - truth;
        self.se += err * err;
        self.ae += err.abs();
        // guard against zero labels (cannot happen with Appendix B.1
        // workloads, but Beta-threshold workloads can produce y = 0)
        self.ape += err.abs() / truth.max(1.0);
        self.n += 1;
    }

    /// Finalizes into [`ErrorMetrics`].
    pub fn finish(self) -> ErrorMetrics {
        let n = self.n.max(1) as f64;
        ErrorMetrics {
            mse: self.se / n,
            mae: self.ae / n,
            mape: self.ape / n,
            count: self.n,
        }
    }
}

/// Evaluates an estimator over a labeled split, asked as one wave.
pub fn evaluate(model: &dyn SelectivityEstimator, split: &[LabeledQuery]) -> ErrorMetrics {
    let wave: Vec<_> = split.iter().map(LabeledQuery::query).collect();
    let mut preds = Vec::new();
    model.estimate_into(&wave, &mut preds);
    let truths = split.iter().flat_map(|q| &q.selectivities);
    let mut acc = MetricsAccumulator::new();
    for (&pred, &truth) in preds.iter().zip(truths) {
        acc.push(pred, truth);
    }
    acc.finish()
}

/// The empirical monotonicity measure of §7.3: for `num_queries` queries
/// and `num_thresholds` thresholds each, the percentage of the
/// `C(num_thresholds, 2)` ordered pairs that do **not** violate
/// monotonicity, averaged over queries. Consistent models score 100.
pub fn empirical_monotonicity(
    model: &dyn SelectivityEstimator,
    queries: &[LabeledQuery],
    num_queries: usize,
    num_thresholds: usize,
    tmax: f32,
) -> f64 {
    let take = num_queries.min(queries.len());
    if take == 0 || num_thresholds < 2 {
        return 100.0;
    }
    // evenly spaced thresholds over [0, tmax], as the test samples 100
    // thresholds per query; every query is asked at the one grid, in one
    // wave
    let ts: Vec<f32> = (0..num_thresholds)
        .map(|i| tmax * i as f32 / (num_thresholds - 1) as f32)
        .collect();
    let wave: Vec<_> = queries[..take]
        .iter()
        .map(|q| (&q.x[..], &ts[..]))
        .collect();
    let mut preds = Vec::with_capacity(take * num_thresholds);
    model.estimate_into(&wave, &mut preds);
    let mut total = 0.0f64;
    for preds in preds.chunks_exact(num_thresholds) {
        let mut ok = 0usize;
        let mut pairs = 0usize;
        for i in 0..preds.len() {
            for j in (i + 1)..preds.len() {
                pairs += 1;
                if preds[j] >= preds[i] - 1e-9 {
                    ok += 1;
                }
            }
        }
        total += ok as f64 / pairs.max(1) as f64;
    }
    100.0 * total / take as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::test_util::LinearInT;
    use crate::estimator::{per_pair, SelectivityEstimator};

    fn fixture() -> Vec<LabeledQuery> {
        vec![LabeledQuery {
            x: vec![0.0],
            thresholds: vec![1.0, 2.0],
            selectivities: vec![10.0, 20.0],
        }]
    }

    #[test]
    fn perfect_model_has_zero_error() {
        let model = LinearInT { scale: 10.0 };
        let m = evaluate(&model, &fixture());
        assert_eq!(m.mse, 0.0);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.mape, 0.0);
        assert_eq!(m.count, 2);
    }

    #[test]
    fn known_errors() {
        let model = LinearInT { scale: 11.0 }; // preds 11, 22
        let m = evaluate(&model, &fixture());
        assert!((m.mse - (1.0 + 4.0) / 2.0).abs() < 1e-9);
        assert!((m.mae - 1.5).abs() < 1e-9);
        assert!((m.mape - (0.1 + 0.1) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_model_scores_100() {
        let model = LinearInT { scale: 3.0 };
        let score = empirical_monotonicity(&model, &fixture(), 200, 100, 5.0);
        assert_eq!(score, 100.0);
    }

    struct Sawtooth;
    impl SelectivityEstimator for Sawtooth {
        fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
            // strictly decreasing: every pair violates monotonicity
            per_pair(queries, out, |_, t| -(t as f64))
        }
        fn name(&self) -> &str {
            "sawtooth"
        }
    }

    #[test]
    fn anti_monotone_model_scores_0() {
        let score = empirical_monotonicity(&Sawtooth, &fixture(), 10, 50, 1.0);
        assert!(score < 1e-9);
    }
}
