//! Estimation-time measurement (Table 7: average per-query milliseconds).

use crate::estimator::SelectivityEstimator;
use selnet_workload::LabeledQuery;
use std::time::Instant;

/// Average per-estimate latency in milliseconds over a split.
///
/// Every `(x, t)` pair is timed through [`SelectivityEstimator::estimate`]
/// (`estimate_into` at one object and one threshold, matching the paper's
/// per-query timing).
pub fn average_estimate_ms(
    model: &dyn SelectivityEstimator,
    split: &[LabeledQuery],
    max_pairs: usize,
) -> f64 {
    let mut n = 0usize;
    let start = Instant::now();
    'outer: for q in split {
        for &t in &q.thresholds {
            std::hint::black_box(model.estimate(&q.x, t));
            n += 1;
            if n >= max_pairs {
                break 'outer;
            }
        }
    }
    if n == 0 {
        return 0.0;
    }
    start.elapsed().as_secs_f64() * 1e3 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::test_util::LinearInT;

    #[test]
    fn timing_returns_positive_for_nonempty_split() {
        let split = vec![LabeledQuery {
            x: vec![0.0],
            thresholds: vec![0.5; 100],
            selectivities: vec![1.0; 100],
        }];
        let ms = average_estimate_ms(&LinearInT { scale: 1.0 }, &split, 1000);
        assert!(ms >= 0.0);
    }

    #[test]
    fn timing_zero_for_empty_split() {
        assert_eq!(average_estimate_ms(&LinearInT { scale: 1.0 }, &[], 10), 0.0);
    }
}
