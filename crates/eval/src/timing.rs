//! Estimation-time measurement (Table 7: average per-query milliseconds).

use crate::estimator::SelectivityEstimator;
use selnet_workload::LabeledQuery;
use std::time::Instant;

/// Timed passes over the split; the result is their median.
const TIMED_PASSES: usize = 5;

/// Average per-estimate latency in milliseconds over a split.
///
/// Every `(x, t)` pair, up to `max_pairs`, is timed through
/// [`SelectivityEstimator::estimate`] (`estimate_into` at one object and
/// one threshold, matching the paper's per-query timing). One untimed
/// pass warms caches and lazily built state first; the result is the
/// median of five timed passes' averages, so one slow pass —
/// a cold start or a burst of host noise — does not decide the ranking.
pub fn average_estimate_ms(
    model: &dyn SelectivityEstimator,
    split: &[LabeledQuery],
    max_pairs: usize,
) -> f64 {
    let pairs: Vec<(&[f32], f32)> = split
        .iter()
        .flat_map(|q| q.thresholds.iter().map(|&t| (q.x.as_slice(), t)))
        .take(max_pairs)
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let pass = || {
        let start = Instant::now();
        for &(x, t) in &pairs {
            std::hint::black_box(model.estimate(x, t));
        }
        start.elapsed().as_secs_f64() * 1e3 / pairs.len() as f64
    };
    pass();
    let mut passes: Vec<f64> = (0..TIMED_PASSES).map(|_| pass()).collect();
    passes.sort_by(f64::total_cmp);
    passes[TIMED_PASSES / 2]
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

    /// A warm-up pass, then five timed passes, each over the capped
    /// pairs only; the median is a finite, positive average.
    #[test]
    fn timing_warms_up_then_takes_the_median_of_five_passes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(AtomicUsize);
        impl SelectivityEstimator for Counting {
            fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
                self.0.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(20));
                crate::per_pair(queries, out, |_, t| t as f64)
            }
            fn name(&self) -> &str {
                "counting"
            }
        }
        let split = vec![
            LabeledQuery {
                x: vec![0.0],
                thresholds: vec![0.5; 30],
                selectivities: vec![1.0; 30],
            };
            2
        ];
        let model = Counting(AtomicUsize::new(0));
        let ms = average_estimate_ms(&model, &split, 40);
        assert_eq!(model.0.load(Ordering::Relaxed), 6 * 40);
        assert!(ms.is_finite() && ms > 0.0, "{ms}");
    }

    #[test]
    fn timing_zero_for_empty_split() {
        assert_eq!(average_estimate_ms(&LinearInT { scale: 1.0 }, &[], 10), 0.0);
    }
}
