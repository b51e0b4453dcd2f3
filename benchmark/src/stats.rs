//! The arithmetic behind the reported numbers: quantiles, the
//! percentile picker and windowed throughput.

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (0 for none); the mean of the two middle
/// values when the count is even.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a timing may be reported at, per mille, lowest first.
pub const PER_MILLE: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest of [`PER_MILLE`] (as a fraction) that still has at least
/// ten samples beyond it among `n` samples; `None` below twenty samples,
/// where not even the median has.
pub fn highest_supported(n: usize) -> Option<f64> {
    PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n as u64 * (1_000 - pm) >= 10_000)
        .map(|&pm| pm as f64 / 1e3)
}

/// Completion rate, per second, of each of `windows` equal parts of
/// `[start, end)`: every `(time, amount)` completion is credited to the
/// part it fell in. Throughput is reported as the **median** of these
/// (over every round of a phase): a stall or a slow first window moves
/// the total but not the median.
pub fn window_rates(
    completions: &[(u64, u64)],
    start_ns: u64,
    end_ns: u64,
    windows: usize,
) -> Vec<f64> {
    let windows = windows.max(1);
    let span = end_ns.saturating_sub(start_ns);
    if span == 0 {
        return Vec::new();
    }
    let width = span as f64 / windows as f64;
    let mut counts = vec![0.0f64; windows];
    for &(at, amount) in completions {
        if at < start_ns || at >= end_ns {
            continue;
        }
        let w = (((at - start_ns) as f64 / width) as usize).min(windows - 1);
        counts[w] += amount as f64;
    }
    counts.iter().map(|c| c / (width / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(99), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in [20usize, 150, 777, 5_000, 123_456] {
            let p = highest_supported(n).unwrap();
            assert!(n as f64 * (1.0 - p) >= 10.0 - 1e-9);
        }
    }

    #[test]
    fn throughput_is_the_median_window_not_the_mean() {
        // four 1 s windows: 100, 100, 10 (a stall), 100 completions
        let mut c = Vec::new();
        for (w, n) in [100u64, 100, 10, 100].iter().enumerate() {
            for i in 0..*n {
                c.push((w as u64 * 1_000_000_000 + i * 1_000_000, 1));
            }
        }
        let rates = window_rates(&c, 0, 4_000_000_000, 4);
        assert_eq!(rates, [100.0, 100.0, 10.0, 100.0]);
        assert_eq!(median(&rates), 100.0);
        // amounts are credited, and completions outside are ignored
        let c = [(500u64, 40u64), (1_500, 40), (2_500, 40), (9_999, 40)];
        let rates = window_rates(&c, 0, 3_000, 3);
        assert!(
            rates.iter().all(|r| (r - 40.0 / 1e-6).abs() < 1.0),
            "{rates:?}"
        );
        assert!(window_rates(&c, 5, 5, 3).is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
