//! Lock-free log-bucketed histograms (HDR-style).
//!
//! A [`Histogram`] records unsigned integer samples (microseconds, rows,
//! bytes — any magnitude) into a fixed array of atomic buckets: values
//! below `2 *` [`SUB_BUCKETS`] land in unit-width buckets (exact), and
//! every higher octave `[2^k, 2^(k+1))` is split into [`SUB_BUCKETS`]
//! equal sub-buckets, so the relative quantization error is bounded by
//! `1 / SUB_BUCKETS` everywhere. Recording is one relaxed `fetch_add`
//! per sample — no lock, no allocation, no sample limit — which is what
//! lets a serving hot path keep exact-to-bucket percentiles over
//! unbounded runs with zero dropped samples.
//!
//! [`HistogramSnapshot`]s are plain bucket-count vectors: mergeable
//! (bucket-wise addition, associative and commutative), queryable for
//! quantiles, and cheap to ship across threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave: 64, so every reported quantile is within
/// `1/64 ≈ 1.6%` of the exact sorted-sample quantile, and every value
/// below `2 * 64 = 128` is recorded exactly.
pub const SUB_BUCKETS: usize = 64;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count needed to cover all of `u64`:
/// the two unit-width octaves plus `SUB_BUCKETS` buckets for each of the
/// remaining octaves up to `2^63`.
pub const BUCKET_COUNT: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// The bucket index `value` lands in. Total order preserving: larger
/// values never map to smaller indices.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    let sub = SUB_BUCKETS as u64;
    if value < sub {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    (((shift as u64 + 1) << SUB_BITS) + ((value >> shift) - sub)) as usize
}

/// The smallest value mapping to bucket `index` — the representative a
/// quantile query reports, so quantiles never overshoot the data.
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = index >> SUB_BITS;
    let offset = (index & (SUB_BUCKETS - 1)) as u64;
    (SUB_BUCKETS as u64 + offset) << (octave as u32 - 1)
}

/// One past the largest value mapping to bucket `index` (saturating at
/// `u64::MAX` for the top bucket).
#[inline]
pub fn bucket_high(index: usize) -> u64 {
    if index + 1 >= BUCKET_COUNT {
        return u64::MAX;
    }
    bucket_low(index + 1)
}

/// A lock-free log-bucketed histogram. All methods take `&self`;
/// concurrent recorders never block each other and never lose a sample.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (~30 KiB of zeroed buckets).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKET_COUNT]> = buckets
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("bucket count is fixed"));
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: one relaxed `fetch_add` on its bucket (plus
    /// the running sum and max). Never blocks, never drops.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total samples recorded so far (sum over buckets — consistent with
    /// what a concurrent [`Histogram::snapshot`] would count).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the bucket counts. The snapshot's `count`
    /// is derived from its own buckets, so it is always self-consistent
    /// even while recorders are running.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A mergeable point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`BUCKET_COUNT`] entries).
    pub buckets: Vec<u64>,
    /// Total samples (always `buckets.iter().sum()`).
    pub count: u64,
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
    /// Largest value recorded (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An all-zero snapshot (the identity element of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` in bucket-wise. Merging is associative and
    /// commutative, so per-shard or per-tenant snapshots can be combined
    /// in any order into the same fleet view.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`), reported as the
    /// lower bound of the bucket holding that rank — within one bucket's
    /// relative error (`1/64`) of the exact sorted-sample quantile, and
    /// exact for values below `2 * 64`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // nearest-rank: ceil(q * N), clamped into [1, N]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(i);
            }
        }
        bucket_low(BUCKET_COUNT - 1)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(low, high, count)` ranges, ascending —
    /// what the Prometheus `le` rendering and compact JSON series
    /// iterate, skipping the (vast) zero majority.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), bucket_high(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_exact_below_two_octaves() {
        for v in 0..(2 * SUB_BUCKETS as u64) {
            let i = bucket_index(v);
            assert_eq!(bucket_low(i), v, "value {v} must be exact");
            assert_eq!(bucket_high(i), v + 1);
        }
    }

    #[test]
    fn indices_are_monotone_and_in_range() {
        let probes: Vec<u64> = (0..64)
            .flat_map(|s| {
                let base = 1u64 << s;
                [base.saturating_sub(1), base, base + 1, base + base / 3]
            })
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut last = 0usize;
        for v in sorted {
            let i = bucket_index(v);
            assert!(i < BUCKET_COUNT, "index {i} out of range for {v}");
            assert!(i >= last, "index must be monotone in value ({v})");
            assert!(bucket_low(i) <= v, "low({i}) > {v}");
            assert!(v < bucket_high(i) || bucket_high(i) == u64::MAX, "{v}");
            last = i;
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in 0..BUCKET_COUNT - 1 {
            let (lo, hi) = (bucket_low(i), bucket_high(i));
            if lo >= SUB_BUCKETS as u64 {
                let width = (hi - lo) as f64;
                assert!(
                    width / lo as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                    "bucket {i} [{lo}, {hi}) too wide"
                );
            }
        }
    }

    #[test]
    fn quantiles_of_small_values_are_exact() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.quantile(0.5), 50);
        assert_eq!(snap.quantile(0.99), 99);
        assert_eq!(snap.quantile(1.0), 100);
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.max, 100);
        assert!((snap.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_of_large_values_are_within_one_bucket() {
        let h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| 1_000_000 + 997 * i).collect();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let exact = values[499]; // nearest-rank p50 of 1000 sorted values
        let got = snap.quantile(0.5);
        let err = (got as f64 - exact as f64).abs() / exact as f64;
        assert!(err <= 1.0 / SUB_BUCKETS as f64, "p50 {got} vs {exact}");
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(&[1, 2, 300]), mk(&[4_000_000]), mk(&[7, 7, 7]));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = b.clone();
        a_bc.merge(&c);
        a_bc.merge(&a);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.count, 7);
    }

    #[test]
    fn concurrent_recording_never_drops_a_sample() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..50_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                });
            }
        });
        assert_eq!(h.count(), 200_000);
        assert_eq!(h.snapshot().count, 200_000);
    }

    #[test]
    fn empty_snapshot_is_identity() {
        let h = Histogram::new();
        h.record(42);
        let mut snap = h.snapshot();
        let before = snap.clone();
        snap.merge(&HistogramSnapshot::empty());
        assert_eq!(snap, before);
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0);
        assert_eq!(HistogramSnapshot::empty().mean(), 0.0);
    }
}
