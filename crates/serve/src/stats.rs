//! Serving telemetry: request/row/batch counters, lock-free latency and
//! batch-size histograms, the retrain-latency record, and the bounded
//! slow-query log.
//!
//! Every hot-path update is a relaxed atomic op ([`selnet_obs`]
//! counters and log-bucketed histograms) — no lock, no allocation, no
//! sample cap. Percentiles are exact-to-bucket (within `1/64` relative
//! error, exact below 128 µs) over **unbounded** runs with zero dropped
//! samples, replacing the old `Mutex<Vec<u64>>` record that stopped
//! sampling after 1M requests.
//!
//! An event is counted **once**, in its tenant's [`ServeStats`]. Every
//! wider view is derived at read time by one fold
//! (`StatsSnapshot::fold`): counters summed, latency histograms merged
//! bucket by bucket — exactly what a fleet-wide set of counters would
//! have held, without a second write on the hot path. A tenant's own
//! [`ServeStats::snapshot`] is that fold over one.

use selnet_obs::{Counter, Histogram, HistogramSnapshot, SlowQuery, SlowQueryLog};

/// Slow queries each stats instance retains (newest win); the total ever
/// seen is counted separately and never truncates.
const SLOW_LOG_CAP: usize = 128;

/// One tenant's serving counters. All methods take `&self` and are
/// lock-free — engine workers never contend on telemetry.
pub struct ServeStats {
    pub(crate) requests: Counter,
    pub(crate) rows: Counter,
    pub(crate) batches: Counter,
    pub(crate) shed_requests: Counter,
    pub(crate) slow_requests: Counter,
    /// End-to-end request latency (enqueue → reply), microseconds.
    latency_us: Histogram,
    /// Rows per coalesced batch evaluation — the batch-occupancy
    /// distribution behind `mean_batch_rows`.
    batch_size_rows: Histogram,
    /// Background retrain / traced-publish latency, microseconds
    /// (recorded by [`Tenant::publish_traced`](crate::registry::Tenant)).
    retrain_us: Histogram,
    slow_log: SlowQueryLog,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        ServeStats {
            requests: Counter::new(),
            rows: Counter::new(),
            batches: Counter::new(),
            shed_requests: Counter::new(),
            slow_requests: Counter::new(),
            latency_us: Histogram::new(),
            batch_size_rows: Histogram::new(),
            retrain_us: Histogram::new(),
            slow_log: SlowQueryLog::new(SLOW_LOG_CAP),
        }
    }

    /// Records the answered requests of one coalesced batch —
    /// `(rows, latency_us)` per request, latency from enqueue to reply.
    /// Every answered request is recorded here, by the worker that
    /// answered it. Purely lock-free.
    pub fn record_requests(&self, served: &[(u64, u64)]) {
        let total_rows: u64 = served.iter().map(|&(r, _)| r).sum();
        self.requests.add(served.len() as u64);
        self.rows.add(total_rows);
        for &(_, us) in served {
            self.latency_us.record(us);
        }
    }

    /// Records one coalesced batch evaluation of `rows` total rows.
    pub fn record_batch(&self, rows: u64) {
        self.batches.inc();
        self.batch_size_rows.record(rows);
    }

    /// Records a request refused by admission control (`Overloaded`).
    /// Shed requests are not counted in `requests` — they were never
    /// answered.
    pub fn record_shed(&self) {
        self.shed_requests.inc();
    }

    /// Records one traced publish / background retrain that took
    /// `update_ms` wall-clock milliseconds.
    pub fn record_retrain_ms(&self, update_ms: f64) {
        self.retrain_us.record((update_ms.max(0.0) * 1e3) as u64);
    }

    /// Records one slow request (past the engine's threshold) into the
    /// bounded slow-query log, keyed by its trace ID.
    pub fn record_slow(&self, trace_id: u64, rows: u64, latency_us: u64) {
        self.slow_requests.inc();
        self.slow_log.push(SlowQuery {
            trace_id,
            rows,
            latency_us,
        });
    }

    /// The retained slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.snapshot()
    }

    /// The end-to-end latency distribution (microsecond buckets).
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.latency_us.snapshot()
    }

    /// The rows-per-coalesced-batch distribution.
    pub fn batch_size_histogram(&self) -> HistogramSnapshot {
        self.batch_size_rows.snapshot()
    }

    /// The retrain-latency distribution (microsecond buckets).
    pub fn retrain_histogram(&self) -> HistogramSnapshot {
        self.retrain_us.snapshot()
    }

    /// A consistent copy of the counters with percentiles computed from
    /// the latency histogram — no lock, no sort, O(buckets).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::fold(&[self])
    }
}

/// Point-in-time view of [`ServeStats`].
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Requests answered.
    pub requests: u64,
    /// `(x, t)` rows evaluated.
    pub rows: u64,
    /// Coalesced batch evaluations run.
    pub batches: u64,
    /// Always 0: the engine has no reply cache. Read only by
    /// `benchmark/`; drop it with its `cache.*` rows in ROADMAP 6a's
    /// `[benchmark]` PR.
    pub cache_hits: u64,
    /// Always 0: every request rides the queue and is answered by a
    /// worker. Read only by `benchmark/`; drop it with `cache_hits` in
    /// ROADMAP 6a's `[benchmark]` PR.
    pub inline_requests: u64,
    /// Requests refused by admission control (`Overloaded` replies).
    /// Refusals are not answers: they are excluded from `requests`,
    /// `rows`, and the latency record.
    pub shed_requests: u64,
    /// Requests slower than the engine's slow-query threshold (0 when
    /// the threshold is disabled). Every one is in the latency record
    /// too; the newest also sit in the slow-query log with their trace
    /// IDs.
    pub slow_requests: u64,
    /// Median end-to-end request latency, microseconds (exact to one
    /// histogram bucket — `1/64` relative — over the whole run; no
    /// sample is ever dropped).
    pub p50_latency_us: u64,
    /// 99th-percentile end-to-end request latency, microseconds (same
    /// bucket resolution as `p50_latency_us`).
    pub p99_latency_us: u64,
    /// Largest end-to-end request latency observed, microseconds.
    pub max_latency_us: u64,
    /// Mean rows per coalesced batch, `rows / batches` — the coalescing
    /// win in one number (`0` when no batch has run).
    pub mean_batch_rows: f64,
}

impl StatsSnapshot {
    /// The one way counters become a snapshot: every counter summed over
    /// `stats`, the latency histograms merged (same buckets, counts add —
    /// so p50 / p99 / max are those of all the samples together). One
    /// tenant's snapshot is this over one; the fleet's is this over every
    /// tenant.
    pub(crate) fn fold(stats: &[&ServeStats]) -> StatsSnapshot {
        let sum = |counter: fn(&ServeStats) -> &Counter| -> u64 {
            stats.iter().map(|s| counter(s).get()).sum()
        };
        let mut lat = HistogramSnapshot::empty();
        for s in stats {
            lat.merge(&s.latency_us.snapshot());
        }
        let (rows, batches) = (sum(|s| &s.rows), sum(|s| &s.batches));
        StatsSnapshot {
            requests: sum(|s| &s.requests),
            rows,
            batches,
            cache_hits: 0,
            inline_requests: 0,
            shed_requests: sum(|s| &s.shed_requests),
            slow_requests: sum(|s| &s.slow_requests),
            p50_latency_us: lat.quantile(0.50),
            p99_latency_us: lat.quantile(0.99),
            max_latency_us: lat.max,
            mean_batch_rows: if batches == 0 {
                0.0
            } else {
                rows as f64 / batches as f64
            },
        }
    }

    /// Always 0: the engine has no reply cache. Read only by
    /// `benchmark/`; drop it with its `cache.*` rows in ROADMAP 6a's
    /// `[benchmark]` PR.
    pub fn cache_evictions(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_counters() {
        let s = ServeStats::new();
        // a hundred one-request batches of two rows each
        for i in 1..=100u64 {
            s.record_batch(2);
            s.record_requests(&[(2, i)]);
        }
        s.record_shed();
        // one coalesced batch of three requests (3 + 5 + 4 = 12 rows)
        s.record_batch(12);
        s.record_requests(&[(3, 101), (5, 102), (4, 103)]);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 103);
        assert_eq!(snap.rows, 212);
        assert_eq!(snap.batches, 101);
        assert_eq!(snap.shed_requests, 1);
        // every latency here is below 128 µs, so the log-bucketed record
        // reproduces the nearest-rank percentiles exactly
        assert_eq!(snap.p50_latency_us, 52);
        assert_eq!(snap.p99_latency_us, 102);
        assert_eq!(snap.max_latency_us, 103);
        // the coalescing mean is rows over batches: 212 / 101
        assert_eq!(snap.mean_batch_rows, 212.0 / 101.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let snap = ServeStats::new().snapshot();
        assert_eq!(snap.p50_latency_us, 0);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.mean_batch_rows, 0.0);
        assert_eq!(snap.shed_requests, 0);
        assert_eq!(snap.slow_requests, 0);
    }

    /// The headline fix of the histogram swap: percentiles over a run
    /// far past the old 1M-sample cap, with **zero** dropped samples —
    /// the p99 of a 1.2M-request run reflects the late samples the old
    /// `Mutex<Vec>` record silently discarded.
    #[test]
    fn percentiles_cover_millions_of_samples_without_dropping() {
        let s = ServeStats::new();
        const N: u64 = 1_200_000;
        // first 1.1M requests are fast (10 µs), the last 100k are slow
        // (5000 µs) — under the old capped recorder the slow tail past
        // sample 2^20 vanished from the percentiles entirely
        for i in 0..N {
            let us = if i < 1_100_000 { 10 } else { 5_000 };
            s.record_requests(&[(1, us)]);
        }
        let snap = s.snapshot();
        assert_eq!(snap.requests, N);
        let lat = s.latency_histogram();
        assert_eq!(lat.count, N, "every sample must be recorded");
        assert_eq!(snap.p50_latency_us, 10);
        // 100k / 1.2M ≈ 8.3% slow: p99 must land in the slow bucket
        // (within one bucket's 1/64 relative error of 5000)
        assert!(
            snap.p99_latency_us >= 4_900,
            "p99 must see the late slow tail, got {}",
            snap.p99_latency_us
        );
        assert_eq!(snap.max_latency_us, 5_000);
    }

    #[test]
    fn slow_queries_are_logged_and_counted() {
        let s = ServeStats::new();
        for i in 0..200u64 {
            s.record_slow(i + 1, 4, 10_000 + i);
        }
        assert_eq!(s.snapshot().slow_requests, 200);
        let log = s.slow_queries();
        assert_eq!(log.len(), 128, "the log is bounded");
        assert_eq!(log.last().unwrap().trace_id, 200, "newest kept");
    }

    #[test]
    fn retrain_latencies_land_in_their_histogram() {
        let s = ServeStats::new();
        s.record_retrain_ms(2.5);
        s.record_retrain_ms(40.0);
        let hist = s.retrain_histogram();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.max, 40_000, "recorded in microseconds");
    }
}
