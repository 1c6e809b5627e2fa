//! Log2-bucketed latency histogram.
//!
//! Values (nanoseconds by convention) land in bucket `⌊log2(v)⌋ + 1`, so each
//! bucket spans one power of two — at most 2× relative error on any reported
//! percentile, which is plenty for "did rule evaluation blow its budget".
//!
//! A [`LatencyHistogram`] keeps one stripe per dispatcher slot
//! ([`crate::stripe`]) and a snapshot sums them. Recording is two relaxed
//! read-modify-writes in the caller's own stripe (bucket, sum) and a load of
//! its max — a third RMW only when the sample raises it; no allocation, no
//! locks. A stripe's buckets and max are a [`Buckets`], which keeps no sum:
//! an owner that records several values per operation (a rule's books) keeps
//! the sums on the one line it writes anyway.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stripe::Stripes;

/// Bucket count: bucket 0 holds exact zeros, buckets 1..=62 hold
/// `[2^(i-1), 2^i)`, bucket 63 holds everything from `2^62` up.
pub const BUCKETS: usize = 64;

/// Bucket a value falls into.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Smallest value belonging to bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Largest value belonging to bucket `i` (reported as the percentile value).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// One stripe's buckets and running max; the sum is its owner's.
pub struct Buckets {
    counts: [AtomicU64; BUCKETS],
    max: AtomicU64,
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }
}

impl Buckets {
    /// Record one duration (nanoseconds by convention), adding it to `sum`.
    #[inline]
    pub fn record(&self, sum: &AtomicU64, nanos: u64) {
        self.counts[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        sum.fetch_add(nanos, Ordering::Relaxed);
        // The max rises a handful of times in a histogram's life; every other
        // sample leaves its cache line unwritten.
        if nanos > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(nanos, Ordering::Relaxed);
        }
    }

    /// Add this stripe, whose sum is `sum`, into `snap`.
    pub fn add_to(&self, sum: &AtomicU64, snap: &mut HistogramSnapshot) {
        for (out, b) in snap.buckets.iter_mut().zip(&self.counts) {
            let n = b.load(Ordering::Relaxed);
            *out += n;
            snap.count += n;
        }
        snap.sum += sum.load(Ordering::Relaxed);
        snap.max = snap.max.max(self.max.load(Ordering::Relaxed));
    }
}

/// One stripe of a [`LatencyHistogram`], on cache lines of its own.
#[repr(align(64))]
#[derive(Default)]
struct Stripe {
    sum: AtomicU64,
    buckets: Buckets,
}

/// Concurrent histogram of durations, striped by dispatcher.
#[derive(Default)]
pub struct LatencyHistogram {
    stripes: Stripes<Stripe>,
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one duration (nanoseconds by convention).
    #[inline]
    pub fn record(&self, nanos: u64) {
        let s = self.stripes.mine();
        s.buckets.record(&s.sum, nanos);
    }

    /// Materialize the current contents, summed over the stripes. Not
    /// linearizable under concurrent `record`s, exact once writers are
    /// quiescent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for s in self.stripes.iter() {
            s.buckets.add_to(&s.sum, &mut snap);
        }
        snap
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &s.count)
            .field("p99", &s.p99())
            .field("max", &s.max)
            .finish()
    }
}

/// Point-in-time copy of a [`LatencyHistogram`], with percentile math.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value; 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` ∈ \[0, 1\]: the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, capped at the observed
    /// max. 0 when empty. Within 2× of the true quantile by construction.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Fold another snapshot into this one (for aggregating e.g. all
    /// per-rule histograms into one monitor-wide view).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bucket's bounds round-trip through bucket_index.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i, "lower of {i}");
            if i < BUCKETS - 1 {
                assert_eq!(bucket_index(bucket_upper_bound(i)), i, "upper of {i}");
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let h = LatencyHistogram::new();
        // 100 samples: 90 × 100ns, 9 × 10_000ns, 1 × 1_000_000ns.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
        // p50 and p90 land in 100's bucket [64,128), p95+p99 in 10_000's
        // bucket [8192,16384), p100 in the max's.
        assert_eq!(s.p50(), 127);
        assert_eq!(s.percentile(0.90), 127);
        assert_eq!(s.p95(), 16_383);
        assert_eq!(s.p99(), 16_383);
        assert_eq!(s.percentile(1.0), 1_000_000);
    }

    #[test]
    fn merge_is_additive() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        a.record(500);
        b.record(100_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 100_510);
        assert_eq!(m.max, 100_000);
        assert_eq!(m.percentile(1.0), 100_000);
    }

    proptest! {
        #[test]
        fn bucket_index_orders_and_bounds(v in any::<u64>()) {
            let i = bucket_index(v);
            prop_assert!(i < BUCKETS);
            prop_assert!(bucket_lower_bound(i) <= v);
            prop_assert!(v <= bucket_upper_bound(i));
        }

        #[test]
        fn percentile_is_monotone_and_bounded(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        ) {
            let h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            let true_max = *values.iter().max().unwrap();
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.max, true_max);
            // Monotone in q, and never above the observed max.
            let mut prev = 0u64;
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let p = s.percentile(q);
                prop_assert!(p >= prev);
                prop_assert!(p <= true_max);
                prev = p;
            }
            // The reported quantile is within one log2 bucket of the true
            // quantile: true_q <= reported (upper bound of true_q's bucket,
            // modulo the max cap which only tightens it).
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.95, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let true_q = sorted[rank - 1];
                prop_assert!(s.percentile(q) >= true_q);
            }
        }
    }
}
