//! Lock-free metric primitives: counters, gauges, and log-bucketed
//! histograms. Every hot-path operation is a handful of relaxed atomic
//! read-modify-writes — no locks, no allocation.

// Concurrency contract (checked by `scripts/orderings.sh`): every
// atomic here is a monotonic counter or gauge scraped asynchronously —
// Relaxed only; none of them may become a synchronization point.

use crate::percentile::nearest_rank;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// The canonical Prometheus counter: only ever goes up, rendered with a
/// `_total` suffix by convention (the convention is the caller's job — the
/// registry renders whatever name it was registered under).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down, stored as `f64` bits in one
/// atomic word.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0), // 0u64 == 0.0f64 bit pattern
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative); a CAS loop, still lock-free.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket `i >= 1` holds values whose bit
/// length is `i`, i.e. `[2^(i-1), 2^i - 1]`; bucket 0 holds exactly `{0}`.
/// 40 buckets cover `0` through `2^38 - 1` ns (~4.6 minutes) with the last
/// bucket absorbing everything larger — ample for request latencies.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log2-bucketed histogram of `u64` samples (nanoseconds by convention).
///
/// One [`AtomicU64`] per bucket plus a sum and a count; recording is three
/// relaxed `fetch_add`s, so the hot path takes no locks and never
/// allocates. Percentiles are derived from the bucket counts
/// ([`Histogram::quantile`]) with one-bucket-width resolution — the
/// property pinned by `tests/properties_obs.rs` is that a derived
/// percentile is an upper bound on the exact sorted percentile, off by at
/// most the width of the bucket the exact sample fell in.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: its bit length, clamped to the last bucket.
fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The `[lower, upper]` value range of the bucket a sample lands in
/// (public so tests can assert the one-bucket-width percentile bound).
pub fn bucket_bounds(v: u64) -> (u64, u64) {
    let i = bucket_index(v);
    if i == 0 {
        (0, 0)
    } else if i == HISTOGRAM_BUCKETS - 1 {
        (1 << (i - 1), u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        #[expect(clippy::indexing_slicing, reason = "bucket_index clamps into range")]
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (index `i` = values of bit length `i`).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        #[expect(clippy::indexing_slicing, reason = "i < HISTOGRAM_BUCKETS")]
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Inclusive upper value bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The `pct`-th percentile derived from the bucket counts: the upper
    /// bound of the bucket holding the nearest-rank sample — the **same
    /// rank definition** as the exact [`percentile`](crate::percentile)
    /// helper, so the derived value is always `>=` the exact one and off
    /// by less than that sample's bucket width. `0` before any sample.
    pub fn quantile(&self, pct: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // 0-based rank of the sample an exact sorted percentile would pick.
        let rank = nearest_rank(pct, total as usize) as u64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HISTOGRAM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_bracket_their_sample() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 20, u64::MAX] {
            let (lo, hi) = bucket_bounds(v);
            assert!(lo <= v && v <= hi, "{v}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_counts_and_sum() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
    }

    #[test]
    fn quantile_upper_bounds_exact_percentile() {
        let h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).collect();
        for &v in &samples {
            h.record(v);
        }
        for pct in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let rank = nearest_rank(pct, samples.len());
            let exact = samples[rank]; // already sorted
            let q = h.quantile(pct);
            let (_, hi) = bucket_bounds(exact);
            assert!(q >= exact, "pct {pct}: q {q} < exact {exact}");
            assert_eq!(
                q, hi,
                "pct {pct}: q should be the exact sample's bucket cap"
            );
        }
    }

    #[test]
    fn quantile_empty_is_zero() {
        assert_eq!(Histogram::new().quantile(50.0), 0);
    }
}
