//! Property tests for the observability primitives: the log-bucketed
//! histogram's derived percentiles must bracket the exact sample
//! percentiles within one bucket's width, and the trace rings must keep
//! their newest-records-win and drop-accounting invariants under arbitrary
//! record streams.

use ftgemm::obs::{bucket_bounds, nearest_rank, percentile, Histogram, TraceEvent, Tracelog};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary nanosecond samples and an arbitrary percentile, the
    /// histogram's derived quantile is the upper bound of the bucket
    /// containing the exact nearest-rank sample — i.e. it never
    /// underestimates, and overestimates by at most one bucket width.
    #[test]
    fn histogram_quantile_brackets_exact_percentile(
        len in 1usize..200, pct in 0.0f64..100.0, seed in 0u64..10_000
    ) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let h = Histogram::new();
        let mut samples = Vec::with_capacity(len);
        for _ in 0..len {
            // Spread samples across many orders of magnitude (1ns..~1s).
            let v = next() % (1u64 << (1 + (next() % 30) as u32));
            h.record(v);
            samples.push(v);
        }

        samples.sort_unstable();
        let exact = samples[nearest_rank(pct, samples.len())];
        let derived = h.quantile(pct);
        let (lo, hi) = bucket_bounds(exact);
        prop_assert!(derived >= exact,
            "derived {derived} underestimates exact {exact} (pct {pct})");
        prop_assert!(derived == hi,
            "derived {derived} is not the bucket upper bound {hi} of exact {exact} (lo {lo})");
    }

    /// The shared nearest-rank rule agrees between the f64 `percentile`
    /// (the benchmark path) and integer sample selection: applying it to
    /// the same ordered data picks the same element.
    #[test]
    fn percentile_is_nearest_rank_selection(len in 1usize..100, pct in 0.0f64..100.0) {
        let samples: Vec<f64> = (0..len).map(|i| i as f64 * 1.5).collect();
        let by_fn = percentile(&samples, pct);
        let by_rank = samples[nearest_rank(pct, samples.len())];
        prop_assert_eq!(by_fn, by_rank);
    }

    /// Histogram count and sum are exact regardless of bucketing.
    #[test]
    fn histogram_count_and_sum_are_exact(len in 0usize..300, seed in 0u64..1_000) {
        let h = Histogram::new();
        let mut total = 0u64;
        for i in 0..len {
            let v = seed.wrapping_mul(31).wrapping_add(i as u64 * 7) % 1_000_000;
            h.record(v);
            total += v;
        }
        prop_assert_eq!(h.count(), len as u64);
        prop_assert_eq!(h.sum(), total);
    }

    /// The trace ring under arbitrary load: `recent(n)` returns at most `n`
    /// records in nondecreasing timestamp order, retained records never
    /// exceed the capacity, and every overwrite is counted in `dropped`.
    #[test]
    fn trace_rings_bound_retention_and_count_drops(
        capacity in 1usize..32, records in 0usize..200
    ) {
        let log = Tracelog::new(capacity);
        for i in 0..records {
            log.record(i as u64, TraceEvent::Queued);
        }
        let all = log.recent(usize::MAX);
        prop_assert_eq!(all.len(), records.min(capacity));
        prop_assert_eq!(all.len() + log.dropped() as usize, records);
        for pair in all.windows(2) {
            prop_assert!(pair[0].t_ns <= pair[1].t_ns, "recent() not time-ordered");
        }
        // The retained records are the newest ones, in order.
        let ids: Vec<u64> = all.iter().map(|r| r.id).collect();
        let newest: Vec<u64> = (records - all.len()..records).map(|i| i as u64).collect();
        prop_assert_eq!(ids, newest);
        let tail = log.recent(3);
        prop_assert!(tail.len() <= 3);
        prop_assert_eq!(tail.last().map(|r| r.t_ns), all.last().map(|r| r.t_ns));
    }
}
