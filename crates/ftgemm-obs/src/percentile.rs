//! The one percentile implementation shared across the workspace.
//!
//! Both the exact sorted-sample percentile (used by `ftgemm-bench`'s
//! latency tables, re-exported there) and the histogram-derived quantile
//! ([`Histogram::quantile`](crate::Histogram)) pick the **same**
//! nearest-rank sample, so a bucketed percentile differs from the exact one
//! only by the resolution of the bucket that sample fell in — never by a
//! rank-definition mismatch.

/// 0-based nearest-rank index for the `pct`-th percentile over `n` sorted
/// samples: `round(pct/100 * (n-1))`, clamped into `[0, n-1]` (so
/// out-of-range percentiles saturate at the extremes).
pub fn nearest_rank(pct: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((pct / 100.0) * (n - 1) as f64).round();
    (rank.max(0.0) as usize).min(n - 1)
}

/// Percentile (0..=100, nearest-rank on a copy) of a sample set; `0.0` for
/// an empty set.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    #[expect(clippy::indexing_slicing, reason = "nearest_rank(_, n) < n, n > 0")]
    sorted[nearest_rank(pct, sorted.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(50.0, 0), 0);
        assert_eq!(nearest_rank(0.0, 5), 0);
        assert_eq!(nearest_rank(100.0, 5), 4);
        assert_eq!(nearest_rank(150.0, 5), 4, "clamps above 100");
        assert_eq!(nearest_rank(-10.0, 5), 0, "clamps below 0");
        // Two samples: half-away-from-zero rounding puts 50% on the upper.
        assert_eq!(nearest_rank(49.0, 2), 0);
        assert_eq!(nearest_rank(50.0, 2), 1);
    }

    #[test]
    fn percentile_matches_sorted_rank() {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 0.0), 0.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample_at_any_pct() {
        for pct in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], pct), 7.5, "pct {pct}");
        }
    }

    #[test]
    fn percentile_two_samples_split_at_the_midpoint() {
        // Nearest-rank over [1, 9]: the fractional rank pct/100 rounds to
        // index 0 below 50% and to index 1 from 50% up (f64::round is
        // half-away-from-zero, so exactly 0.5 lands on the upper sample).
        let two = [1.0, 9.0];
        assert_eq!(percentile(&two, 0.0), 1.0);
        assert_eq!(percentile(&two, 49.0), 1.0);
        assert_eq!(percentile(&two, 50.0), 9.0);
        assert_eq!(percentile(&two, 100.0), 9.0);
    }

    #[test]
    fn percentile_sorts_its_input_copy() {
        // Unsorted input must give the same answers as sorted input, and
        // must not be reordered in place.
        let unsorted = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(percentile(&unsorted, 0.0), 10.0);
        assert_eq!(percentile(&unsorted, 50.0), 30.0);
        assert_eq!(percentile(&unsorted, 100.0), 50.0);
        assert_eq!(unsorted, [30.0, 10.0, 50.0, 20.0, 40.0]);
    }

    #[test]
    fn percentile_clamps_out_of_range_pct() {
        let samples = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 150.0), 3.0, "pct > 100 clamps to max");
    }
}
