//! Cross-thread injection/detection/correction counters.

// Concurrency contract (checked by `scripts/orderings.sh`):
// injection tallies only — Relaxed, never a synchronization point.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters describing the life cycle of injected errors.
///
/// `injected` is bumped by [`SiteStream`](crate::SiteStream); the detection
/// and correction counters are bumped by the fault-tolerant drivers
/// (`ftgemm-abft` / `ftgemm-parallel`) when their verification passes flag
/// and repair discrepancies.
#[derive(Debug, Default)]
pub struct InjectionStats {
    injected: AtomicU64,
    detected: AtomicU64,
    corrected: AtomicU64,
    unrecoverable: AtomicU64,
}

impl InjectionStats {
    /// Records one injected error.
    pub fn record_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }
    /// Records one detected checksum discrepancy.
    pub fn record_detected(&self) {
        self.detected.fetch_add(1, Ordering::Relaxed);
    }
    /// Records one corrected element.
    pub fn record_corrected(&self) {
        self.corrected.fetch_add(1, Ordering::Relaxed);
    }
    /// Records one unrecoverable verification failure.
    pub fn record_unrecoverable(&self) {
        self.unrecoverable.fetch_add(1, Ordering::Relaxed);
    }

    /// Total injected errors.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
    /// Total detected discrepancies.
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::Relaxed)
    }
    /// Total corrected elements.
    pub fn corrected(&self) -> u64 {
        self.corrected.load(Ordering::Relaxed)
    }
    /// Total unrecoverable failures.
    pub fn unrecoverable(&self) -> u64 {
        self.unrecoverable.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.injected.store(0, Ordering::Relaxed);
        self.detected.store(0, Ordering::Relaxed);
        self.corrected.store(0, Ordering::Relaxed);
        self.unrecoverable.store(0, Ordering::Relaxed);
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "injected={} detected={} corrected={} unrecoverable={}",
            self.injected(),
            self.detected(),
            self.corrected(),
            self.unrecoverable()
        )
    }
}

/// Flop-volume-weighted EWMA of an error rate (detected errors per flop).
///
/// This is the rate machinery behind the serving layer's error-aware
/// fault-policy monitor: each completed request contributes one
/// observation `(detected, flops)`, and the average decays by *observed
/// flop volume*, not wall-clock time — `w = 1 - exp(-flops / tau_flops)`
/// — so the estimate is fully deterministic for a given request sequence
/// (no clock reads) and a big request moves it proportionally more than
/// a small one.
///
/// Plain (non-atomic) state: callers that share one across threads put it
/// behind a lock, as the serving monitor does.
#[derive(Debug, Clone)]
pub struct ErrorRateEwma {
    /// Decay volume: one `tau_flops` of observations carries ~63% weight.
    tau_flops: f64,
    rate: f64,
}

impl ErrorRateEwma {
    /// A zeroed estimator decaying over `tau_flops` flops of history.
    ///
    /// `tau_flops` must be positive; non-positive or non-finite values are
    /// clamped to 1.0 so the estimator degrades to "latest observation
    /// wins" instead of producing NaNs.
    pub fn new(tau_flops: f64) -> Self {
        let tau_flops = if tau_flops.is_finite() && tau_flops > 0.0 {
            tau_flops
        } else {
            1.0
        };
        ErrorRateEwma {
            tau_flops,
            rate: 0.0,
        }
    }

    /// Folds one completed request's `(detected, flops)` into the rate.
    /// Zero-flop observations are ignored (no volume, no evidence).
    pub fn observe(&mut self, detected: u64, flops: u64) {
        if flops == 0 {
            return;
        }
        let w = 1.0 - (-(flops as f64) / self.tau_flops).exp();
        let sample = detected as f64 / flops as f64;
        self.rate += w * (sample - self.rate);
    }

    /// The current detected-errors-per-flop estimate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Resets the estimate to zero (history forgotten).
    pub fn reset(&mut self) {
        self.rate = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ewma_starts_at_zero_and_tracks_detections() {
        let mut e = ErrorRateEwma::new(1.0e6);
        assert_eq!(e.rate(), 0.0);
        e.observe(10, 1_000_000);
        assert!(e.rate() > 0.0);
        // Rate stays below the raw sample (EWMA, not replacement).
        assert!(e.rate() <= 10.0 / 1.0e6 + 1e-18);
    }

    #[test]
    fn ewma_decays_toward_zero_on_clean_volume() {
        let mut e = ErrorRateEwma::new(1.0e6);
        e.observe(100, 1_000_000);
        let peak = e.rate();
        for _ in 0..20 {
            e.observe(0, 1_000_000);
        }
        assert!(e.rate() < peak * 1e-3, "rate {} vs peak {peak}", e.rate());
    }

    #[test]
    fn ewma_is_deterministic_and_clock_free() {
        let run = || {
            let mut e = ErrorRateEwma::new(5.0e5);
            for i in 0..50u64 {
                e.observe(i % 3, 10_000 + i * 1_000);
            }
            e.rate()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn ewma_big_requests_move_it_more() {
        let mut small = ErrorRateEwma::new(1.0e6);
        small.observe(1, 1_000);
        let mut big = ErrorRateEwma::new(1.0e6);
        big.observe(1_000, 1_000_000);
        // Same sample rate (1e-3), but the big observation carries more
        // of its weight into the estimate.
        assert!(big.rate() > small.rate());
    }

    #[test]
    fn ewma_ignores_zero_flops_and_survives_bad_tau() {
        let mut e = ErrorRateEwma::new(0.0);
        e.observe(5, 0);
        assert_eq!(e.rate(), 0.0);
        e.observe(1, 100);
        assert!(e.rate().is_finite());
        e.reset();
        assert_eq!(e.rate(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let s = InjectionStats::default();
        s.record_injected();
        s.record_injected();
        s.record_detected();
        s.record_corrected();
        assert_eq!(s.injected(), 2);
        assert_eq!(s.detected(), 1);
        assert_eq!(s.corrected(), 1);
        assert_eq!(s.unrecoverable(), 0);
    }

    #[test]
    fn reset_clears() {
        let s = InjectionStats::default();
        s.record_unrecoverable();
        s.reset();
        assert_eq!(s.unrecoverable(), 0);
    }

    #[test]
    fn summary_format() {
        let s = InjectionStats::default();
        s.record_injected();
        assert_eq!(
            s.summary(),
            "injected=1 detected=0 corrected=0 unrecoverable=0"
        );
    }

    #[test]
    fn concurrent_increments() {
        let s = Arc::new(InjectionStats::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_injected();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.injected(), 8000);
    }
}
