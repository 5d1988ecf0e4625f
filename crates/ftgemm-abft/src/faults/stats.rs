//! Cross-thread injection/detection/correction counters.

// Concurrency contract (checked by `scripts/orderings.sh`):
// injection tallies only — Relaxed, never a synchronization point.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters describing the life cycle of injected errors.
///
/// `injected` is bumped by [`SiteStream`](super::SiteStream); the detection
/// and correction counters are bumped by the loop nest's one verifier
/// ([`crate::panel::verify`]) when it flags and repairs discrepancies.
#[derive(Debug, Default)]
pub struct InjectionStats {
    injected: AtomicU64,
    detected: AtomicU64,
    corrected: AtomicU64,
    unrecoverable: AtomicU64,
}

impl InjectionStats {
    /// Records one injected error.
    pub(crate) fn record_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }
    /// Records one detected checksum discrepancy.
    pub(crate) fn record_detected(&self) {
        self.detected.fetch_add(1, Ordering::Relaxed);
    }
    /// Records one corrected element.
    pub(crate) fn record_corrected(&self) {
        self.corrected.fetch_add(1, Ordering::Relaxed);
    }
    /// Records one unrecoverable verification failure.
    pub(crate) fn record_unrecoverable(&self) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
