//! Centralized epoch barrier.
//!
//! A counter-and-epoch barrier: each arrival increments the count; the last
//! arrival resets the count and advances the epoch, releasing the waiters
//! spinning on it. Unlike a sense-reversing barrier there is **no
//! per-participant state**, so any set of threads can reuse the barrier
//! across any number of parallel regions without re-synchronizing tokens —
//! the property the persistent pool needs (the main thread changes identity
//! between regions).
//!
//! Waiting spins with `spin_loop` for a short budget and then yields to the
//! OS — GEMM phases between barriers are long (packing a panel, a macro
//! kernel sweep), so wake-up latency is irrelevant but burning a core is
//! not acceptable when the machine is oversubscribed.

// Concurrency contract (checked by `scripts/orderings.sh`): the
// barrier publishes phase completion through `epoch` (Release store by
// the last arriver, Acquire loads by spinners). `count` is deliberately
// not a publication cell: its AcqRel fetch_add orders arrivals, and the
// Relaxed reset is safe because only the last arriver (who won the
// AcqRel race) writes it before the Release store of `epoch`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A reusable barrier for a fixed set of `n` participants.
#[derive(Debug)]
pub(crate) struct EpochBarrier {
    count: AtomicUsize,
    epoch: AtomicUsize,
    n: usize,
}

impl EpochBarrier {
    /// Barrier for `n` participants (`n >= 1`).
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        EpochBarrier {
            count: AtomicUsize::new(0),
            epoch: AtomicUsize::new(0),
            n,
        }
    }

    /// Number of participants.
    pub(crate) fn participants(&self) -> usize {
        self.n
    }

    /// Blocks until all `n` participants have arrived at this epoch.
    pub(crate) fn wait(&self) {
        let epoch = self.epoch.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            // Last arrival: reset the count for the next epoch, then release.
            self.count.store(0, Ordering::Relaxed);
            self.epoch.store(epoch.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.epoch.load(Ordering::Acquire) == epoch {
                spins = spins.saturating_add(1);
                if spins < 1 << 12 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = EpochBarrier::new(1);
        for _ in 0..100 {
            b.wait();
        }
    }

    #[test]
    fn phases_are_ordered() {
        // Each thread increments a counter before the barrier; after the
        // barrier all participants must observe every increment.
        const T: usize = 8;
        const PHASES: usize = 200;
        let barrier = Arc::new(EpochBarrier::new(T));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..T {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for phase in 1..=PHASES {
                    counter.fetch_add(1, Ordering::Relaxed);
                    barrier.wait();
                    let seen = counter.load(Ordering::Relaxed);
                    assert!(seen >= (phase * T) as u64, "phase {phase}: saw {seen}");
                    barrier.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), (T * PHASES) as u64);
    }

    #[test]
    fn reusable_across_many_epochs() {
        const T: usize = 4;
        let barrier = Arc::new(EpochBarrier::new(T));
        let mut handles = Vec::new();
        for _ in 0..T {
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    barrier.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn changing_participant_identity_is_fine() {
        // The pool's exact pattern: a "main" participant that is a fresh
        // logical context each region, plus persistent workers.
        const REGIONS: usize = 500;
        let barrier = Arc::new(EpochBarrier::new(2));
        let worker = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for _ in 0..REGIONS {
                    barrier.wait();
                }
            })
        };
        for _ in 0..REGIONS {
            // A brand-new "main" context per region: no token state.
            barrier.wait();
        }
        worker.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = EpochBarrier::new(0);
    }
}
