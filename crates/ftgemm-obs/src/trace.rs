//! Request-lifecycle tracing: one fixed-capacity ring buffer of span
//! events, stamped with monotonic nanoseconds.
//!
//! The lifecycle a served request walks is
//!
//! ```text
//! admitted → queued → dispatched(path) → computed
//!          → verified / corrected → completed | failed
//! ```
//!
//! Each transition is one [`TraceRecord`] pushed into the ring. The ring is
//! bounded (oldest records overwritten, the overwrite count kept), so
//! tracing cost and memory are constant no matter how long the service
//! runs. [`Tracelog::recent`] reads its time-ordered tail for the `/trace`
//! endpoint.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which execution path a dispatch chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePath {
    /// Coalesced into a batched parallel region.
    Batched,
    /// Routed to the matrix-parallel driver.
    Parallel,
}

impl TracePath {
    /// Stable lowercase label (`batched` / `parallel`).
    pub fn as_str(self) -> &'static str {
        match self {
            TracePath::Batched => "batched",
            TracePath::Parallel => "parallel",
        }
    }
}

/// One lifecycle transition of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Accepted by a submit surface (pre-queue).
    Admitted,
    /// Parked in the submission queue.
    Queued,
    /// Popped by the dispatcher and routed.
    Dispatched {
        /// The execution path the router chose.
        path: TracePath,
    },
    /// The GEMM finished computing (before result bookkeeping).
    Computed,
    /// ABFT verification ran clean or flagged; count of verification
    /// passes.
    Verified {
        /// Verification passes this request's report counted.
        verifications: u64,
    },
    /// ABFT corrected errors in place.
    Corrected {
        /// Elements corrected.
        corrected: u64,
    },
    /// Result delivered successfully.
    Completed,
    /// Result delivered as an error.
    Failed,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Admitted => write!(f, "admitted"),
            TraceEvent::Queued => write!(f, "queued"),
            TraceEvent::Dispatched { path } => write!(f, "dispatched(path={})", path.as_str()),
            TraceEvent::Computed => write!(f, "computed"),
            TraceEvent::Verified { verifications } => {
                write!(f, "verified(passes={verifications})")
            }
            TraceEvent::Corrected { corrected } => write!(f, "corrected(elements={corrected})"),
            TraceEvent::Completed => write!(f, "completed"),
            TraceEvent::Failed => write!(f, "failed"),
        }
    }
}

/// One traced transition: request id, monotonic timestamp, event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The service-assigned request id.
    pub id: u64,
    /// Nanoseconds since the tracelog's epoch (its construction instant).
    pub t_ns: u64,
    /// The lifecycle transition.
    pub event: TraceEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s.
#[derive(Debug)]
pub struct Tracelog {
    epoch: Instant,
    ring: Mutex<VecDeque<TraceRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Tracelog {
    /// A tracelog holding the last `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Tracelog {
            epoch: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records `event` for request `id`, stamped now. The stamp is taken
    /// under the ring's lock, so the ring is in timestamp order.
    pub fn record(&self, id: u64, event: TraceEvent) {
        let mut ring = self.ring.lock();
        let t_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(TraceRecord { id, t_ns, event });
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The most recent `n` records, oldest of the `n` first.
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let ring = self.ring.lock();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .copied()
            .collect()
    }

    /// Plaintext dump of [`recent`](Self::recent)`(n)` for the `/trace`
    /// endpoint: one `t_us=... req=... <event>` line per record.
    pub fn render_text(&self, n: usize) -> String {
        let records = self.recent(n);
        let mut out = String::with_capacity(records.len() * 48 + 64);
        out.push_str(&format!(
            "# tracelog: {} recent of capacity {} (dropped {})\n",
            records.len(),
            self.capacity,
            self.dropped()
        ));
        for r in records {
            out.push_str(&format!(
                "t_us={} req={} {}\n",
                r.t_ns / 1_000,
                r.id,
                r.event
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_time_order() {
        let log = Tracelog::new(8);
        log.record(1, TraceEvent::Admitted);
        log.record(2, TraceEvent::Admitted);
        log.record(1, TraceEvent::Completed);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        assert!(recent.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(recent[0].event, TraceEvent::Admitted);
        assert_eq!(recent[2].event, TraceEvent::Completed);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let log = Tracelog::new(4);
        for id in 0..10u64 {
            log.record(id, TraceEvent::Queued);
        }
        assert_eq!(log.dropped(), 6);
        let recent = log.recent(100);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].id, 6, "oldest surviving record");
        assert_eq!(recent[3].id, 9);
    }

    #[test]
    fn recent_truncates_to_n_keeping_newest() {
        let log = Tracelog::new(16);
        for id in 0..8u64 {
            log.record(id, TraceEvent::Queued);
        }
        let recent = log.recent(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[2].id, 7, "newest kept");
    }

    #[test]
    fn render_text_lines() {
        let log = Tracelog::new(4);
        log.record(
            7,
            TraceEvent::Dispatched {
                path: TracePath::Batched,
            },
        );
        let s = log.render_text(4);
        assert!(s.contains("req=7 dispatched(path=batched)"), "{s}");
        assert!(s.starts_with("# tracelog:"));
    }
}
