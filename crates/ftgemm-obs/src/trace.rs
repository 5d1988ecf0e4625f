//! Request-lifecycle tracing: fixed-capacity per-node ring buffers of span
//! events, stamped with monotonic nanoseconds.
//!
//! The lifecycle a served request walks is
//!
//! ```text
//! admitted → queued → dispatched(node, path) → computed
//!          → verified / corrected → completed | failed
//! ```
//!
//! Each transition is one [`TraceRecord`] pushed into the ring of the node
//! it happened on. Rings are bounded (oldest records overwritten, the
//! overwrite count kept), so tracing cost and memory are constant no
//! matter how long the service runs. [`Tracelog::recent`] merges the rings
//! into a time-ordered tail for the `/trace` endpoint.

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
    /// Parked in its affinity node's shard group.
    Queued,
    /// Popped by a dispatcher and routed (the record's node is the
    /// *executing* node, which differs from the affinity node when
    /// stolen).
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

/// One traced transition: request id, node, monotonic timestamp, event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The service-assigned request id.
    pub id: u64,
    /// Node whose ring holds the record (affinity node for
    /// admitted/queued, executing node from dispatch onward).
    pub node: usize,
    /// Nanoseconds since the tracelog's epoch (its construction instant).
    pub t_ns: u64,
    /// The lifecycle transition.
    pub event: TraceEvent,
}

/// Per-node bounded ring buffers of [`TraceRecord`]s.
#[derive(Debug)]
pub struct Tracelog {
    epoch: Instant,
    rings: Vec<Mutex<VecDeque<TraceRecord>>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Tracelog {
    /// A tracelog with `nodes` rings of `capacity_per_node` records each.
    pub fn new(nodes: usize, capacity_per_node: usize) -> Self {
        let nodes = nodes.max(1);
        let capacity = capacity_per_node.max(1);
        Tracelog {
            epoch: Instant::now(),
            rings: (0..nodes).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of per-node rings.
    pub fn nodes(&self) -> usize {
        self.rings.len()
    }

    /// Ring capacity per node.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records `event` for request `id` on `node` (indices beyond the ring
    /// count clamp to the last ring), stamped now.
    pub fn record(&self, node: usize, id: u64, event: TraceEvent) {
        let t_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let node = node.min(self.rings.len() - 1);
        #[expect(clippy::indexing_slicing, reason = "node is clamped just above")]
        let mut ring = self.rings[node].lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(TraceRecord {
            id,
            node,
            t_ns,
            event,
        });
    }

    /// Records overwritten because their ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The most recent `n` records across every node's ring, merged and
    /// sorted by timestamp (oldest of the `n` first).
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = Vec::new();
        for ring in &self.rings {
            all.extend(ring.lock().iter().copied());
        }
        all.sort_by_key(|r| r.t_ns);
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Plaintext dump of [`recent`](Self::recent)`(n)` for the `/trace`
    /// endpoint: one `t_us=... req=... node=... <event>` line per record.
    pub fn render_text(&self, n: usize) -> String {
        let records = self.recent(n);
        let mut out = String::with_capacity(records.len() * 48 + 64);
        out.push_str(&format!(
            "# tracelog: {} recent of capacity {}x{} (dropped {})\n",
            records.len(),
            self.rings.len(),
            self.capacity,
            self.dropped()
        ));
        for r in records {
            out.push_str(&format!(
                "t_us={} req={} node={} {}\n",
                r.t_ns / 1_000,
                r.id,
                r.node,
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
    fn records_and_merges_in_time_order() {
        let log = Tracelog::new(2, 8);
        log.record(0, 1, TraceEvent::Admitted);
        log.record(1, 2, TraceEvent::Admitted);
        log.record(0, 1, TraceEvent::Completed);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        assert!(recent.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(recent[0].event, TraceEvent::Admitted);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let log = Tracelog::new(1, 4);
        for id in 0..10u64 {
            log.record(0, id, TraceEvent::Queued);
        }
        assert_eq!(log.dropped(), 6);
        let recent = log.recent(100);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].id, 6, "oldest surviving record");
        assert_eq!(recent[3].id, 9);
    }

    #[test]
    fn recent_truncates_to_n_keeping_newest() {
        let log = Tracelog::new(2, 16);
        for id in 0..8u64 {
            log.record((id % 2) as usize, id, TraceEvent::Queued);
        }
        let recent = log.recent(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[2].id, 7, "newest kept");
    }

    #[test]
    fn out_of_range_node_clamps() {
        let log = Tracelog::new(2, 4);
        log.record(99, 1, TraceEvent::Failed);
        assert_eq!(log.recent(1)[0].node, 1);
    }

    #[test]
    fn render_text_lines() {
        let log = Tracelog::new(1, 4);
        log.record(
            0,
            7,
            TraceEvent::Dispatched {
                path: TracePath::Batched,
            },
        );
        let s = log.render_text(4);
        assert!(s.contains("req=7 node=0 dispatched(path=batched)"), "{s}");
        assert!(s.starts_with("# tracelog:"));
    }
}
