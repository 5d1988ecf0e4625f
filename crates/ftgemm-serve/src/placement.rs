//! Request → node placement: which node's shard group a request is queued on.
//!
//! Placement is decided **once, at submit time** — the chosen node is
//! stamped on the envelope as its *node affinity* and selects the node's
//! shard group in the [`ShardedQueue`](crate::queue::ShardedQueue). A request
//! leaves its affinity node only through explicit work stealing, when that
//! node's shard group runs dry while another node has backlog.
//!
//! Every decision path here is a pure function of the request and the
//! current queue depths — no wall clock, no RNG — so placement is
//! reproducible under [`Topology::synthetic`](crate::Topology::synthetic):
//! identical submission sequences give identical affinities.

use crate::request::GemmRequest;
use ftgemm_core::Scalar;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How the service picks a request's node affinity at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Cycle over nodes in submission order. Ignores locality; useful as a
    /// balanced-load baseline and for tests that want a known placement
    /// sequence.
    RoundRobin,
    /// The request's [`home`](crate::GemmRequest::home) hint when it has one
    /// (the default). Without one, a deterministic hash of the operand
    /// buffer addresses that spreads requests over the nodes — not a page
    /// lookup: no memory is asked where it lives.
    #[default]
    OperandHome,
    /// The node whose shard group currently holds the fewest *planned
    /// flops* (ties break to the lowest node id). Load is measured in
    /// work, not request count — one queued 4096³ GEMM weighs thousands of
    /// times more than one 64³ — so a node buried under a single huge
    /// request is not mistaken for idle. Ignores locality in exchange for
    /// balance.
    LeastLoaded,
}

/// Submit-side placement state: the policy plus the round-robin cursor.
#[derive(Debug)]
pub(crate) struct Placer {
    policy: PlacementPolicy,
    rr: AtomicUsize,
}

impl Placer {
    pub(crate) fn new(policy: PlacementPolicy) -> Self {
        Placer {
            policy,
            rr: AtomicUsize::new(0),
        }
    }

    pub(crate) fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Stamps a node affinity for `req`. `node_load(i)` reports node `i`'s
    /// current shard-group backlog in planned flops (only consulted by
    /// `LeastLoaded`).
    pub(crate) fn place<T: Scalar>(
        &self,
        req: &GemmRequest<T>,
        nodes: usize,
        node_load: impl Fn(usize) -> u64,
    ) -> usize {
        debug_assert!(nodes >= 1);
        if nodes == 1 {
            return 0;
        }
        match self.policy {
            PlacementPolicy::RoundRobin => self.rr.fetch_add(1, Ordering::Relaxed) % nodes,
            PlacementPolicy::OperandHome => {
                req.home.unwrap_or_else(|| {
                    operand_home(
                        req.a.as_slice().as_ptr() as usize,
                        req.b.as_slice().as_ptr() as usize,
                        nodes,
                    )
                }) % nodes
            }
            #[expect(clippy::expect_used, reason = "nodes >= 1, so the range is not empty")]
            PlacementPolicy::LeastLoaded => (0..nodes)
                .min_by_key(|&n| (node_load(n), n))
                .expect("nodes >= 1"),
        }
    }
}

/// Deterministic operand-address hash: mixes the page-granular operand
/// addresses through a Fibonacci-hash step so adjacent allocations spread
/// over nodes instead of aliasing onto one. The math is done in `u64` so
/// the constant and the high-half extraction are well-defined on 32-bit
/// targets too.
fn operand_home(a_addr: usize, b_addr: usize, nodes: usize) -> usize {
    let page_a = a_addr as u64 >> 12;
    let page_b = b_addr as u64 >> 12;
    let mixed = (page_a ^ page_b.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize % nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::Matrix;

    fn req(seed: u64) -> GemmRequest<f64> {
        GemmRequest::new(
            Matrix::<f64>::random(4, 4, seed),
            Matrix::<f64>::random(4, 4, seed + 1),
        )
    }

    #[test]
    fn single_node_short_circuits() {
        let placer = Placer::new(PlacementPolicy::LeastLoaded);
        assert_eq!(placer.place(&req(1), 1, |_| 99), 0);
    }

    #[test]
    fn round_robin_cycles() {
        let placer = Placer::new(PlacementPolicy::RoundRobin);
        let seq: Vec<usize> = (0..6).map(|i| placer.place(&req(i), 3, |_| 0)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn operand_home_honors_explicit_hint() {
        let placer = Placer::new(PlacementPolicy::OperandHome);
        let r = req(2).with_home(5);
        // Hints beyond the node count wrap rather than panic.
        assert_eq!(placer.place(&r, 4, |_| 0), 1);
        let r = req(3).with_home(2);
        assert_eq!(placer.place(&r, 4, |_| 0), 2);
    }

    #[test]
    fn operand_home_is_stable_per_request() {
        let placer = Placer::new(PlacementPolicy::OperandHome);
        let r = req(4);
        let first = placer.place(&r, 4, |_| 0);
        for _ in 0..8 {
            assert_eq!(placer.place(&r, 4, |_| 0), first);
        }
        assert!(first < 4);
    }

    #[test]
    fn least_loaded_picks_min_and_breaks_ties_low() {
        let placer = Placer::new(PlacementPolicy::LeastLoaded);
        let loads = [3u64, 1, 2, 1];
        assert_eq!(placer.place(&req(5), 4, |n| loads[n]), 1);
        let even = [2u64, 2, 2];
        assert_eq!(placer.place(&req(6), 3, |n| even[n]), 0);
    }

    #[test]
    fn least_loaded_weighs_flops_not_request_count() {
        // Node 0 holds one huge queued GEMM (2 * 1024^3 flops); node 1
        // holds four tiny ones (4 * 2 * 16^3). Counting requests would call
        // node 0 "less loaded"; counting flops must send work to node 1.
        let placer = Placer::new(PlacementPolicy::LeastLoaded);
        let huge = 2u64 * 1024 * 1024 * 1024;
        let four_tiny = 4 * 2 * 16 * 16 * 16;
        let loads = [huge, four_tiny];
        assert_eq!(placer.place(&req(7), 2, |n| loads[n]), 1);
    }
}
