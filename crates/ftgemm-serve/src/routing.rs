//! Routing: which execution path a request takes, and what each path has
//! cost so far.
//!
//! The scheduler routes every request by its multiply-add count
//! (`2*m*n*k`): at most the cutoff → coalesced into a batched parallel
//! region, above it → the matrix-parallel driver. The paper's central
//! observation (fused-ABFT overhead depends sharply on problem size) is why
//! there are two paths; the cutoff between them is one constant, fixed when
//! the service is built ([`RoutingPolicy::Fixed`], by default
//! [`DEFAULT_SMALL_FLOPS_CUTOFF`]).
//!
//! Each path also keeps two running totals, nanoseconds and multiply-adds
//! served: every batched region adds its wall time and its items' flops,
//! every matrix-parallel request its own. Their quotient is the path's
//! measured ns/flop, the completion-time model deadline admission control
//! reads (`Route::ns_per_flop`). A path with no evidence yet has no
//! model, and one path's totals never judge a request the cutoff sends to
//! the other.

// Concurrency contract (checked by `scripts/orderings.sh`): the totals are
// plain Relaxed tallies. A reader may see one total of a path updated and
// not yet the other: the estimate is off by one observation, never torn.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::DEFAULT_SMALL_FLOPS_CUTOFF;

/// Where the batched-vs-matrix-parallel boundary of a service sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingPolicy {
    /// Requests of at most this many multiply-adds take the batched path,
    /// larger ones the matrix-parallel one. Fixed for the service's life.
    Fixed(u64),
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        RoutingPolicy::Fixed(DEFAULT_SMALL_FLOPS_CUTOFF)
    }
}

/// The two execution paths a request can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePath {
    /// Coalesced into a batched parallel region (serial driver per item).
    Batched,
    /// Ran alone through the matrix-parallel driver.
    Parallel,
}

/// Nanoseconds and multiply-adds one path has served.
#[derive(Debug, Default)]
struct PathTotals {
    ns: AtomicU64,
    flops: AtomicU64,
}

/// A service's routing: its cutoff and each path's totals.
#[derive(Debug)]
pub(crate) struct Route {
    cutoff: u64,
    batched: PathTotals,
    parallel: PathTotals,
}

impl Route {
    pub(crate) fn new(RoutingPolicy::Fixed(cutoff): RoutingPolicy) -> Self {
        Route {
            cutoff,
            batched: PathTotals::default(),
            parallel: PathTotals::default(),
        }
    }

    /// The flops cutoff the scheduler partitions every sweep by.
    pub(crate) fn cutoff(&self) -> u64 {
        self.cutoff
    }

    /// The path a request of `flops` multiply-adds takes.
    pub(crate) fn path(&self, flops: u64) -> RoutePath {
        if flops <= self.cutoff {
            RoutePath::Batched
        } else {
            RoutePath::Parallel
        }
    }

    fn totals(&self, path: RoutePath) -> &PathTotals {
        match path {
            RoutePath::Batched => &self.batched,
            RoutePath::Parallel => &self.parallel,
        }
    }

    /// Adds one observation: `path` served `flops` multiply-adds in
    /// `elapsed_ns` nanoseconds.
    pub(crate) fn observe(&self, path: RoutePath, flops: u64, elapsed_ns: u64) {
        let totals = self.totals(path);
        totals.ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        totals.flops.fetch_add(flops, Ordering::Relaxed);
    }

    /// `path`'s measured nanoseconds per multiply-add (`Σns / Σflops`), or
    /// `None` while it has served no flops.
    pub(crate) fn ns_per_flop(&self, path: RoutePath) -> Option<f64> {
        let totals = self.totals(path);
        let flops = totals.flops.load(Ordering::Relaxed);
        (flops > 0).then(|| totals.ns.load(Ordering::Relaxed) as f64 / flops as f64)
    }
}
