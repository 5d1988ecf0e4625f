//! Reusable workspace for the matrix-parallel entries.
//!
//! The paper's threaded scheme (§2.3) requests the shared packed `B~` and
//! each thread's private `A~` once and reuses them. [`ParFtWorkspace`] is
//! that state — plus the checksum vectors and per-thread reduction lanes
//! of the protected nest — as a value the caller owns: build it once
//! ([`ParFtWorkspace::for_problem`], or [`ParFtWorkspace::for_plain`] and
//! let [`run_parallel`](crate::run_parallel) grow it), then hand it to
//! [`par_ft_gemm_with_ws`](crate::par_ft_gemm_with_ws) /
//! [`par_gemm_with_ws`](crate::par_gemm_with_ws) any number of times —
//! those calls perform **zero heap allocation**. The nest rewrites every
//! region of the workspace it reads (packing covers whole padded slabs,
//! checksum vectors are overwritten per column block, reduction lanes are
//! zero-filled per panel), so no cross-call re-zeroing is needed.

use crate::ctx::ParGemmContext;
use ftgemm_abft::nest::Checks;
use ftgemm_abft::FtConfig;
use ftgemm_core::{AlignedVec, Scalar};
use parking_lot::Mutex;

/// Preallocated shared + per-thread state for the matrix-parallel entries.
///
/// Capacities are upper bounds: a workspace built for `m x n x k` also
/// serves any problem with smaller `m`, `k`, column-block and depth-panel
/// extents on the *same* thread count (see [`Self::fits`]).
#[derive(Debug)]
pub struct ParFtWorkspace<T: Scalar> {
    a_len: usize,
    /// The shared packed `B~`, sized by the blocking, not the problem.
    pub(crate) btilde: AlignedVec<T>,
    /// Checksum vectors and one reduction lane per pool thread.
    pub(crate) checks: Checks<T>,
    /// Per-thread private packed `A~` buffers. Slot `t` is locked only by
    /// pool thread `t` inside a region, so the mutexes are uncontended;
    /// they exist to keep the type `Sync`.
    pub(crate) atilde: Vec<Mutex<AlignedVec<T>>>,
}

/// What [`Checks`] must hold for an `m x n x k` problem under `ctx`.
fn needs<T: Scalar>(ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> [usize; 4] {
    [m, k, ctx.params.nc.min(n), ctx.params.kc.min(k)]
}

impl<T: Scalar> ParFtWorkspace<T> {
    /// Workspace sized for one `m x n x k` problem under `ctx`'s blocking
    /// parameters and thread count.
    ///
    /// # Panics
    /// If `ctx.params` fail validation (contexts built through the public
    /// constructors always validate).
    pub fn for_problem(ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> Self {
        Self::with_capacities(ctx, needs(ctx, m, n, k))
    }

    /// Workspace for the *unprotected* entry only: packed `B~` plus
    /// per-thread `A~` buffers, with zero-capacity checksum state.
    /// Satisfies [`fits_plain`](Self::fits_plain) for any problem on
    /// `ctx`'s thread count, but not [`fits`](Self::fits) — handing it to
    /// the protected entry panics rather than computing garbage.
    pub fn for_plain(ctx: &ParGemmContext<T>) -> Self {
        Self::with_capacities(ctx, [0; 4])
    }

    fn with_capacities(ctx: &ParGemmContext<T>, caps: [usize; 4]) -> Self {
        ctx.params.validate().expect("valid blocking params");
        let a_len = ctx.params.packed_a_len();
        let zeroed = AlignedVec::zeroed_or_panic;
        ParFtWorkspace {
            a_len,
            btilde: zeroed(ctx.params.packed_b_len()),
            checks: Checks::new(ctx.nthreads(), caps),
            atilde: (0..ctx.nthreads())
                .map(|_| Mutex::new(zeroed(a_len)))
                .collect(),
        }
    }

    /// True when this workspace can serve an `m x n x k` problem under
    /// `ctx` with the *protected* entry, without reallocation. Requires
    /// the exact thread count it was built for (reduction lanes are
    /// reduced across *all* lanes).
    pub fn fits(&self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> bool {
        self.fits_plain(ctx) && self.checks.fits(needs(ctx, m, n, k))
    }

    /// True when this workspace can serve the *unprotected* entry under
    /// `ctx` (only the packed `B~` and per-thread `A~` buffers are
    /// touched, whose sizes depend on blocking parameters, not the
    /// problem).
    pub fn fits_plain(&self, ctx: &ParGemmContext<T>) -> bool {
        let p = ctx.params;
        self.atilde.len() == ctx.nthreads()
            && self.a_len >= p.packed_a_len()
            && self.btilde.len() >= p.packed_b_len()
    }

    /// Grows the workspace (reallocating) if `m x n x k` under `ctx` does
    /// not fit; no-op otherwise. Capacities never shrink.
    pub fn ensure(&mut self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) {
        if !self.fits_plain(ctx) {
            *self = Self::for_plain(ctx);
        }
        self.checks.ensure(ctx.nthreads(), needs(ctx, m, n, k));
    }

    /// Grows the base snapshot a rollback restores from where `cfg` and
    /// `beta` call for one (never at `beta == 0`), once: a plan calls this
    /// at plan time, the protected entries on every call, so replays of a
    /// reserved shape allocate nothing.
    pub fn reserve_base(&mut self, cfg: &FtConfig, beta: T) {
        self.checks.reserve_base(cfg, beta);
    }

    /// Stable address of the workspace's packed-`B~` buffer.
    ///
    /// Diagnostics hook: a caller replaying one plan can assert this value
    /// does not change across runs, proving the hot path reuses (rather
    /// than reallocates) its buffers.
    pub fn base_addr(&self) -> usize {
        self.btilde.as_ptr() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_and_ensure() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let mut ws = ParFtWorkspace::for_problem(&ctx, 64, 64, 64);
        assert!(ws.fits(&ctx, 64, 64, 64));
        assert!(ws.fits(&ctx, 32, 64, 16));
        let addr = ws.base_addr();
        ws.ensure(&ctx, 64, 64, 64);
        assert_eq!(ws.base_addr(), addr, "no-op ensure must not reallocate");
        ws.ensure(&ctx, 128, 64, 128);
        assert!(ws.fits(&ctx, 128, 64, 128));
        assert!(ws.fits(&ctx, 64, 64, 64), "capacities never shrink");
    }

    #[test]
    fn wrong_thread_count_does_not_fit() {
        let ctx2 = ParGemmContext::<f64>::with_threads(2);
        let ctx3 = ParGemmContext::<f64>::with_threads(3);
        let ws = ParFtWorkspace::for_problem(&ctx2, 32, 32, 32);
        assert!(!ws.fits(&ctx3, 32, 32, 32));
    }
}
