//! Reusable workspace for the matrix-parallel drivers.
//!
//! The paper's threaded scheme (§2.3) requests the shared packed `B~` and
//! each thread's private `A~` once and reuses them. [`ParFtWorkspace`] is
//! that state — plus the checksum vectors and per-thread reduction lanes
//! of the protected driver — as a value the caller owns: build it once
//! ([`ParFtWorkspace::for_problem`], or [`ParFtWorkspace::for_plain`] and
//! let [`run_parallel`](crate::run_parallel) grow it), then hand it to
//! [`par_ft_gemm_with_ws`](crate::par_ft_gemm_with_ws) /
//! [`par_gemm_with_ws`](crate::par_gemm_with_ws) any number of times —
//! those calls perform **zero heap allocation**. The drivers rewrite every
//! region of the workspace they read (packing covers whole padded slabs,
//! checksum vectors are overwritten per column block, reduction lanes are
//! zero-filled per panel), so no cross-call re-zeroing is needed.

use crate::ctx::ParGemmContext;
use crate::shared::SharedVec;
use ftgemm_core::{AlignedVec, Scalar};
use ftgemm_pool::ShardedBuffer;
use parking_lot::Mutex;

/// Preallocated shared + per-thread state for the matrix-parallel drivers.
///
/// Capacities are upper bounds: a workspace built for `m x n x k` also
/// serves any problem with smaller `m`, `k`, column-block and depth-panel
/// extents on the *same* thread count (see [`Self::fits`]).
#[derive(Debug)]
pub struct ParFtWorkspace<T: Scalar> {
    m: usize,
    k: usize,
    nc_cap: usize,
    kc_cap: usize,
    a_len: usize,
    b_len: usize,
    pub(crate) btilde: SharedVec<T>,
    pub(crate) ar_full: SharedVec<T>,
    pub(crate) bc_reduced: SharedVec<T>,
    pub(crate) enc_row: SharedVec<T>,
    pub(crate) ref_row: SharedVec<T>,
    pub(crate) enc_col: SharedVec<T>,
    pub(crate) ref_col: SharedVec<T>,
    pub(crate) enc_col_shards: ShardedBuffer<T>,
    pub(crate) bc_shards: ShardedBuffer<T>,
    pub(crate) ref_col_shards: ShardedBuffer<T>,
    /// Per-thread private packed `A~` buffers. Slot `t` is locked only by
    /// pool thread `t` inside a region, so the mutexes are uncontended;
    /// they exist to keep the type `Sync`.
    pub(crate) atilde: Vec<Mutex<AlignedVec<T>>>,
}

impl<T: Scalar> ParFtWorkspace<T> {
    /// Workspace sized for one `m x n x k` problem under `ctx`'s blocking
    /// parameters and thread count.
    ///
    /// # Panics
    /// If `ctx.params` fail validation (contexts built through the public
    /// constructors always validate).
    pub fn for_problem(ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> Self {
        ctx.params.validate().expect("valid blocking params");
        let p = ctx.params;
        Self::with_capacities(ctx, m, k, p.nc.min(n), p.kc.min(k))
    }

    /// Workspace for the *unprotected* parallel driver only: packed `B~`
    /// plus per-thread `A~` buffers, with zero-capacity checksum state.
    /// Satisfies [`fits_plain`](Self::fits_plain) for any problem on
    /// `ctx`'s thread count, but not [`fits`](Self::fits) — handing it to
    /// the fused-ABFT driver panics rather than computing garbage.
    pub fn for_plain(ctx: &ParGemmContext<T>) -> Self {
        ctx.params.validate().expect("valid blocking params");
        Self::with_capacities(ctx, 0, 0, 0, 0)
    }

    fn with_capacities(
        ctx: &ParGemmContext<T>,
        m: usize,
        k: usize,
        nc_cap: usize,
        kc_cap: usize,
    ) -> Self {
        let p = ctx.params;
        let nthreads = ctx.nthreads();
        let a_len = p.packed_a_len();
        let b_len = p.packed_b_len();
        ParFtWorkspace {
            m,
            k,
            nc_cap,
            kc_cap,
            a_len,
            b_len,
            btilde: SharedVec::zeroed(b_len),
            ar_full: SharedVec::zeroed(k),
            bc_reduced: SharedVec::zeroed(kc_cap),
            enc_row: SharedVec::zeroed(m),
            ref_row: SharedVec::zeroed(m),
            enc_col: SharedVec::zeroed(nc_cap),
            ref_col: SharedVec::zeroed(nc_cap),
            enc_col_shards: ShardedBuffer::new(nthreads, nc_cap),
            bc_shards: ShardedBuffer::new(nthreads, kc_cap),
            ref_col_shards: ShardedBuffer::new(nthreads, nc_cap),
            atilde: (0..nthreads)
                .map(|_| Mutex::new(AlignedVec::zeroed(a_len).expect("A~ allocation")))
                .collect(),
        }
    }

    /// True when this workspace can serve an `m x n x k` problem under
    /// `ctx` with the *fused-ABFT* driver, without reallocation. Requires
    /// the exact thread count it was built for (reduction lanes are
    /// reduced across *all* lanes).
    pub fn fits(&self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> bool {
        let p = ctx.params;
        self.fits_plain(ctx)
            && self.m >= m
            && self.k >= k
            && self.nc_cap >= p.nc.min(n)
            && self.kc_cap >= p.kc.min(k)
    }

    /// True when this workspace can serve the *unprotected* parallel driver
    /// under `ctx` (only the packed `B~` and per-thread `A~` buffers are
    /// touched, whose sizes depend on blocking parameters, not the
    /// problem).
    pub fn fits_plain(&self, ctx: &ParGemmContext<T>) -> bool {
        let p = ctx.params;
        self.atilde.len() == ctx.nthreads()
            && self.a_len >= p.packed_a_len()
            && self.b_len >= p.packed_b_len()
    }

    /// Grows the workspace (reallocating) if `m x n x k` under `ctx` does
    /// not fit; no-op otherwise. Capacities never shrink.
    pub fn ensure(&mut self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) {
        if self.fits(ctx, m, n, k) {
            return;
        }
        ctx.params.validate().expect("valid blocking params");
        let p = ctx.params;
        *self = Self::with_capacities(
            ctx,
            self.m.max(m),
            self.k.max(k),
            self.nc_cap.max(p.nc.min(n)),
            self.kc_cap.max(p.kc.min(k)),
        );
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
