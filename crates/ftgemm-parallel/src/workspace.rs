//! Reusable workspace for the matrix-parallel entries.
//!
//! The paper's threaded scheme (§2.3) requests the shared packed `B~` and
//! each thread's private `A~` once and reuses them. [`ParFtWorkspace`] is
//! that state — plus the checksum vectors and per-thread reduction lanes
//! of the protected nest — as a value the caller owns: build it once
//! ([`ParFtWorkspace::for_problem`], or an empty [`ParFtWorkspace::new`]
//! that [`run_parallel`](crate::run_parallel) grows), then hand it to
//! [`par_ft_gemm_with_ws`](crate::par_ft_gemm_with_ws) /
//! [`par_gemm_with_ws`](crate::par_gemm_with_ws) any number of times —
//! those calls perform **zero heap allocation**.
//!
//! Every buffer follows the largest problem served, never the blocking
//! alone: `B~` holds one `kc x nc` panel and an `A~` slot one `mc x kc`
//! block *clamped to the problem* (`ftgemm_abft::nest::packed_lens`), so a
//! workspace that has only seen 512³ holds 1.5 MiB of `B~`, not the 24 MiB a
//! full `kc x nc` panel takes, and the blocking is the ceiling: at most
//! `kc·nc + T·mc·kc` packed elements plus O(m + n + k) of checksum state per
//! thread, whatever is served. Growth keeps what already fits — a larger
//! plain problem regrows `B~` / `A~` and leaves the checksum state alone —
//! and nothing shrinks, except the one O(m·nc) piece, the base snapshot of a
//! `beta != 0` rollback, which a long-lived owner hands back
//! ([`ParFtWorkspace::release_base`]). The nest rewrites every region of
//! the workspace it reads (packing covers whole padded slabs, checksum
//! vectors are overwritten per column block, reduction lanes are
//! zero-filled per panel), so no cross-call re-zeroing is needed, and the
//! packed buffers are allocated unzeroed (`AlignedVec::for_overwrite`).
//!
//! The workspace also counts the protected calls it has served, and a call's
//! injection streams derive from that count, as a serial `FtGemmContext`'s
//! do from its own: a fault pattern replays on a fresh workspace, whatever
//! else the process ran.

use crate::ctx::ParGemmContext;
use ftgemm_abft::nest::{checks_need, packed_lens, Checks};
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
    /// Elements in each `A~` slot.
    a_len: usize,
    /// The shared packed `B~`: the largest panel served so far.
    pub(crate) btilde: AlignedVec<T>,
    /// Checksum vectors, one reduction lane per pool thread, and the count
    /// of protected calls on this workspace.
    pub(crate) checks: Checks<T>,
    /// Per-thread private packed `A~` buffers. Slot `t` is locked only by
    /// pool thread `t` inside a region, so the mutexes are uncontended;
    /// they exist to keep the type `Sync`.
    pub(crate) atilde: Vec<Mutex<AlignedVec<T>>>,
}

impl<T: Scalar> ParFtWorkspace<T> {
    /// An empty workspace for `ctx`'s thread count: it fits no problem and
    /// holds no buffer until [`ensure`](Self::ensure) — which
    /// [`run_parallel`](crate::run_parallel) calls — grows it. What a
    /// long-lived owner that does not know its shapes yet starts from.
    pub fn new(ctx: &ParGemmContext<T>) -> Self {
        let nthreads = ctx.nthreads();
        ParFtWorkspace {
            a_len: 0,
            btilde: AlignedVec::zeroed_or_panic(0),
            checks: Checks::new(nthreads, [0; 4]),
            atilde: (0..nthreads)
                .map(|_| Mutex::new(AlignedVec::zeroed_or_panic(0)))
                .collect(),
        }
    }

    /// Workspace sized for one `m x n x k` problem under `ctx`'s blocking
    /// parameters and thread count.
    ///
    /// # Panics
    /// If `ctx.params` fail validation (contexts built through the public
    /// constructors always validate).
    pub fn for_problem(ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> Self {
        ctx.params.validate().expect("valid blocking params");
        let mut ws = Self::new(ctx);
        ws.ensure(ctx, m, n, k);
        ws
    }

    /// Workspace for the *unprotected* entry only, for callers with no shape
    /// to size by: a full `kc x nc` packed `B~` and `mc x kc` per-thread `A~`
    /// buffers, with zero-capacity checksum state. Satisfies
    /// [`fits_plain`](Self::fits_plain) for any problem on `ctx`'s thread
    /// count, but not [`fits`](Self::fits) — handing it to the protected
    /// entry panics rather than computing garbage.
    pub fn for_plain(ctx: &ParGemmContext<T>) -> Self {
        ctx.params.validate().expect("valid blocking params");
        let mut ws = Self::new(ctx);
        // The unbounded problem: every extent clamps to its block.
        ws.ensure_plain(ctx, usize::MAX, usize::MAX, usize::MAX);
        ws
    }

    /// True when this workspace can serve an `m x n x k` problem under
    /// `ctx` with the *protected* entry, without reallocation. Requires
    /// the exact thread count it was built for (reduction lanes are
    /// reduced across *all* lanes).
    pub fn fits(&self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> bool {
        let need = checks_need(&ctx.params, m, n, k);
        self.fits_plain(ctx, m, n, k) && self.checks.fits(ctx.nthreads(), need)
    }

    /// True when this workspace can serve an `m x n x k` problem under `ctx`
    /// with the *unprotected* entry: only the packed `B~` and the per-thread
    /// `A~` buffers are touched.
    pub fn fits_plain(&self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) -> bool {
        let (a_len, b_len) = packed_lens(&ctx.params, m, n, k);
        self.atilde.len() == ctx.nthreads() && self.a_len >= a_len && self.btilde.len() >= b_len
    }

    /// Grows the workspace (reallocating what is too small, keeping the
    /// rest) if `m x n x k` under `ctx` does not fit the protected entry;
    /// no-op otherwise. Capacities never shrink, and the count of protected
    /// calls carries over.
    pub fn ensure(&mut self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) {
        self.ensure_plain(ctx, m, n, k);
        self.checks
            .ensure(ctx.nthreads(), checks_need(&ctx.params, m, n, k));
    }

    /// [`ensure`](Self::ensure) for the unprotected entry: the packed buffers
    /// only, so plain traffic on a shared workspace never touches — let alone
    /// drops — the checksum state protected traffic grew.
    pub(crate) fn ensure_plain(&mut self, ctx: &ParGemmContext<T>, m: usize, n: usize, k: usize) {
        if self.atilde.len() != ctx.nthreads() {
            // Another team: the slots are per thread. So are the checksum
            // lanes, which `Checks::ensure` recuts for the team it is given.
            self.atilde = Self::new(ctx).atilde;
            self.a_len = 0;
        }
        // Packing writes every element it hands the kernel, padding
        // included, so the buffers need not come zeroed.
        let packing = |len| AlignedVec::for_overwrite(len).expect("aligned allocation failed");
        let (a_len, b_len) = packed_lens(&ctx.params, m, n, k);
        if self.btilde.len() < b_len {
            self.btilde = packing(b_len);
        }
        if self.a_len < a_len {
            for slot in &mut self.atilde {
                *slot.get_mut() = packing(a_len);
            }
            self.a_len = a_len;
        }
    }

    /// Grows the base snapshot a rollback restores from where `cfg` and
    /// `beta` call for one (never at `beta == 0`), once: a plan calls this
    /// at plan time, the protected entries on every call, so replays of a
    /// reserved shape allocate nothing.
    pub fn reserve_base(&mut self, cfg: &FtConfig, beta: T) {
        self.checks.reserve_base(cfg, beta);
    }

    /// Frees the base snapshot, the only O(m·nc) buffer here, so what a
    /// long-lived workspace retains stays bounded by the blocking; the next
    /// call that needs one reserves it again. No-op when none is held (every
    /// `beta == 0` call).
    pub fn release_base(&mut self) {
        self.checks.release_base();
    }

    /// Bytes of heap this workspace holds right now.
    pub fn retained_bytes(&self) -> usize {
        let packs = self.btilde.len() + self.atilde.len() * self.a_len;
        (packs + self.checks.elements()) * std::mem::size_of::<T>()
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
    use crate::run_parallel;
    use ftgemm_core::Matrix;

    #[test]
    fn fits_and_ensure() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let mut ws = ParFtWorkspace::for_problem(&ctx, 64, 64, 64);
        assert!(ws.fits(&ctx, 64, 64, 64));
        assert!(ws.fits(&ctx, 32, 64, 16));
        assert!(!ws.fits_plain(&ctx, 64, 128, 64), "B~ follows the problem");
        let addr = ws.base_addr();
        ws.ensure(&ctx, 64, 64, 64);
        assert_eq!(ws.base_addr(), addr, "no-op ensure must not reallocate");
        ws.ensure(&ctx, 128, 64, 128);
        assert!(ws.fits(&ctx, 128, 64, 128));
        assert!(ws.fits(&ctx, 64, 64, 64), "capacities never shrink");
    }

    #[test]
    fn an_empty_workspace_holds_nothing_and_a_full_one_the_blocking() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let empty = ParFtWorkspace::new(&ctx);
        assert_eq!(empty.retained_bytes(), 0);
        assert!(!empty.fits_plain(&ctx, 1, 1, 1));
        // However large the problem, the packed buffers stop at one
        // `kc x nc` panel and one `mc x kc` block per thread.
        let (p, huge) = (ctx.params, 1 << 20);
        let full = ParFtWorkspace::for_plain(&ctx);
        assert!(full.fits_plain(&ctx, huge, huge, huge));
        let packed = p.packed_b_len() + 2 * p.packed_a_len();
        assert_eq!(full.retained_bytes(), packed * std::mem::size_of::<f64>());
    }

    #[test]
    fn wrong_thread_count_does_not_fit() {
        let ctx2 = ParGemmContext::<f64>::with_threads(2);
        let ctx3 = ParGemmContext::<f64>::with_threads(3);
        let ws = ParFtWorkspace::for_problem(&ctx2, 32, 32, 32);
        assert!(!ws.fits(&ctx3, 32, 32, 32));
    }

    /// The injection streams of a protected call derive from the count this
    /// workspace keeps: growing the checksum state or recutting it for
    /// another team between two protected calls keeps it, and plain calls
    /// and plan-time `reserve_base` do not add to it.
    #[test]
    fn call_ids_continue_across_growth() {
        let (ctx2, ctx3) = (
            ParGemmContext::with_threads(2),
            ParGemmContext::with_threads(3),
        );
        let cfg = FtConfig::default();
        let mut ws = ParFtWorkspace::new(&ctx2);
        let run = |ctx: &ParGemmContext<f64>, ws: &mut _, cfg: Option<&FtConfig>, dim| {
            let a = Matrix::<f64>::random(dim, dim, 1);
            let mut c = Matrix::<f64>::zeros(dim, dim);
            let (a, c) = (a.as_ref(), &mut c.as_mut());
            run_parallel(ctx, ws, cfg, 1.0, &a, &a, 0.0, c).unwrap();
        };
        run(&ctx2, &mut ws, Some(&cfg), 16);
        run(&ctx2, &mut ws, None, 160);
        ws.reserve_base(&cfg, 1.0);
        run(&ctx2, &mut ws, Some(&cfg), 200);
        // A plain call recuts the slots only: the lanes still need `ensure`.
        run(&ctx3, &mut ws, None, 40);
        assert!(!ws.fits(&ctx3, 40, 40, 40));
        run(&ctx3, &mut ws, Some(&cfg), 40);
        assert_eq!(ws.checks.view(&mut [], false).call, 3);
    }

    /// Plain and protected traffic of different shapes on one long-lived
    /// workspace: once each has been seen, nothing is reallocated — a larger
    /// plain problem grows the packed buffers and leaves the checksum state
    /// the protected one grew where it is.
    #[test]
    fn mixed_traffic_does_not_ping_pong_the_allocations() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let cfg = FtConfig::default();
        let mut ws = ParFtWorkspace::new(&ctx);
        let run = |ws: &mut ParFtWorkspace<f64>, dim: usize, cfg: Option<&FtConfig>| {
            let a = Matrix::<f64>::random(dim, dim, 1);
            let b = Matrix::<f64>::random(dim, dim, 2);
            let mut c = Matrix::<f64>::zeros(dim, dim);
            run_parallel(
                &ctx,
                ws,
                cfg,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                0.0,
                &mut c.as_mut(),
            )
            .unwrap();
            let vectors = ws.checks.view(&mut ws.btilde, false).vectors;
            // SAFETY: an empty range borrows no element.
            let vectors = vectors.map(|v| unsafe { v.slice(0..0) }.as_ptr() as usize);
            (ws.base_addr(), vectors)
        };
        run(&mut ws, 512, None);
        let warm = run(&mut ws, 256, Some(&cfg));
        for round in 0..3 {
            assert_eq!(run(&mut ws, 512, None), warm, "plain, round {round}");
            assert_eq!(
                run(&mut ws, 256, Some(&cfg)),
                warm,
                "protected, round {round}"
            );
        }
    }
}
