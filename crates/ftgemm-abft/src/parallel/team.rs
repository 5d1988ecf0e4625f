//! The matrix-parallel side of the loop nest — the paper's threaded
//! algorithm (§2.3): `crate::nest` run by a pool region as its team.
//!
//! The nest partitions `C` and `A` along M (each thread owns its row slab
//! and a private packed `A~`), packs the shared `B~` cooperatively along N,
//! reduces the column checksums across per-thread lanes, and verifies — and
//! decides continue / roll back / abort — on thread 0. What this module adds
//! is the team ([`Member`]: a [`WorkerCtx`] behind the nest's `Team` trait,
//! which [`execute`](crate::execute) launches on every thread of a region)
//! and the two entries that take a workspace sized in advance.

use crate::ft_gemm::execute_call;
use crate::nest::Team;
use crate::parallel::pool::WorkerCtx;
use crate::parallel::ParGemmContext;
use crate::{FtConfig, FtError, FtReport, FtResult, Workspace};
use ftgemm_core::{MatMut, MatRef, Scalar};
use std::ops::Range;

/// The matrix-parallel owner's old name, kept for the benchmark, which
/// still calls `ParFtWorkspace::for_problem`; the alias goes when the
/// benchmark moves to [`Workspace`].
pub type ParFtWorkspace<T> = Workspace<T>;

/// A pool region as the nest's team.
pub(crate) struct Member<'a, 'p>(pub(crate) &'a WorkerCtx<'p>);

impl Team for Member<'_, '_> {
    fn tid(&self) -> usize {
        self.0.tid
    }
    fn nthreads(&self) -> usize {
        self.0.nthreads
    }
    fn partition(&self, len: usize, align: usize) -> Range<usize> {
        self.0.partition(len, align)
    }
    fn barrier(&self) {
        self.0.barrier();
    }
}

/// Parallel fault-tolerant GEMM reusing a caller-held [`Workspace`]:
/// [`execute`](crate::execute) on `ctx`'s pool under `Some(cfg)`, without
/// growing `ws`.
///
/// The hot path performs no heap allocation: every shared vector, reduction
/// lane, and per-thread packed buffer lives in `ws` (the base snapshot of
/// [`Recovery::RetryPanel`](crate::Recovery::RetryPanel) at
/// `beta != 0` is grown on the first such call and kept). Callers that
/// replay one problem shape build the workspace once
/// ([`Workspace::for_problem`]) and amortize it across calls.
///
/// The workspace is taken `&mut`: the region shares one borrowed view of it
/// across the pool's threads, and the exclusive borrow is what makes it
/// impossible for *two* concurrent calls (e.g. on two different pools) to
/// alias one workspace from safe code.
///
/// # Panics
/// If `ws` does not [`fit`](Workspace::fits) this protected problem on
/// `ctx`'s pool.
pub fn par_ft_gemm_with_ws<T: Scalar>(
    ctx: &ParGemmContext<T>,
    ws: &mut Workspace<T>,
    cfg: &FtConfig,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    execute_call(Some(ctx), ws, Some(cfg), None, false, alpha, a, b, beta, c)
}

/// Parallel plain `C = alpha*A*B + beta*C` — the paper's threaded baseline
/// ("FT-GEMM: Ori", parallel curves of Fig. 2b) — on a caller-held
/// [`Workspace`]: [`execute`](crate::execute) on `ctx`'s pool under `None`,
/// without growing `ws` (only the packed `B~` and per-thread `A~` slots are
/// touched); the hot path performs no heap allocation.
///
/// # Panics
/// If `ws` does not [`fit`](Workspace::fits) this plain problem on `ctx`'s
/// pool.
pub fn par_gemm_with_ws<T: Scalar>(
    ctx: &ParGemmContext<T>,
    ws: &mut Workspace<T>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> ftgemm_core::Result<()> {
    match execute_call(Some(ctx), ws, None, None, false, alpha, a, b, beta, c) {
        Ok(_) => Ok(()),
        Err(FtError::Core(e)) => Err(e),
        Err(e) => unreachable!("a plain call fails in its prologue only: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ErrorModel, FaultInjector, Rate};
    use crate::{execute, FtError};
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::{IsaLevel, Matrix};

    fn check_clean(threads: usize, m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        let cfg = FtConfig::default();
        let a = Matrix::<f64>::random(m, k, 91);
        let b = Matrix::<f64>::random(k, n, 92);
        let mut c = Matrix::<f64>::random(m, n, 93);
        let mut c_ref = c.clone();
        let rep = execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&cfg),
            alpha,
            &a.as_ref(),
            &b.as_ref(),
            beta,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        let d = c.rel_max_diff(&c_ref);
        assert!(d < 1e-10, "diff {d} (t={threads} {m}x{n}x{k})");
        assert_eq!(rep.detected, 0, "false positive (t={threads} {m}x{n}x{k})");
        assert!(rep.verifications > 0);
    }

    #[test]
    fn clean_various_threads() {
        for t in [1, 2, 4, 8] {
            check_clean(t, 96, 80, 64, 1.0, 1.0);
        }
    }

    #[test]
    fn clean_ragged_and_alpha_beta() {
        check_clean(4, 131, 73, 59, -0.5, 2.0);
        check_clean(3, 17, 200, 33, 1.0, 0.0);
        check_clean(5, 300, 5, 40, 0.25, 1.0);
    }

    #[test]
    fn unfused_parallel_matches() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let cfg = FtConfig::unfused();
        let a = Matrix::<f64>::random(90, 70, 1);
        let b = Matrix::<f64>::random(70, 60, 2);
        let mut c = Matrix::<f64>::random(90, 60, 3);
        let mut c_ref = c.clone();
        let rep = execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-10);
        assert_eq!(rep.detected, 0);

        // Unfused reference sums are a read-back of C on thread 0: an
        // injected error is seen there, not through a delta the nest adds to
        // in-register sums. One error per thread lands in that thread's own
        // rows, so no two share a row and every pattern is resolvable.
        for threads in [2, 3] {
            let ctx = ParGemmContext::<f64>::with_threads(threads);
            let model = ErrorModel::Additive { magnitude: 1e5 };
            let cfg = FtConfig {
                injector: Some(FaultInjector::new(6, model, Rate::Count(1))),
                ..FtConfig::unfused()
            };
            let mut c = c_ref.clone();
            c.as_mut_slice().fill(0.5);
            let mut want = c.clone();
            let rep = execute(
                Some(&ctx),
                &mut Workspace::new(),
                Some(&cfg),
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut want.as_mut());
            assert!(rep.injected > 0, "{threads} threads: {rep:?}");
            assert_eq!(rep.corrected, rep.injected, "{threads} threads: {rep:?}");
            assert!(c.rel_max_diff(&want) < 1e-9, "{threads} threads");
        }
    }

    #[test]
    fn injected_errors_corrected_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let inj = FaultInjector::new(17, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(2));
        let cfg = FtConfig::with_injector(inj.clone());
        let a = Matrix::<f64>::random(128, 96, 4);
        let b = Matrix::<f64>::random(96, 112, 5);
        let mut c = Matrix::<f64>::zeros(128, 112);
        let mut c_ref = Matrix::<f64>::zeros(128, 112);
        let rep = execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(rep.injected > 0, "{rep:?}");
        assert_eq!(rep.corrected, rep.injected, "{rep:?}");
        assert!(
            c.rel_max_diff(&c_ref) < 1e-9,
            "diff {} rep {rep:?}",
            c.rel_max_diff(&c_ref)
        );
    }

    #[test]
    fn bitflips_corrected_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads(6);
        // Six threads inject one bitflip each into the same verification
        // interval. Bitflip deltas are near powers of two, so some seeds
        // produce two errors of (numerically) equal magnitude — a pattern
        // row+column checksums cannot disambiguate (see
        // corrector::tests::equal_delta_errors_distinct_positions). The seed
        // is chosen so all six deltas are distinct.
        let inj = FaultInjector::new(42, ErrorModel::BitFlip { bit: None }, Rate::Count(1));
        let cfg = FtConfig::with_injector(inj);
        let a = Matrix::<f64>::random(150, 90, 6);
        let b = Matrix::<f64>::random(90, 100, 7);
        let mut c = Matrix::<f64>::zeros(150, 100);
        let mut c_ref = Matrix::<f64>::zeros(150, 100);
        let rep = execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(rep.injected >= 1);
        assert!(c.rel_max_diff(&c_ref) < 1e-9, "rep {rep:?}");
    }

    #[test]
    fn ambiguous_bitflip_pattern_never_silently_corrupts() {
        // Seed 23 makes two of the six simultaneous bitflips land with
        // numerically equal deltas in distinct rows/columns — the pairing
        // the corrector cannot disambiguate. The contract is fail-stop:
        // either every error is located and the result is clean, or the
        // call errs Unrecoverable ("ambiguous pairing"). What must never
        // happen is Ok with a wrong result.
        let ctx = ParGemmContext::<f64>::with_threads(6);
        let inj = FaultInjector::new(23, ErrorModel::BitFlip { bit: None }, Rate::Count(1));
        let cfg = FtConfig::with_injector(inj);
        let a = Matrix::<f64>::random(150, 90, 6);
        let b = Matrix::<f64>::random(90, 100, 7);
        let mut c = Matrix::<f64>::zeros(150, 100);
        let mut c_ref = Matrix::<f64>::zeros(150, 100);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        match execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        ) {
            Ok(rep) => {
                assert!(
                    c.rel_max_diff(&c_ref) < 1e-9,
                    "silent corruption: diff {} rep {rep:?}",
                    c.rel_max_diff(&c_ref)
                );
            }
            Err(FtError::Unrecoverable { detail, .. }) => {
                assert!(detail.contains("ambiguous"), "detail: {detail}");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn f32_parallel_ft() {
        let ctx = ParGemmContext::<f32>::with_threads(3);
        let cfg = FtConfig::default();
        let a = Matrix::<f32>::random(64, 48, 8);
        let b = Matrix::<f32>::random(48, 56, 9);
        let mut c = Matrix::<f32>::zeros(64, 56);
        let mut c_ref = Matrix::<f32>::zeros(64, 56);
        let rep = execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&cfg),
            1.0f32,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0f32, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-4);
        assert_eq!(rep.detected, 0);
    }

    #[test]
    fn workspace_reuse_bitmatches_fresh() {
        // Replaying one shape through a shared Workspace must produce
        // bit-identical results to per-call fresh workspaces (same compute
        // order), without the workspace buffers moving.
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let cfg = FtConfig::default();
        let mut ws = Workspace::for_problem(&ctx, 96, 80, 64);
        let addr = ws.base_addr();
        for seed in 0..3u64 {
            let a = Matrix::<f64>::random(96, 64, seed);
            let b = Matrix::<f64>::random(64, 80, seed + 10);
            let mut c = Matrix::<f64>::random(96, 80, seed + 20);
            let mut c_fresh = c.clone();
            let rep = par_ft_gemm_with_ws(
                &ctx,
                &mut ws,
                &cfg,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
            execute(
                Some(&ctx),
                &mut Workspace::new(),
                Some(&cfg),
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c_fresh.as_mut(),
            )
            .unwrap();
            assert_eq!(c.as_slice(), c_fresh.as_slice(), "seed {seed}");
            assert_eq!(rep.detected, 0);
        }
        assert_eq!(ws.base_addr(), addr, "workspace must not reallocate");
    }

    #[test]
    fn repeated_calls_shared_ctx() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let cfg = FtConfig::default();
        for s in [40usize, 96, 60] {
            let a = Matrix::<f64>::random(s, s, s as u64);
            let b = Matrix::<f64>::random(s, s, s as u64 + 1);
            let mut c = Matrix::<f64>::zeros(s, s);
            let mut c_ref = Matrix::<f64>::zeros(s, s);
            execute(
                Some(&ctx),
                &mut Workspace::new(),
                Some(&cfg),
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                0.0,
                &mut c.as_mut(),
            )
            .unwrap();
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "size {s}");
        }
    }

    #[test]
    fn degenerate_dims_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let cfg = FtConfig::default();
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::<f64>::filled(2, 2, 8.0);
        execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.5,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn barriers_per_call_are_counted_not_guessed() {
        // Plain: one up front and two per depth panel (B~ packed; B~ free to
        // repack). Protected adds two per column block (base encode reduced)
        // and two per panel (B_c reduced; verdict published).
        let mut ctx = ParGemmContext::<f64>::with_threads(3);
        let (mr, nr) = (ctx.kernel.mr, ctx.kernel.nr);
        ctx.set_params(ftgemm_core::BlockingParams {
            mr,
            nr,
            mc: mr * 2,
            nc: nr * 4,
            kc: 16,
        })
        .unwrap();
        let (m, n, k) = (mr * 7, nr * 9, 40);
        let (blocks, panels) = (3, 3 * 3);
        let a = Matrix::<f64>::random(m, k, 1);
        let b = Matrix::<f64>::random(k, n, 2);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut ws = Workspace::for_problem(&ctx, m, n, k);
        let crossings = |ctx: &ParGemmContext<f64>| ctx.pool().stats().barrier_crossings;

        let before = crossings(&ctx);
        let (a_ref, b_ref) = (a.as_ref(), b.as_ref());
        par_gemm_with_ws(&ctx, &mut ws, 1.0, &a_ref, &b_ref, 0.0, &mut c.as_mut()).unwrap();
        assert_eq!(crossings(&ctx) - before, 3 * (1 + 2 * panels));

        let before = crossings(&ctx);
        let cfg = FtConfig::default();
        par_ft_gemm_with_ws(
            &ctx,
            &mut ws,
            &cfg,
            1.0,
            &a_ref,
            &b_ref,
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        assert_eq!(crossings(&ctx) - before, 3 * (1 + 2 * blocks + 4 * panels));
    }

    // The unprotected entry.

    fn check(threads: usize, m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        let a = Matrix::<f64>::random(m, k, 81);
        let b = Matrix::<f64>::random(k, n, 82);
        let mut c = Matrix::<f64>::random(m, n, 83);
        let mut c_ref = c.clone();
        par_gemm_with_ws(
            &ctx,
            &mut Workspace::for_problem(&ctx, m, n, k),
            alpha,
            &a.as_ref(),
            &b.as_ref(),
            beta,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        let d = c.rel_max_diff(&c_ref);
        assert!(d < 1e-10, "diff {d} (t={threads}, {m}x{n}x{k})");
    }

    #[test]
    fn matches_reference_various_threads() {
        for threads in [1, 2, 3, 8] {
            check(threads, 64, 64, 64, 1.0, 1.0);
            check(threads, 130, 70, 50, 1.0, 0.0);
        }
    }

    #[test]
    fn ragged_sizes() {
        check(4, 17, 13, 9, 1.0, 1.0);
        check(4, 257, 129, 65, -0.5, 2.0);
        check(3, 1, 100, 100, 1.0, 1.0);
        check(3, 100, 1, 100, 1.0, 1.0);
    }

    #[test]
    fn more_threads_than_rows() {
        check(8, 5, 40, 30, 1.0, 1.0);
    }

    #[test]
    fn zero_k_scales_only() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let a = Matrix::<f64>::zeros(4, 0);
        let b = Matrix::<f64>::zeros(0, 4);
        let mut c = Matrix::<f64>::filled(4, 4, 2.0);
        par_gemm_with_ws(
            &ctx,
            &mut Workspace::for_problem(&ctx, 4, 4, 0),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.5,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn f32_parallel() {
        let ctx = ParGemmContext::<f32>::with_threads(4);
        let a = Matrix::<f32>::random(96, 64, 1);
        let b = Matrix::<f32>::random(64, 80, 2);
        let mut c = Matrix::<f32>::zeros(96, 80);
        let mut c_ref = c.clone();
        par_gemm_with_ws(
            &ctx,
            &mut Workspace::for_problem(&ctx, 96, 80, 64),
            1.0f32,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0f32, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-4);
    }

    #[test]
    fn portable_isa_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads_and_isa(4, IsaLevel::Portable);
        let a = Matrix::<f64>::random(70, 60, 3);
        let b = Matrix::<f64>::random(60, 50, 4);
        let mut c = Matrix::<f64>::zeros(70, 50);
        let mut c_ref = c.clone();
        par_gemm_with_ws(
            &ctx,
            &mut Workspace::for_problem(&ctx, 70, 50, 60),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn context_reuse() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        for s in [32usize, 100, 64] {
            let a = Matrix::<f64>::random(s, s, s as u64);
            let b = Matrix::<f64>::random(s, s, s as u64 + 9);
            let mut c = Matrix::<f64>::zeros(s, s);
            let mut c_ref = Matrix::<f64>::zeros(s, s);
            par_gemm_with_ws(
                &ctx,
                &mut Workspace::for_problem(&ctx, s, s, s),
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                0.0,
                &mut c.as_mut(),
            )
            .unwrap();
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "size {s}");
        }
    }
}
