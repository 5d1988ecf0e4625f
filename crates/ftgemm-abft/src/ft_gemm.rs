//! The entry of the loop nest ([`crate::nest`]): the paper's FT-DGEMM
//! (§2.2), its threaded form (§2.3) and its "Ori" baseline, type-generic.
//!
//! [`execute`] runs the nest on a caller-held [`Workspace`], either as a
//! team of one — slot 0, the workspace's kernel and blocking — or as a
//! region of a [`ParGemmContext`]'s pool with the context's, so what a call
//! computes, verifies and rolls back is the same code on every team.
//! [`ft_gemm_with_ctx`] (protected) and [`gemm`] (plain) are its serial
//! fixed-policy forms, [`par_ft_gemm_with_ws`] and [`par_gemm_with_ws`]
//! the pool's. Buffers hold the largest problem served
//! ([`packed_lens`](crate::nest::packed_lens): one block each, clamped to
//! the problem), grown on demand and never shrunk, so a reused workspace
//! allocates only when a larger shape first arrives.
//!
//! [`par_ft_gemm_with_ws`]: crate::parallel::par_ft_gemm_with_ws
//! [`par_gemm_with_ws`]: crate::parallel::par_gemm_with_ws

use crate::nest::{nest, prologue, Job, Solo};
use crate::parallel::{Member, ParGemmContext};
use crate::workspace::{Setup, Workspace};
use crate::{FtConfig, FtReport, FtResult};
use ftgemm_core::{MatMut, MatRef, Scalar};

/// The serial owners' old names, kept for the benchmark, which still calls
/// `FtGemmContext::new()` and `GemmContext::new()`; the aliases go when the
/// benchmark moves to [`Workspace`].
pub type FtGemmContext<T> = Workspace<T>;
/// See [`FtGemmContext`].
pub type GemmContext<T> = Workspace<T>;

/// The execute path: `C = alpha*A*B + beta*C` on `ws`, protected under
/// `Some(cfg)` and plain (reporting [`FtReport::default`]) under `None`.
/// `ctx: None` runs the calling thread as a team of one with `ws`'s kernel
/// and blocking; `Some(ctx)` runs a region of `ctx`'s pool, a team of the
/// pool's size with the context's. Every caller that carries an optional
/// configuration goes through here, so the protected-vs-plain choice is made
/// in one place.
///
/// `ws` is grown with [`Workspace::ensure`] when the problem does not fit,
/// and reused otherwise; an empty [`Workspace::new`] is where a caller with
/// no shape to size by starts. Growth replaces only the buffers that are too
/// small, so plain and protected calls — serial and pool — can share one
/// workspace without undoing each other's growth. A caller that keeps one
/// workspace alive (a `GemmPlan`, a service dispatcher) allocates only when
/// a larger shape first arrives.
pub fn execute<T: Scalar>(
    ctx: Option<&ParGemmContext<T>>,
    ws: &mut Workspace<T>,
    cfg: Option<&FtConfig>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    execute_call(ctx, ws, cfg, None, true, alpha, a, b, beta, c)
}

/// [`execute`] with the two choices its callers in this crate make.
/// `call` is the id a batch gave a protected item ([`Workspace::job`]);
/// `None` counts the call on `ws`. `grow: false` is for the entries that
/// take a workspace sized in advance, and panics where `ws` does not
/// [`fit`](Workspace::fits) the problem instead of growing it.
pub(crate) fn execute_call<T: Scalar>(
    ctx: Option<&ParGemmContext<T>>,
    ws: &mut Workspace<T>,
    cfg: Option<&FtConfig>,
    call: Option<u64>,
    grow: bool,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    let team = ctx.map_or_else(|| Setup::from(&*ws), Setup::from);
    let Some((m, n, k)) = prologue(&team.params, alpha, a, b, beta, c)? else {
        return Ok(FtReport::default());
    };
    let protect = cfg.is_some();
    if !ws.fits(team, [m, n, k], protect) {
        assert!(
            grow,
            "workspace too small for {m}x{n}x{k} on {} threads",
            team.nthreads
        );
        ws.ensure(team, [m, n, k], protect);
    }
    match cfg {
        Some(cfg) => launch::<T, true>(ctx, team, ws, cfg, call, alpha, a, b, beta, c).finish(),
        None => {
            let plain = FtConfig::default();
            launch::<T, false>(ctx, team, ws, &plain, None, alpha, a, b, beta, c);
            Ok(FtReport::default())
        }
    }
}

/// The nest on `team` — the calling thread alone under `ctx: None`, every
/// thread of `ctx`'s pool otherwise — over operands that passed
/// [`prologue`], in a workspace that fits them; a protected caller
/// [`Job::finish`]es what comes back. `cfg` is read under `PROTECT` only.
fn launch<'a, T: Scalar, const PROTECT: bool>(
    ctx: Option<&ParGemmContext<T>>,
    team: Setup<T>,
    ws: &'a mut Workspace<T>,
    cfg: &'a FtConfig,
    call: Option<u64>,
    alpha: T,
    a: &MatRef<'a, T>,
    b: &MatRef<'a, T>,
    beta: T,
    c: &'a mut MatMut<'_, T>,
) -> Job<'a, T> {
    let (kernel, p) = (team.kernel, team.params);
    let (job, slots) = ws.job::<PROTECT>(kernel, p, cfg, call, alpha, a, b, beta, c);
    match ctx {
        // SAFETY: `job` is a local no other thread sees, `Solo` is the whole
        // team, and the workspace fits the problem.
        None => unsafe { nest::<T, Solo, PROTECT>(&Solo, &job, slots[0].get_mut().as_mut_slice()) },
        Some(ctx) => {
            let slots = &*slots;
            ctx.pool().run(|w| {
                // Slot `tid` is only ever locked by thread `tid` of a region.
                let mut atilde = slots[w.tid].lock();
                // SAFETY: the region runs this closure once on every thread
                // of the pool, the region barrier holds them all, and the
                // workspace fits.
                unsafe { nest::<T, _, PROTECT>(&Member(w), &job, atilde.as_mut_slice()) };
            });
        }
    }
    job
}

/// Fault-tolerant `C = alpha*A*B + beta*C` on a caller-held workspace:
/// [`execute`] on a team of one under `Some(cfg)`, counted on `ws`.
pub fn ft_gemm_with_ctx<T: Scalar>(
    ws: &mut Workspace<T>,
    cfg: &FtConfig,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    execute(None, ws, Some(cfg), alpha, a, b, beta, c)
}

/// Serial `C = alpha * A * B + beta * C` on a caller-held workspace — the
/// paper's "FT-GEMM: Ori" code path: [`execute`] on a team of one under
/// `None`, the nest with no fault-tolerance work compiled in.
pub fn gemm<T: Scalar>(
    ws: &mut Workspace<T>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<()> {
    execute(None, ws, None, alpha, a, b, beta, c).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ErrorModel, FaultInjector, Rate};
    use crate::FusionConfig;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::{IsaLevel, Matrix};

    fn run_case(
        cfg: &FtConfig,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
    ) -> (Matrix<f64>, Matrix<f64>, FtReport) {
        let a = Matrix::<f64>::random(m, k, 71);
        let b = Matrix::<f64>::random(k, n, 72);
        let mut c = Matrix::<f64>::random(m, n, 73);
        let mut c_ref = c.clone();
        let report = ft_gemm_with_ctx(
            &mut Workspace::new(),
            cfg,
            alpha,
            &a.as_ref(),
            &b.as_ref(),
            beta,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        (c, c_ref, report)
    }

    #[test]
    fn clean_ft_gemm_matches_reference() {
        let cfg = FtConfig::default();
        for &(m, n, k) in &[(17usize, 13usize, 9usize), (64, 64, 64), (130, 70, 90)] {
            let (c, c_ref, report) = run_case(&cfg, m, n, k, 1.0, 1.0);
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "{m}x{n}x{k}");
            assert!(report.verifications > 0);
            assert_eq!(report.detected, 0, "false positive at {m}x{n}x{k}");
        }
    }

    #[test]
    fn alpha_beta_variants() {
        let cfg = FtConfig::default();
        for &(alpha, beta) in &[(0.0, 0.5), (1.0, 0.0), (-2.0, 3.0), (0.5, 1.0)] {
            let (c, c_ref, _) = run_case(&cfg, 33, 29, 41, alpha, beta);
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "alpha={alpha} beta={beta}");
        }
    }

    #[test]
    fn all_fusion_configs_agree() {
        let variants = [
            FusionConfig::FUSED,
            FusionConfig::UNFUSED,
            FusionConfig {
                fuse_c_scale: true,
                fuse_b_pack: false,
                fuse_a_pack: true,
                fuse_kernel_refs: false,
            },
            FusionConfig {
                fuse_c_scale: false,
                fuse_b_pack: true,
                fuse_a_pack: false,
                fuse_kernel_refs: true,
            },
        ];
        for fusion in variants {
            let cfg = FtConfig {
                fusion,
                ..Default::default()
            };
            let (c, c_ref, report) = run_case(&cfg, 47, 53, 61, 1.0, 1.0);
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "{fusion:?}");
            assert_eq!(report.detected, 0, "false positive for {fusion:?}");
        }
    }

    #[test]
    fn injected_errors_corrected_fused() {
        let inj = FaultInjector::new(5, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(5));
        let cfg = FtConfig::with_injector(inj.clone());
        let (c, c_ref, report) = run_case(&cfg, 96, 80, 120, 1.0, 1.0);
        assert!(report.injected > 0, "no errors injected");
        assert_eq!(
            report.corrected, report.injected,
            "not all corrected: {report:?}"
        );
        assert!(
            c.rel_max_diff(&c_ref) < 1e-9,
            "result diverges after correction: {}",
            c.rel_max_diff(&c_ref)
        );
        assert_eq!(inj.stats().corrected(), report.corrected as u64);
    }

    #[test]
    fn injected_errors_corrected_unfused() {
        let inj = FaultInjector::new(6, ErrorModel::Additive { magnitude: 1e5 }, Rate::Count(3));
        let cfg = FtConfig {
            fusion: FusionConfig::UNFUSED,
            injector: Some(inj),
            ..Default::default()
        };
        let (c, c_ref, report) = run_case(&cfg, 64, 64, 64, 1.0, 1.0);
        assert!(report.injected > 0);
        assert_eq!(report.corrected, report.injected);
        assert!(c.rel_max_diff(&c_ref) < 1e-9);
    }

    #[test]
    fn bitflip_errors_corrected() {
        let inj = FaultInjector::new(9, ErrorModel::BitFlip { bit: None }, Rate::Count(4));
        let cfg = FtConfig::with_injector(inj);
        let (c, c_ref, report) = run_case(&cfg, 72, 56, 88, 1.0, 1.0);
        assert!(report.injected > 0);
        assert!(
            c.rel_max_diff(&c_ref) < 1e-9,
            "diff {} report {report:?}",
            c.rel_max_diff(&c_ref)
        );
    }

    #[test]
    fn many_errors_across_panels() {
        // Small blocks create many injection sites and many verification
        // intervals, each correcting its own batch (the paper's 20-error runs).
        let mut ctx = Workspace::<f64>::new();
        let kern = ctx.kernel;
        ctx.set_params(ftgemm_core::BlockingParams {
            mr: kern.mr,
            nr: kern.nr,
            mc: kern.mr * 2,
            nc: kern.nr * 4,
            kc: 16,
        })
        .unwrap();
        let inj = FaultInjector::new(11, ErrorModel::Additive { magnitude: 3e7 }, Rate::Count(20));
        let cfg = FtConfig::with_injector(inj);
        let (m, n, k) = (150, 140, 96);
        let a = Matrix::<f64>::random(m, k, 71);
        let b = Matrix::<f64>::random(k, n, 72);
        let mut c = Matrix::<f64>::random(m, n, 73);
        let mut c_ref = c.clone();
        let report = ft_gemm_with_ctx(
            &mut ctx,
            &cfg,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        assert!(report.injected >= 10, "{report:?}");
        assert_eq!(report.corrected, report.injected);
        assert!(c.rel_max_diff(&c_ref) < 1e-9);
    }

    #[test]
    fn small_blocking_many_verifications() {
        let mut ctx = Workspace::<f64>::with_isa(IsaLevel::detect());
        let kern = ctx.kernel;
        ctx.set_params(ftgemm_core::BlockingParams {
            mr: kern.mr,
            nr: kern.nr,
            mc: kern.mr,
            nc: kern.nr * 2,
            kc: 8,
        })
        .unwrap();
        let cfg = FtConfig::default();
        let (m, n, k) = (kern.mr * 3 + 1, kern.nr * 3 + 1, 20);
        let a = Matrix::<f64>::random(m, k, 1);
        let b = Matrix::<f64>::random(k, n, 2);
        let mut c = Matrix::<f64>::random(m, n, 3);
        let mut c_ref = c.clone();
        let report = ft_gemm_with_ctx(
            &mut ctx,
            &cfg,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-10);
        assert!(report.verifications >= 6, "{report:?}");
    }

    #[test]
    fn f32_ft_gemm() {
        let cfg = FtConfig::default();
        let a = Matrix::<f32>::random(40, 30, 1);
        let b = Matrix::<f32>::random(30, 20, 2);
        let mut c = Matrix::<f32>::zeros(40, 20);
        let mut c_ref = c.clone();
        let report = ft_gemm_with_ctx(
            &mut Workspace::new(),
            &cfg,
            1.0f32,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0f32, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-4);
        assert_eq!(report.detected, 0);
    }

    #[test]
    fn degenerate_dims() {
        let cfg = FtConfig::default();
        let a = Matrix::<f64>::zeros(0, 3);
        let b = Matrix::<f64>::zeros(3, 4);
        let mut c = Matrix::<f64>::zeros(0, 4);
        ft_gemm_with_ctx(
            &mut Workspace::new(),
            &cfg,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();

        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::<f64>::filled(2, 2, 4.0);
        ft_gemm_with_ctx(
            &mut Workspace::new(),
            &cfg,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.25,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn context_reuse_with_injection_is_deterministic_per_call() {
        let inj = FaultInjector::new(13, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(2));
        let cfg = FtConfig::with_injector(inj);
        let mut ctx = Workspace::<f64>::new();
        let a = Matrix::<f64>::random(50, 50, 4);
        let b = Matrix::<f64>::random(50, 50, 5);
        for _ in 0..3 {
            let mut c = Matrix::<f64>::zeros(50, 50);
            let r = ft_gemm_with_ctx(
                &mut ctx,
                &cfg,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                0.0,
                &mut c.as_mut(),
            )
            .unwrap();
            assert_eq!(r.corrected, r.injected);
        }
    }
}

#[cfg(test)]
mod plain_tests {
    use super::*;
    use crate::FtError;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::{select_kernel, BlockingParams, CoreError, IsaLevel, Matrix};

    fn check_case<T: Scalar>(
        isa: IsaLevel,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        tol: f64,
    ) {
        if isa > IsaLevel::detect() {
            return;
        }
        let a = Matrix::<T>::random(m, k, 21);
        let b = Matrix::<T>::random(k, n, 22);
        let mut c = Matrix::<T>::random(m, n, 23);
        let mut c_ref = c.clone();

        let mut ctx = Workspace::<T>::with_isa(isa);
        gemm(
            &mut ctx,
            T::from_f64(alpha),
            &a.as_ref(),
            &b.as_ref(),
            T::from_f64(beta),
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(
            T::from_f64(alpha),
            &a.as_ref(),
            &b.as_ref(),
            T::from_f64(beta),
            &mut c_ref.as_mut(),
        );
        let d = c.rel_max_diff(&c_ref);
        assert!(
            d < tol,
            "rel diff {d} for {m}x{n}x{k} alpha={alpha} beta={beta} isa={isa}"
        );
    }

    #[test]
    fn small_sizes_all_isas_f64() {
        for isa in IsaLevel::available() {
            for &(m, n, k) in &[
                (1usize, 1usize, 1usize),
                (2, 3, 4),
                (16, 8, 4),
                (17, 9, 5),
                (31, 33, 7),
                (64, 64, 64),
                (65, 63, 65),
            ] {
                check_case::<f64>(isa, m, n, k, 1.0, 1.0, 1e-10);
            }
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        for &(alpha, beta) in &[(0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (-1.0, 1.0), (0.5, -0.5)] {
            check_case::<f64>(IsaLevel::detect(), 33, 29, 17, alpha, beta, 1e-10);
        }
    }

    #[test]
    fn crosses_blocking_boundaries() {
        // Force tiny blocks so jc/pc/ic loops all iterate multiple times.
        let kernel = select_kernel::<f64>(IsaLevel::detect());
        let params = BlockingParams {
            mr: kernel.mr,
            nr: kernel.nr,
            mc: kernel.mr * 2,
            nc: kernel.nr * 3,
            kc: 8,
        };
        let (m, n, k) = (kernel.mr * 5 + 3, kernel.nr * 7 + 1, 37);
        let a = Matrix::<f64>::random(m, k, 31);
        let b = Matrix::<f64>::random(k, n, 32);
        let mut c = Matrix::<f64>::random(m, n, 33);
        let mut c_ref = c.clone();

        let mut ctx = Workspace::<f64>::with_isa(IsaLevel::detect());
        ctx.set_params(params).unwrap();
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn f32_path() {
        for isa in IsaLevel::available() {
            check_case::<f32>(isa, 40, 24, 33, 1.0, 1.0, 1e-3);
        }
    }

    #[test]
    fn identity_multiplication() {
        let n = 50;
        let a = Matrix::<f64>::random(n, n, 44);
        let id = Matrix::<f64>::identity(n);
        let mut c = Matrix::<f64>::zeros(n, n);
        let mut ctx = Workspace::<f64>::new();
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &id.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(a.max_abs_diff(&c) < 1e-12);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::<f64>::zeros(3, 4);
        let b = Matrix::<f64>::zeros(5, 6);
        let mut c = Matrix::<f64>::zeros(3, 6);
        let mut ctx = Workspace::<f64>::new();
        let r = gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        );
        assert!(matches!(
            r,
            Err(FtError::Core(CoreError::ShapeMismatch { .. }))
        ));
    }

    #[test]
    fn c_shape_mismatch_rejected() {
        let a = Matrix::<f64>::zeros(3, 4);
        let b = Matrix::<f64>::zeros(4, 6);
        let mut c = Matrix::<f64>::zeros(3, 5);
        let mut ctx = Workspace::<f64>::new();
        assert!(gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut()
        )
        .is_err());
    }

    #[test]
    fn zero_dims_are_noops() {
        let a = Matrix::<f64>::zeros(0, 4);
        let b = Matrix::<f64>::zeros(4, 6);
        let mut c = Matrix::<f64>::zeros(0, 6);
        let mut ctx = Workspace::<f64>::new();
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();

        // k == 0: C = beta*C only.
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::<f64>::filled(2, 2, 3.0);
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.5,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn context_reuse_many_sizes() {
        let mut ctx = Workspace::<f64>::new();
        for &s in &[5usize, 64, 17, 130, 3] {
            let a = Matrix::<f64>::random(s, s, s as u64);
            let b = Matrix::<f64>::random(s, s, s as u64 + 1);
            let mut c = Matrix::<f64>::zeros(s, s);
            let mut c_ref = Matrix::<f64>::zeros(s, s);
            gemm(
                &mut ctx,
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
    fn strided_c_view() {
        // Write into a submatrix of a larger C to exercise non-trivial ldc.
        let (m, n, k) = (20, 12, 9);
        let a = Matrix::<f64>::random(m, k, 50);
        let b = Matrix::<f64>::random(k, n, 51);
        let mut big = Matrix::<f64>::filled(m + 8, n + 4, 9.0);
        {
            let mut cview = big.as_mut();
            let mut sub = cview.submatrix_mut(3, 2, m, n);
            let mut ctx = Workspace::<f64>::new();
            gemm(&mut ctx, 1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut sub).unwrap();
        }
        // Border untouched.
        assert_eq!(big.get(0, 0), 9.0);
        assert_eq!(big.get(m + 7, n + 3), 9.0);
        // Interior correct.
        let mut c_ref = Matrix::<f64>::zeros(m, n);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        for j in 0..n {
            for i in 0..m {
                assert!((big.get(i + 3, j + 2) - c_ref.get(i, j)).abs() < 1e-10);
            }
        }
    }
}
