//! The serial entries of the loop nest ([`crate::nest`]): the paper's
//! FT-DGEMM (§2.2) and its "Ori" baseline, type-generic, on the team of one.
//!
//! Both hand [`nest`] one borrowed view of a caller-held context's buffers —
//! [`ft_gemm_with_ctx`] an [`FtGemmContext`] with `PROTECT` on, [`gemm`] a
//! bare [`GemmContext`] with it off — so what they compute, verify and roll
//! back is what the matrix-parallel entries do on a larger team. A context's
//! packing buffers hold the largest problem it has served
//! ([`packed_lens`]: one block each, clamped to the problem), grown on demand
//! and never shrunk, so a reused context allocates only when a larger shape
//! first arrives.

use crate::nest::{checks_need, nest, packed_lens, prologue, Checks, Job, Solo};
use crate::{FtConfig, FtReport, FtResult};
use ftgemm_core::{BlockingParams, GemmContext, IsaLevel, MatMut, MatRef, Scalar};

/// Reusable state for repeated fault-tolerant GEMM calls: the plain GEMM
/// context plus the checksum state of a team of one, which counts the
/// protected calls the injection streams derive from.
#[derive(Debug)]
pub struct FtGemmContext<T: Scalar> {
    /// Underlying GEMM context (kernel, blocking parameters, pack buffers).
    pub core: GemmContext<T>,
    checks: Checks<T>,
}

impl<T: Scalar> FtGemmContext<T> {
    /// Context with auto-detected kernel and blocking parameters.
    pub fn new() -> Self {
        Self::from_core(GemmContext::new())
    }

    /// Context wrapping an explicitly configured core context.
    pub fn from_core(core: GemmContext<T>) -> Self {
        FtGemmContext {
            core,
            checks: Checks::new(1, [0; 4]),
        }
    }

    /// Pre-sizes the packing scratch and — under `Some(cfg)` — the checksum
    /// state for an `m x n x k` problem, so a subsequent [`run_serial`] call
    /// of that shape, configuration and `beta` performs **no heap
    /// allocation**. The facade's `GemmPlan` calls this at plan time, and
    /// re-reserving the same shape is free. The `m x NC` base snapshot exists
    /// only where a rollback needs it:
    /// [`Recovery::RetryPanel`](crate::Recovery::RetryPanel) **and**
    /// `beta != 0`.
    pub fn reserve(
        &mut self,
        cfg: Option<&FtConfig>,
        m: usize,
        n: usize,
        k: usize,
        beta: T,
    ) -> FtResult<()> {
        let p = self.core.params;
        p.validate()?;
        if let Some(cfg) = cfg {
            self.checks.ensure(1, checks_need(&p, m, n, k));
            self.checks.reserve_base(cfg, beta);
        }
        let (a_len, b_len) = packed_lens(&p, m, n, k);
        self.core.pack_buffers(a_len, b_len)?;
        Ok(())
    }
}

impl<T: Scalar> Default for FtGemmContext<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The serial execute path: `C = alpha*A*B + beta*C` on a caller-held
/// context, through [`ft_gemm_with_ctx`] under `Some(cfg)` and through
/// [`gemm`] on `ctx.core` (reporting [`FtReport::default`]) under `None`.
/// Every serial caller that carries an optional configuration — planned
/// one-shots, batch items — goes through here, so the protected-vs-plain
/// choice is made in one place.
pub fn run_serial<T: Scalar>(
    ctx: &mut FtGemmContext<T>,
    cfg: Option<&FtConfig>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    match cfg {
        Some(cfg) => ft_gemm_with_ctx(ctx, cfg, alpha, a, b, beta, c),
        None => {
            gemm(&mut ctx.core, alpha, a, b, beta, c)?;
            Ok(FtReport::default())
        }
    }
}

/// Fault-tolerant `C = alpha*A*B + beta*C` on a caller-held context.
pub fn ft_gemm_with_ctx<T: Scalar>(
    ctx: &mut FtGemmContext<T>,
    cfg: &FtConfig,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    let Some((m, n, k)) = prologue(&ctx.core.params, alpha, a, b, beta, c)? else {
        return Ok(FtReport::default());
    };
    // The one sizing shared with plan-time preallocation.
    ctx.reserve(Some(cfg), m, n, k, beta)?;

    let (kernel, p) = (ctx.core.kernel, ctx.core.params);
    let (a_len, b_len) = packed_lens(&p, m, n, k);
    let (a_buf, b_buf) = ctx.core.pack_buffers(a_len, b_len)?;
    let bufs = ctx.checks.view(b_buf, true);
    let job = Job::new(kernel, p, cfg, alpha, a, b, beta, c, bufs);
    // SAFETY: `job` is a local no other thread sees, `Solo` is the whole
    // team, and `reserve` sized every buffer for this problem.
    unsafe { nest::<T, Solo, true>(&Solo, &job, a_buf) };
    job.finish()
}

/// Serial `C = alpha * A * B + beta * C` with context-held buffers — the
/// paper's "FT-GEMM: Ori" code path: the nest with no fault-tolerance work
/// compiled in.
pub fn gemm<T: Scalar>(
    ctx: &mut GemmContext<T>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> ftgemm_core::Result<()> {
    let Some((m, n, k)) = prologue(&ctx.params, alpha, a, b, beta, c)? else {
        return Ok(());
    };
    let (kernel, p) = (ctx.kernel, ctx.params);
    // One packed block each, as large as this problem makes them; the
    // context keeps the largest it has served.
    let (a_len, b_len) = packed_lens(&p, m, n, k);
    let (a_buf, b_buf) = ctx.pack_buffers(a_len, b_len)?;
    // An unprotected nest reads neither checksum state nor configuration.
    let mut no_checks = Checks::new(1, [0; 4]);
    let bufs = no_checks.view(b_buf, false);
    let unread = FtConfig::default();
    let job = Job::new(kernel, p, &unread, alpha, a, b, beta, c, bufs);
    // SAFETY: `job` is a local no other thread sees, `Solo` is the whole
    // team, and an unprotected nest touches `btilde` only.
    unsafe { nest::<T, Solo, false>(&Solo, &job, a_buf) };
    Ok(())
}

/// Serial GEMM with explicit blocking parameters (ablation entry point).
pub fn gemm_with_params<T: Scalar>(
    isa: IsaLevel,
    params: BlockingParams,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> ftgemm_core::Result<()> {
    let mut ctx = GemmContext::<T>::with_isa(isa);
    ctx.set_params(params)?;
    gemm(&mut ctx, alpha, a, b, beta, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusionConfig;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::{IsaLevel, Matrix};
    use ftgemm_faults::{ErrorModel, FaultInjector, Rate};

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
            &mut FtGemmContext::new(),
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
        let mut core = GemmContext::<f64>::new();
        let kern = core.kernel;
        core.set_params(ftgemm_core::BlockingParams {
            mr: kern.mr,
            nr: kern.nr,
            mc: kern.mr * 2,
            nc: kern.nr * 4,
            kc: 16,
        })
        .unwrap();
        let mut ctx = FtGemmContext::from_core(core);
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
        let mut core = GemmContext::<f64>::with_isa(IsaLevel::detect());
        let kern = core.kernel;
        core.set_params(ftgemm_core::BlockingParams {
            mr: kern.mr,
            nr: kern.nr,
            mc: kern.mr,
            nc: kern.nr * 2,
            kc: 8,
        })
        .unwrap();
        let mut ctx = FtGemmContext::from_core(core);
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
            &mut FtGemmContext::new(),
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
            &mut FtGemmContext::new(),
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
            &mut FtGemmContext::new(),
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

    /// Packing buffers follow the problem and only grow: a context that went
    /// on to a smaller shape serves the first one again from the same
    /// buffers, bit for bit.
    #[test]
    fn a_reused_context_never_regrows_and_repeats_itself() {
        let cfg = FtConfig::default();
        let mut ctx = FtGemmContext::<f64>::new();
        let run = |ctx: &mut FtGemmContext<f64>, (m, n, k): (usize, usize, usize)| {
            let a = Matrix::<f64>::random(m, k, 7);
            let b = Matrix::<f64>::random(k, n, 8);
            let mut c = Matrix::<f64>::random(m, n, 9);
            let (a, b) = (a.as_ref(), b.as_ref());
            ft_gemm_with_ctx(ctx, &cfg, 1.0, &a, &b, 0.5, &mut c.as_mut()).unwrap();
            (c, ctx.core.pack_capacity())
        };
        let (first, grown) = run(&mut ctx, (128, 128, 128));
        let p = ctx.core.params;
        assert!(grown.1 < p.packed_b_len(), "B~ sized by the blocking");
        assert_eq!(grown, packed_lens(&p, 128, 128, 128));
        let (_, after_small) = run(&mut ctx, (32, 48, 64));
        let (again, after_again) = run(&mut ctx, (128, 128, 128));
        assert_eq!((after_small, after_again), (grown, grown));
        assert_eq!(again.as_slice(), first.as_slice());
    }

    /// The call count lives in the checksum state: a regrowth between two
    /// protected calls keeps it, and plan-time `reserve` and plain calls do
    /// not add to it.
    #[test]
    fn protected_calls_are_counted_across_growth() {
        let cfg = FtConfig::default();
        let mut ctx = FtGemmContext::<f64>::new();
        let run = |ctx: &mut FtGemmContext<f64>, cfg: Option<&FtConfig>, dim: usize| {
            let a = Matrix::<f64>::random(dim, dim, 1);
            let mut c = Matrix::<f64>::zeros(dim, dim);
            let (a, c) = (a.as_ref(), &mut c.as_mut());
            run_serial(ctx, cfg, 1.0, &a, &a, 0.0, c).unwrap();
        };
        run(&mut ctx, Some(&cfg), 16);
        ctx.reserve(Some(&cfg), 96, 96, 96, 1.0).unwrap();
        run(&mut ctx, None, 160);
        run(&mut ctx, Some(&cfg), 200);
        assert_eq!(ctx.checks.view(&mut [], false).call, 2);
    }

    #[test]
    fn context_reuse_with_injection_is_deterministic_per_call() {
        let inj = FaultInjector::new(13, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(2));
        let cfg = FtConfig::with_injector(inj);
        let mut ctx = FtGemmContext::<f64>::new();
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
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::{select_kernel, CoreError, Matrix};

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

        let mut ctx = GemmContext::<T>::with_isa(isa);
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

        gemm_with_params(
            IsaLevel::detect(),
            params,
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
        let mut ctx = GemmContext::<f64>::new();
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
        let mut ctx = GemmContext::<f64>::new();
        let r = gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        );
        assert!(matches!(r, Err(CoreError::ShapeMismatch { .. })));
    }

    #[test]
    fn c_shape_mismatch_rejected() {
        let a = Matrix::<f64>::zeros(3, 4);
        let b = Matrix::<f64>::zeros(4, 6);
        let mut c = Matrix::<f64>::zeros(3, 5);
        let mut ctx = GemmContext::<f64>::new();
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
        let mut ctx = GemmContext::<f64>::new();
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
        let mut ctx = GemmContext::<f64>::new();
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
            let mut ctx = GemmContext::<f64>::new();
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
