//! Serial fault-tolerant GEMM: the paper's FT-DGEMM (§2.2), type-generic.
//!
//! Loop structure is identical to the plain driver (`ftgemm_core::gemm`)
//! with the ABFT operations — the functions of [`crate::panel`], shared with
//! the matrix-parallel driver — threaded through the existing passes:
//!
//! ```text
//! ar = alpha * e^T A                          (one-time encode of A)
//! for jc (NC blocks of columns):
//!     scale C(:,jc) by beta, encoding enc_row/enc_col        [fused]
//!     for pc (KC depth panels):
//!         pack B~ — also bc (B_c) and enc_col update         [fused]
//!         for ic (MC row blocks):
//!             pack A~ — also enc_row update                  [fused]
//!             macro kernel — also ref_row/ref_col            [fused]
//!               (beta == 0, pc == 0: stores C, never reads it)
//!         verify {enc,ref} x {row,col}; locate & correct     ("p-loop: verify")
//! ```
//!
//! Recovery ([`Recovery::RetryPanel`]) keeps no per-panel checkpoint. The
//! one recovery point of a column block is its *base state* — the block
//! holding `beta * C0` and `enc_*` holding its checksums, as the beta pass
//! leaves them. For `beta == 0` that state is all zeros and the first panel
//! *stores* over whatever the block holds, so nothing is saved, copied or
//! even re-zeroed beyond `enc_*`; otherwise the beta pass writes the scaled
//! block to `snap_c` as it goes. A pattern the corrector cannot resolve
//! restores the base (at `beta == 0`: just restarts) and re-runs the block's
//! panels from `pc = 0` through the same loop.

use crate::{checksum, panel, FtConfig, FtError, FtReport, FtResult, Recovery};
use ftgemm_core::gemm::validate_shapes;
use ftgemm_core::pack;
use ftgemm_core::{macro_kernel::macro_kernel, GemmContext, MatMut, MatRef, Scalar};
use ftgemm_faults::SiteStream;

/// Reusable state for repeated fault-tolerant GEMM calls: the plain GEMM
/// context plus the checksum work vectors.
#[derive(Debug)]
pub struct FtGemmContext<T: Scalar> {
    /// Underlying GEMM context (kernel, blocking parameters, pack buffers).
    pub core: GemmContext<T>,
    ar: Vec<T>,
    bc: Vec<T>,
    enc_row: Vec<T>,
    enc_col: Vec<T>,
    ref_row: Vec<T>,
    ref_col: Vec<T>,
    /// Base state of the current column block under
    /// [`Recovery::RetryPanel`] with `beta != 0`: `beta * C0`, column-packed,
    /// plus its encoded checksums. No other call sizes or touches these.
    snap_c: Vec<T>,
    snap_enc_row: Vec<T>,
    snap_enc_col: Vec<T>,
    call_counter: u64,
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
            ar: Vec::new(),
            bc: Vec::new(),
            enc_row: Vec::new(),
            enc_col: Vec::new(),
            ref_row: Vec::new(),
            ref_col: Vec::new(),
            snap_c: Vec::new(),
            snap_enc_row: Vec::new(),
            snap_enc_col: Vec::new(),
            call_counter: 0,
        }
    }
}

impl<T: Scalar> FtGemmContext<T> {
    /// Pre-sizes the packing scratch and — under `Some(cfg)` — every
    /// checksum work vector for an `m x n x k` problem, so a subsequent
    /// [`run_serial`] call of that shape, configuration and `beta` performs
    /// **no heap allocation**. The facade's `GemmPlan` calls this at plan
    /// time; the sizes mirror the driver exactly, and re-reserving the same
    /// shape is free. The `m x NC` base snapshot exists only where a
    /// rollback needs it: [`Recovery::RetryPanel`] **and** `beta != 0`.
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
            let nc_max = p.nc.min(n);
            grow(&mut self.ar, k);
            grow(&mut self.bc, p.kc);
            grow(&mut self.enc_row, m);
            grow(&mut self.enc_col, nc_max);
            grow(&mut self.ref_row, m);
            grow(&mut self.ref_col, nc_max);
            if keeps_base(cfg, beta) {
                grow(&mut self.snap_c, m * nc_max);
                grow(&mut self.snap_enc_row, m);
                grow(&mut self.snap_enc_col, nc_max);
            }
        }
        self.core.pack_buffers(p.packed_a_len(), p.packed_b_len())?;
        Ok(())
    }
}

/// True when a rollback cannot recompute the column block's base state and
/// must restore a saved one. At `beta == 0` the base is all zeros.
fn keeps_base<T: Scalar>(cfg: &FtConfig, beta: T) -> bool {
    matches!(cfg.recovery, Recovery::RetryPanel { .. }) && beta != T::ZERO
}

impl<T: Scalar> Default for FtGemmContext<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The serial execute path: `C = alpha*A*B + beta*C` on a caller-held
/// context, protected by the fused-ABFT driver under `Some(cfg)` and run by
/// the plain blocked driver (`ftgemm_core::gemm` on `ctx.core`, reporting
/// [`FtReport::default`]) under `None`. Every serial caller that carries an
/// optional configuration — planned one-shots, batch items — goes through
/// here, so the protected-vs-plain choice is made in one place.
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
            ftgemm_core::gemm(&mut ctx.core, alpha, a, b, beta, c)?;
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
    let (m, n, k) = validate_shapes(a, b, c)?;
    let mut report = FtReport::default();

    if m == 0 || n == 0 {
        return Ok(report);
    }
    if k == 0 || alpha == T::ZERO {
        ftgemm_core::gemm::scale_c(c, beta);
        return Ok(report);
    }

    let p = ctx.core.params;
    let kernel = ctx.core.kernel;

    // Work vectors: sized (grow-only, never re-zeroed) by `reserve`, the
    // single authoritative size list shared with plan-time preallocation.
    // Each is overwritten before it is read: `ar` right below, `enc_*` by
    // the beta pass, `bc`/`ref_*` per panel, `snap_*` with the base state.
    ctx.reserve(Some(cfg), m, n, k, beta)?;
    let max_rollbacks = match cfg.recovery {
        Recovery::ReportOnly => 0u32,
        Recovery::RetryPanel { max_retries } => max_retries,
    };
    let keep_base = keeps_base(cfg, beta);

    // A_r = alpha * e^T A — the one O(mk) encode pass (paper §2.3 encodes it
    // before the main loops).
    pack::col_sums_scaled(a, alpha, &mut ctx.ar[..k]);

    // Injection stream: one site per macro-kernel invocation.
    ctx.call_counter += 1;
    let n_sites = n.div_ceil(p.nc) * k.div_ceil(p.kc) * m.div_ceil(p.mc);
    let mut stream: Option<SiteStream> = cfg
        .injector
        .as_ref()
        .map(|inj| inj.stream(ctx.call_counter, n_sites));

    let (a_buf, b_buf) = ctx
        .core
        .pack_buffers(p.packed_a_len(), p.packed_b_len())
        .map_err(FtError::Core)?;

    let fusion = cfg.fusion;

    let mut jc = 0;
    while jc < n {
        let nc_eff = p.nc.min(n - jc);
        let enc_col = &mut ctx.enc_col[..nc_eff];
        let ref_col = &mut ctx.ref_col[..nc_eff];
        let enc_row = &mut ctx.enc_row[..m];
        let ref_row = &mut ctx.ref_row[..m];

        let mut rollbacks = 0u32;
        'block: loop {
            // Base state of this column block: beta-scale + initial checksum
            // encode, saving both where a rollback could not recompute them.
            // At beta == 0 only `enc_*` are zeroed — the first panel stores
            // over the block — so a rollback there is just this restart;
            // otherwise it copies the saved base back.
            let mut c_block = c.submatrix_mut(0, jc, m, nc_eff);
            if rollbacks > 0 && keep_base {
                for j in 0..nc_eff {
                    c_block
                        .col_mut(j)
                        .copy_from_slice(&ctx.snap_c[j * m..(j + 1) * m]);
                }
                enc_row.copy_from_slice(&ctx.snap_enc_row[..m]);
                enc_col.copy_from_slice(&ctx.snap_enc_col[..nc_eff]);
            } else {
                let base = keep_base.then(|| &mut ctx.snap_c[..m * nc_eff]);
                panel::encode_base(fusion, &mut c_block, beta, enc_row, enc_col, base);
                if keep_base {
                    ctx.snap_enc_row[..m].copy_from_slice(enc_row);
                    ctx.snap_enc_col[..nc_eff].copy_from_slice(enc_col);
                }
            }

            // `panel::verify`'s memory of the largest correction applied to
            // this block; starts over with the block after a rollback.
            let mut correction_scale = T::ZERO;

            let mut pc = 0;
            while pc < k {
                let kc_eff = p.kc.min(k - pc);

                let bc = &mut ctx.bc[..kc_eff];
                bc.fill(T::ZERO);

                let b_block = b.submatrix(pc, jc, kc_eff, nc_eff);
                let ar = &ctx.ar[pc..pc + kc_eff];
                panel::pack_b(fusion, &b_block, p.nr, b_buf, ar, bc, enc_col);

                // Reference checksums cover the whole column block per panel.
                if fusion.fuse_kernel_refs {
                    ref_col.fill(T::ZERO);
                    ref_row.fill(T::ZERO);
                }

                let mut ic = 0;
                while ic < m {
                    let mc_eff = p.mc.min(m - ic);
                    let a_block = a.submatrix(ic, pc, mc_eff, kc_eff);
                    let enc_rows = &mut enc_row[ic..ic + mc_eff];
                    panel::pack_a(fusion, &a_block, alpha, p.mr, a_buf, bc, enc_rows);

                    let mut c_block = c.submatrix_mut(ic, jc, mc_eff, nc_eff);
                    let sums = if fusion.fuse_kernel_refs {
                        Some((&mut ref_col[..], &mut ref_row[ic..ic + mc_eff]))
                    } else {
                        None
                    };
                    let store = beta == T::ZERO && pc == 0;
                    macro_kernel(&kernel, kc_eff, a_buf, b_buf, &mut c_block, sums, store);

                    // An injected error reaches the in-register reference
                    // sums as the faulty FMA's value would have; unfused refs
                    // re-read C below and see it anyway.
                    if let Some(event) = stream.as_mut().and_then(SiteStream::poll) {
                        report.injected += 1;
                        let (i, j, delta) = panel::inject(&event, &mut c_block);
                        if fusion.fuse_kernel_refs {
                            ref_col[j] += delta;
                            ref_row[ic + i] += delta;
                        }
                    }
                    ic += p.mc;
                }

                let mut c_block = c.submatrix_mut(0, jc, m, nc_eff);
                if !fusion.fuse_kernel_refs {
                    // Traditional ABFT: a separate O(m*nc) read-back pass.
                    checksum::encode_c(&c_block.as_ref(), ref_row, ref_col);
                }
                if let Err(detail) = panel::verify(
                    cfg,
                    pc + kc_eff,
                    (enc_row, ref_row),
                    (enc_col, ref_col),
                    &mut c_block,
                    &mut correction_scale,
                    &mut report,
                ) {
                    if rollbacks < max_rollbacks {
                        // Back to the base state; every panel up to and
                        // including this one is recomputed (the inputs A and
                        // B are untouched by construction).
                        rollbacks += 1;
                        report.retried_panels += pc / p.kc + 1;
                        continue 'block;
                    }
                    report.publish_global();
                    return Err(FtError::Unrecoverable { jc, pc, detail });
                }
                pc += p.kc;
            }
            break;
        }
        jc += p.nc;
    }
    report.publish_global();
    Ok(report)
}

/// Grow-only: the driver slices what it needs and overwrites it before
/// reading, so a reused vector is neither shrunk nor re-zeroed.
fn grow<T: Scalar>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::ZERO);
    }
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
