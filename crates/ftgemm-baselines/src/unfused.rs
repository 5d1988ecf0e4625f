//! Traditional (unfused) ABFT baseline.
//!
//! Same checksum algebra as FT-GEMM, but every checksum operation is a
//! separate O(n^2) memory pass: encoding `C`'s checksums re-reads `C` after
//! scaling, `B_c`/`A_r` encoding re-reads the operand panels, and the
//! reference checksums re-read the updated `C` block after the macro kernel
//! instead of riding in registers. On AVX-512-class machines these passes
//! no longer amortize — the paper quotes ~15% overhead vs ~3% fused (§2.2),
//! which experiment T1 reproduces with this baseline.

use ftgemm_abft::{ft_gemm_with_ctx, FtConfig, FtGemmContext, FtReport, FtResult};
use ftgemm_core::{MatMut, MatRef, Scalar};
use ftgemm_parallel::{run_parallel, ParFtWorkspace, ParGemmContext};

/// Serial unfused-ABFT GEMM (traditional scheme).
pub fn unfused_ft_gemm<T: Scalar>(
    ctx: &mut FtGemmContext<T>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    let cfg = FtConfig::unfused();
    ft_gemm_with_ctx(ctx, &cfg, alpha, a, b, beta, c)
}

/// Parallel unfused-ABFT GEMM on a caller-held workspace (grown to fit).
pub fn unfused_par_ft_gemm<T: Scalar>(
    ctx: &ParGemmContext<T>,
    ws: &mut ParFtWorkspace<T>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    let cfg = FtConfig::unfused();
    run_parallel(ctx, ws, Some(&cfg), alpha, a, b, beta, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;

    #[test]
    fn unfused_serial_correct() {
        let mut ctx = FtGemmContext::<f64>::new();
        let a = Matrix::<f64>::random(50, 40, 1);
        let b = Matrix::<f64>::random(40, 45, 2);
        let mut c = Matrix::<f64>::random(50, 45, 3);
        let mut c_ref = c.clone();
        let rep = unfused_ft_gemm(
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
        assert_eq!(rep.detected, 0);
        assert!(rep.verifications > 0);
    }

    #[test]
    fn unfused_parallel_correct() {
        let ctx = ParGemmContext::<f64>::with_threads(3);
        let a = Matrix::<f64>::random(80, 64, 4);
        let b = Matrix::<f64>::random(64, 70, 5);
        let mut c = Matrix::<f64>::zeros(80, 70);
        let mut c_ref = Matrix::<f64>::zeros(80, 70);
        unfused_par_ft_gemm(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
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
}
