//! BLAS-compatible Level-3 entry points over raw column-major slices.
//!
//! These mirror the reference `cblas_dgemm`/`cblas_sgemm` signatures
//! (column-major layout, transpose flags, leading dimensions) so code
//! ported from C BLAS can call FT-GEMM directly. Both the plain and the
//! fault-tolerant drivers are exposed.

use crate::dmr::DmrConfig;
use ftgemm_abft::{ft_gemm_with_ctx, FtConfig, FtGemmContext, FtReport, FtResult};
use ftgemm_core::{gemm_op, GemmContext, MatMut, MatRef, Op, Result, Scalar};

/// Transpose flag, mirroring CBLAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// `op(X) = X`
    None,
    /// `op(X) = X^T`
    Trans,
}

impl From<Transpose> for Op {
    fn from(t: Transpose) -> Op {
        match t {
            Transpose::None => Op::NoTrans,
            Transpose::Trans => Op::Trans,
        }
    }
}

/// Generic BLAS-style GEMM over raw column-major slices:
/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// * `a`: `lda x (k or m)` column-major storage; logical `op(A)` is `m x k`.
/// * `b`: `ldb x (n or k)`; logical `op(B)` is `k x n`.
/// * `c`: `ldc x n`; always `m x n` untransposed.
#[allow(clippy::too_many_arguments)]
pub fn gemm_blas<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> Result<()> {
    let (a_rows, a_cols) = match transa {
        Transpose::None => (m, k),
        Transpose::Trans => (k, m),
    };
    let (b_rows, b_cols) = match transb {
        Transpose::None => (k, n),
        Transpose::Trans => (n, k),
    };
    let a_view = MatRef::from_slice(a, a_rows, a_cols, lda)?;
    let b_view = MatRef::from_slice(b, b_rows, b_cols, ldb)?;
    let mut c_view = MatMut::from_slice(c, m, n, ldc)?;
    let mut ctx = GemmContext::<T>::new();
    gemm_op(
        &mut ctx,
        transa.into(),
        transb.into(),
        alpha,
        &a_view,
        &b_view,
        beta,
        &mut c_view,
    )
}

/// `dgemm`: the classic double-precision BLAS-3 signature.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) -> Result<()> {
    gemm_blas(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

/// `sgemm`: single-precision BLAS-3.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) -> Result<()> {
    gemm_blas(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

/// Fault-tolerant `dgemm` (NoTrans/NoTrans; the ABFT checksum layout is
/// defined on untransposed operands — transpose inputs up front if needed).
#[allow(clippy::too_many_arguments)]
pub fn ft_dgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    cfg: &FtConfig,
) -> FtResult<FtReport> {
    let a_view = MatRef::from_slice(a, m, k, lda).map_err(ftgemm_abft::FtError::Core)?;
    let b_view = MatRef::from_slice(b, k, n, ldb).map_err(ftgemm_abft::FtError::Core)?;
    let mut c_view = MatMut::from_slice(c, m, n, ldc).map_err(ftgemm_abft::FtError::Core)?;
    let mut ctx = FtGemmContext::<f64>::new();
    ft_gemm_with_ctx(&mut ctx, cfg, alpha, &a_view, &b_view, beta, &mut c_view)
}

/// DMR-protected DGEMV over raw slices (BLAS signature, NoTrans).
#[allow(clippy::too_many_arguments)]
pub fn ft_dgemv(
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
    cfg: &DmrConfig,
) -> Result<crate::dmr::DmrReport> {
    let a_view = MatRef::from_slice(a, m, n, lda)?;
    Ok(crate::level2_ft::ft_gemv(cfg, alpha, &a_view, x, beta, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;

    #[test]
    fn dgemm_matches_oracle_all_transposes() {
        let (m, n, k) = (23, 17, 31);
        let a_log = Matrix::<f64>::random(m, k, 1);
        let b_log = Matrix::<f64>::random(k, n, 2);
        let mut c_exp = Matrix::<f64>::random(m, n, 3);
        let c0 = c_exp.clone();
        naive_gemm(
            2.0,
            &a_log.as_ref(),
            &b_log.as_ref(),
            -1.0,
            &mut c_exp.as_mut(),
        );

        for (ta, tb) in [
            (Transpose::None, Transpose::None),
            (Transpose::Trans, Transpose::None),
            (Transpose::None, Transpose::Trans),
            (Transpose::Trans, Transpose::Trans),
        ] {
            let a_stored = match ta {
                Transpose::None => a_log.clone(),
                Transpose::Trans => a_log.transpose(),
            };
            let b_stored = match tb {
                Transpose::None => b_log.clone(),
                Transpose::Trans => b_log.transpose(),
            };
            let mut c = c0.clone();
            dgemm(
                ta,
                tb,
                m,
                n,
                k,
                2.0,
                a_stored.as_slice(),
                a_stored.nrows(),
                b_stored.as_slice(),
                b_stored.nrows(),
                -1.0,
                c.as_mut_slice(),
                m,
            )
            .unwrap();
            assert!(c.rel_max_diff(&c_exp) < 1e-10, "{ta:?}/{tb:?}");
        }
    }

    #[test]
    fn dgemm_with_padded_ld() {
        // lda > rows: BLAS-style padded storage.
        let (m, n, k) = (4, 3, 5);
        let lda = 7;
        let a_log = Matrix::<f64>::random(m, k, 4);
        let mut a_padded = vec![9.9; lda * k];
        for q in 0..k {
            for i in 0..m {
                a_padded[i + q * lda] = a_log.get(i, q);
            }
        }
        let b = Matrix::<f64>::random(k, n, 5);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut c_ref = Matrix::<f64>::zeros(m, n);
        dgemm(
            Transpose::None,
            Transpose::None,
            m,
            n,
            k,
            1.0,
            &a_padded,
            lda,
            b.as_slice(),
            k,
            0.0,
            c.as_mut_slice(),
            m,
        )
        .unwrap();
        naive_gemm(1.0, &a_log.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn sgemm_basic() {
        let n = 16;
        let id = Matrix::<f32>::identity(n);
        let a = Matrix::<f32>::random(n, n, 6);
        let mut c = Matrix::<f32>::zeros(n, n);
        sgemm(
            Transpose::None,
            Transpose::None,
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            id.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        )
        .unwrap();
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    fn ft_dgemm_raw_slices() {
        let (m, n, k) = (40, 30, 50);
        let a = Matrix::<f64>::random(m, k, 7);
        let b = Matrix::<f64>::random(k, n, 8);
        let mut c = vec![0.0; m * n];
        let rep = ft_dgemm(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            &mut c,
            m,
            &FtConfig::default(),
        )
        .unwrap();
        assert_eq!(rep.detected, 0);
        let mut c_ref = Matrix::<f64>::zeros(m, n);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        let got = Matrix::from_col_major(m, n, &c).unwrap();
        assert!(got.rel_max_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn ld_validation_errors() {
        let a = vec![0.0; 4];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        // lda too small for m=4
        assert!(dgemm(
            Transpose::None,
            Transpose::None,
            4,
            1,
            1,
            1.0,
            &a,
            2,
            &b,
            1,
            0.0,
            &mut c,
            4
        )
        .is_err());
    }
}
