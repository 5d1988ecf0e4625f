//! The reference GEMMs: the test oracles and the rungs below the packed
//! kernels.
//!
//! [`naive_gemm`] is deliberately simple (ijp loops, no blocking, no SIMD)
//! so it is "obviously correct"; every optimized path in the workspace is
//! validated against it. [`NaiveGemm`] wraps it as a comparator, and
//! [`BlockedGemm`] is one rung above: cache-tiled but unpacked and not
//! explicitly vectorized, so the gap between it and the packed kernels
//! quantifies the value of packing (the paper's §2.1 frame).

use crate::matrix::{MatMut, MatRef};
use crate::scalar::Scalar;

/// Naive `C = alpha*A*B + beta*C` (jik loop, dot-product accumulation).
pub fn naive_gemm<T: Scalar>(
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) {
    let m = a.nrows();
    let k = a.ncols();
    let n = b.ncols();
    assert_eq!(b.nrows(), k, "naive_gemm: inner dimension mismatch");
    assert_eq!(c.nrows(), m, "naive_gemm: C rows mismatch");
    assert_eq!(c.ncols(), n, "naive_gemm: C cols mismatch");

    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            let old = c.get(i, j);
            c.set(i, j, alpha * acc + beta * old);
        }
    }
}

/// The unblocked, unvectorized jik-loop GEMM.
///
/// Used as the numerical oracle in tests and as the zero-point in the
/// benchmark harness (it shows where "no optimization at all" lands).
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveGemm;

impl NaiveGemm {
    /// Display name for reports.
    pub const NAME: &'static str = "naive";

    /// `C = alpha*A*B + beta*C`.
    pub fn run<T: Scalar>(
        &self,
        alpha: T,
        a: &MatRef<'_, T>,
        b: &MatRef<'_, T>,
        beta: T,
        c: &mut MatMut<'_, T>,
    ) {
        naive_gemm(alpha, a, b, beta, c);
    }
}

/// Register/cache-tiled GEMM without packing or explicit SIMD.
#[derive(Debug, Clone, Copy)]
pub struct BlockedGemm {
    /// Tile edge for the i/j/p loops.
    pub block: usize,
}

impl Default for BlockedGemm {
    fn default() -> Self {
        BlockedGemm { block: 64 }
    }
}

impl BlockedGemm {
    /// Display name for reports.
    pub const NAME: &'static str = "blocked-nopack";

    /// `C = alpha*A*B + beta*C`.
    pub fn run<T: Scalar>(
        &self,
        alpha: T,
        a: &MatRef<'_, T>,
        b: &MatRef<'_, T>,
        beta: T,
        c: &mut MatMut<'_, T>,
    ) {
        let m = a.nrows();
        let k = a.ncols();
        let n = b.ncols();
        assert_eq!(b.nrows(), k, "BlockedGemm: inner dimension mismatch");
        assert_eq!(c.nrows(), m, "BlockedGemm: C rows mismatch");
        assert_eq!(c.ncols(), n, "BlockedGemm: C cols mismatch");
        let bs = self.block.max(1);

        crate::gemm::scale_c(c, beta);
        if alpha == T::ZERO {
            return;
        }

        // jc/pc/ic tiling; the micro loop is j-i-p with a column-contiguous
        // inner axis so LLVM can vectorize the i loop.
        let mut jj = 0;
        while jj < n {
            let nb = bs.min(n - jj);
            let mut pp = 0;
            while pp < k {
                let kb = bs.min(k - pp);
                let mut ii = 0;
                while ii < m {
                    let mb = bs.min(m - ii);
                    for j in jj..jj + nb {
                        for p in pp..pp + kb {
                            let w = alpha * b.get(p, j);
                            if w == T::ZERO {
                                continue;
                            }
                            let a_col = &a.col(p)[ii..ii + mb];
                            let c_col = &mut c.col_mut(j)[ii..ii + mb];
                            for i in 0..mb {
                                c_col[i] = a_col[i].mul_add(w, c_col[i]);
                            }
                        }
                    }
                    ii += bs;
                }
                pp += bs;
            }
            jj += bs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn gemm_2x2_by_hand() {
        // A = [1 2; 3 4] (col-major), B = [5 6; 7 8], C0 = I
        let a = Matrix::from_col_major(2, 2, &[1.0, 3.0, 2.0, 4.0]).unwrap();
        let b = Matrix::from_col_major(2, 2, &[5.0, 7.0, 6.0, 8.0]).unwrap();
        let mut c = Matrix::<f64>::identity(2);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 10.0, &mut c.as_mut());
        // A*B = [19 22; 43 50]; + 10*I
        assert_eq!(c.get(0, 0), 29.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 60.0);
    }

    #[test]
    fn identity_times_identity() {
        let id = Matrix::<f64>::identity(8);
        let mut c = Matrix::<f64>::zeros(8, 8);
        NaiveGemm.run(1.0, &id.as_ref(), &id.as_ref(), 0.0, &mut c.as_mut());
        assert!(c.max_abs_diff(&id) == 0.0);
    }

    #[test]
    fn matches_naive() {
        for &(m, n, k) in &[(5usize, 7usize, 9usize), (64, 64, 64), (100, 33, 77)] {
            let a = Matrix::<f64>::random(m, k, 1);
            let b = Matrix::<f64>::random(k, n, 2);
            let mut c1 = Matrix::<f64>::random(m, n, 3);
            let mut c2 = c1.clone();
            BlockedGemm::default().run(1.5, &a.as_ref(), &b.as_ref(), -0.5, &mut c1.as_mut());
            naive_gemm(1.5, &a.as_ref(), &b.as_ref(), -0.5, &mut c2.as_mut());
            assert!(c1.rel_max_diff(&c2) < 1e-10, "{m}x{n}x{k}");
        }
    }

    #[test]
    fn small_block_size() {
        let a = Matrix::<f64>::random(20, 20, 4);
        let b = Matrix::<f64>::random(20, 20, 5);
        let mut c1 = Matrix::<f64>::zeros(20, 20);
        let mut c2 = Matrix::<f64>::zeros(20, 20);
        BlockedGemm { block: 3 }.run(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c1.as_mut());
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c2.as_mut());
        assert!(c1.rel_max_diff(&c2) < 1e-10);
    }

    #[test]
    fn alpha_zero_scales_only() {
        let a = Matrix::<f64>::random(4, 4, 6);
        let b = Matrix::<f64>::random(4, 4, 7);
        let mut c = Matrix::<f64>::filled(4, 4, 2.0);
        BlockedGemm::default().run(0.0, &a.as_ref(), &b.as_ref(), 3.0, &mut c.as_mut());
        assert!(c.as_slice().iter().all(|&v| v == 6.0));
    }
}
