//! The naive reference GEMM, the test oracle.
//!
//! Deliberately simple (ijp loops, no blocking, no SIMD) so it is "obviously
//! correct"; every optimized path in the workspace is validated against these.

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
}
