//! Checksum encoding primitives.
//!
//! The fused variants ride on passes GEMM performs anyway; the standalone
//! variants implement the same algebra as separate O(n^2) sweeps and back
//! the "traditional ABFT" baseline (fusion ablation).

use ftgemm_core::{MatMut, MatRef, Scalar};

/// Fused `C *= beta` + checksum encode over a column block of `C`.
///
/// In one pass over the block: scales each element by `beta`, and
/// accumulates the scaled values into `enc_row` (length = block rows) and
/// `enc_col` (length = block cols). Both output vectors are **overwritten**.
///
/// `beta == 1` skips the write-back. `beta == 0` does not touch `C` at all:
/// the block's base state is all zeros whatever it holds, the drivers' first
/// depth panel *stores* over it (`ftgemm_core::Kernel::store`), and all that
/// is left of this pass is zeroing `enc_row` / `enc_col` (and `base`).
///
/// `base`, when given (length = rows * cols), receives the scaled block
/// column-packed — the loop nest's rollback point. Each column is copied
/// right after it was scaled and summed, while it is still in cache, so the
/// save adds one write stream to this pass and no second read of `C`.
pub fn scale_encode_c<T: Scalar>(
    c: &mut MatMut<'_, T>,
    beta: T,
    enc_row: &mut [T],
    enc_col: &mut [T],
    mut base: Option<&mut [T]>,
) {
    let m = c.nrows();
    let n = c.ncols();
    assert_eq!(enc_row.len(), m, "scale_encode_c: enc_row length");
    assert_eq!(enc_col.len(), n, "scale_encode_c: enc_col length");
    if let Some(base) = &base {
        assert_eq!(base.len(), m * n, "scale_encode_c: base length");
    }
    enc_row.fill(T::ZERO);

    if beta == T::ZERO {
        enc_col.fill(T::ZERO);
        if let Some(base) = base {
            base.fill(T::ZERO);
        }
        return;
    }
    for j in 0..n {
        let col = c.col_mut(j);
        if beta != T::ONE {
            for v in col.iter_mut() {
                *v = beta * *v;
            }
        }
        enc_col[j] = sum_into_rows(col, enc_row);
        if let Some(base) = base.as_deref_mut() {
            base[j * m..(j + 1) * m].copy_from_slice(col);
        }
    }
}

/// Unfused equivalent of [`scale_encode_c`]: a scaling pass followed by a
/// second full read of the block for the checksums (the memory traffic the
/// paper's fusion eliminates), and a third for `base` when one is kept. At
/// `beta == 0` there is no pass over `C` to unfuse and the two are the same.
pub fn scale_then_encode_c<T: Scalar>(
    c: &mut MatMut<'_, T>,
    beta: T,
    enc_row: &mut [T],
    enc_col: &mut [T],
    base: Option<&mut [T]>,
) {
    if beta == T::ZERO {
        return scale_encode_c(c, beta, enc_row, enc_col, base);
    }
    ftgemm_core::gemm::scale_c(c, beta);
    encode_c(&c.as_ref(), enc_row, enc_col);
    if let Some(base) = base {
        let (c, m) = (c.as_ref(), c.nrows());
        assert_eq!(
            base.len(),
            m * c.ncols(),
            "scale_then_encode_c: base length"
        );
        for j in 0..c.ncols() {
            base[j * m..(j + 1) * m].copy_from_slice(c.col(j));
        }
    }
}

/// Standalone checksum read of a block: `enc_row[i] = Σ_j C[i,j]`,
/// `enc_col[j] = Σ_i C[i,j]`. Outputs overwritten.
pub fn encode_c<T: Scalar>(c: &MatRef<'_, T>, enc_row: &mut [T], enc_col: &mut [T]) {
    let m = c.nrows();
    let n = c.ncols();
    assert_eq!(enc_row.len(), m, "encode_c: enc_row length");
    assert_eq!(enc_col.len(), n, "encode_c: enc_col length");
    enc_row.fill(T::ZERO);
    for j in 0..n {
        enc_col[j] = sum_into_rows(c.col(j), enc_row);
    }
}

/// One column of a checksum encode: returns `Σ_i col[i]` and adds each
/// `col[i]` into `enc_row[i]`. The column sum runs over `LANES` independent
/// partial sums (one serial chain would bound the pass by add latency, not
/// by memory), so its rounding differs from a left-to-right sum; `enc_row`
/// sees the same additions in the same order either way.
fn sum_into_rows<T: Scalar>(col: &[T], enc_row: &mut [T]) -> T {
    const LANES: usize = 8;
    let mut acc = [T::ZERO; LANES];
    let mut cols = col.chunks_exact(LANES);
    let mut rows = enc_row.chunks_exact_mut(LANES);
    for (c, r) in (&mut cols).zip(&mut rows) {
        for l in 0..LANES {
            acc[l] += c[l];
            r[l] += c[l];
        }
    }
    let mut tail = T::ZERO;
    for (&v, r) in cols.remainder().iter().zip(rows.into_remainder()) {
        tail += v;
        *r += v;
    }
    acc.iter().fold(tail, |s, &v| s + v)
}

/// Standalone `bc[p] = Σ_j B[p,j]` over a panel (unfused B_c).
pub fn encode_bc<T: Scalar>(b: &MatRef<'_, T>, bc: &mut [T]) {
    let k = b.nrows();
    let n = b.ncols();
    assert_eq!(bc.len(), k, "encode_bc: bc length");
    bc.fill(T::ZERO);
    for j in 0..n {
        let col = b.col(j);
        for p in 0..k {
            bc[p] += col[p];
        }
    }
}

/// Standalone `enc_col[j] += Σ_p ar[p] * B[p,j]` (unfused C_r update).
pub fn accumulate_enc_col<T: Scalar>(b: &MatRef<'_, T>, ar: &[T], enc_col: &mut [T]) {
    let k = b.nrows();
    let n = b.ncols();
    assert_eq!(ar.len(), k, "accumulate_enc_col: ar length");
    assert_eq!(enc_col.len(), n, "accumulate_enc_col: enc_col length");
    for j in 0..n {
        let col = b.col(j);
        let mut acc = T::ZERO;
        for p in 0..k {
            acc = ar[p].mul_add(col[p], acc);
        }
        enc_col[j] += acc;
    }
}

/// Standalone `enc_row[i] += alpha * Σ_q A[i,q] * bc[q]` (unfused C_c update).
pub fn accumulate_enc_row<T: Scalar>(a: &MatRef<'_, T>, alpha: T, bc: &[T], enc_row: &mut [T]) {
    let m = a.nrows();
    let k = a.ncols();
    assert_eq!(bc.len(), k, "accumulate_enc_row: bc length");
    assert_eq!(enc_row.len(), m, "accumulate_enc_row: enc_row length");
    for q in 0..k {
        let col = a.col(q);
        let w = alpha * bc[q];
        for i in 0..m {
            enc_row[i] = col[i].mul_add(w, enc_row[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::Matrix;

    #[test]
    fn scale_encode_matches_manual() {
        let mut c = Matrix::<f64>::random(7, 5, 1);
        let orig = c.clone();
        let beta = -1.5;
        let mut er = vec![9.0; 7];
        let mut ec = vec![9.0; 5];
        scale_encode_c(&mut c.as_mut(), beta, &mut er, &mut ec, None);
        for j in 0..5 {
            for i in 0..7 {
                assert!((c.get(i, j) - beta * orig.get(i, j)).abs() < 1e-15);
            }
        }
        for i in 0..7 {
            let want: f64 = (0..5).map(|j| c.get(i, j)).sum();
            assert!((er[i] - want).abs() < 1e-12);
        }
        for j in 0..5 {
            let want: f64 = (0..7).map(|i| c.get(i, j)).sum();
            assert!((ec[j] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_zero_zeroes_the_checksums_and_leaves_c_to_the_first_panel() {
        for encode in [scale_encode_c::<f64>, scale_then_encode_c::<f64>] {
            let mut c = Matrix::<f64>::filled(4, 4, f64::NAN);
            let mut er = vec![1.0; 4];
            let mut ec = vec![1.0; 4];
            let mut base = vec![1.0; 16];
            encode(&mut c.as_mut(), 0.0, &mut er, &mut ec, Some(&mut base));
            assert!(c.as_slice().iter().all(|v| v.is_nan()), "C was touched");
            assert!(er.iter().chain(&ec).chain(&base).all(|&v| v == 0.0));
        }
    }

    #[test]
    fn scale_encode_beta_one_no_modification() {
        let mut c = Matrix::<f64>::random(4, 6, 3);
        let orig = c.clone();
        let mut er = vec![0.0; 4];
        let mut ec = vec![0.0; 6];
        scale_encode_c(&mut c.as_mut(), 1.0, &mut er, &mut ec, None);
        assert_eq!(c.as_slice(), orig.as_slice());
        let want: f64 = (0..4).map(|i| orig.get(i, 2)).sum();
        assert!((ec[2] - want).abs() < 1e-12);
    }

    #[test]
    fn fused_equals_unfused() {
        let base = Matrix::<f64>::random(9, 11, 4);
        let beta = 0.75;

        let mut c1 = base.clone();
        let mut er1 = vec![0.0; 9];
        let mut ec1 = vec![0.0; 11];
        let mut saved1 = vec![f64::NAN; 99];
        scale_encode_c(
            &mut c1.as_mut(),
            beta,
            &mut er1,
            &mut ec1,
            Some(&mut saved1),
        );

        let mut c2 = base.clone();
        let mut er2 = vec![0.0; 9];
        let mut ec2 = vec![0.0; 11];
        let mut saved2 = vec![f64::NAN; 99];
        scale_then_encode_c(
            &mut c2.as_mut(),
            beta,
            &mut er2,
            &mut ec2,
            Some(&mut saved2),
        );

        assert_eq!(c1.as_slice(), c2.as_slice());
        // The saved base is the scaled block itself (9x11, contiguous).
        assert_eq!(saved1, c1.as_slice());
        assert_eq!(saved2, c2.as_slice());
        for (a, b) in er1.iter().zip(&er2) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in ec1.iter().zip(&ec2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn encode_bc_matches() {
        let b = Matrix::<f64>::random(6, 8, 5);
        let mut bc = vec![0.0; 6];
        encode_bc(&b.as_ref(), &mut bc);
        for p in 0..6 {
            let want: f64 = (0..8).map(|j| b.get(p, j)).sum();
            assert!((bc[p] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulate_enc_col_matches() {
        let b = Matrix::<f64>::random(5, 7, 6);
        let ar: Vec<f64> = (0..5).map(|p| p as f64 * 0.3 - 1.0).collect();
        let mut ec = vec![2.0; 7];
        accumulate_enc_col(&b.as_ref(), &ar, &mut ec);
        for j in 0..7 {
            let want: f64 = 2.0 + (0..5).map(|p| ar[p] * b.get(p, j)).sum::<f64>();
            assert!((ec[j] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulate_enc_row_matches() {
        let a = Matrix::<f64>::random(6, 4, 7);
        let bc: Vec<f64> = (0..4).map(|q| q as f64 + 0.5).collect();
        let alpha = -2.0;
        let mut er = vec![1.0; 6];
        accumulate_enc_row(&a.as_ref(), alpha, &bc, &mut er);
        for i in 0..6 {
            let want: f64 = 1.0 + (0..4).map(|q| alpha * a.get(i, q) * bc[q]).sum::<f64>();
            assert!((er[i] - want).abs() < 1e-12);
        }
    }
}
