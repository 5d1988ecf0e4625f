//! Packing of `A` and `B` blocks into micro-panel layout, plus the **fused**
//! variants that piggyback checksum encoding on the packing loads (paper
//! §2.2).
//!
//! ## Layouts
//!
//! Packed `A~` for an `m x k` block with micro-tile rows `MR`:
//! `ceil(m / MR)` slabs, slab `p` holding rows `[p*MR, p*MR + MR)`; inside a
//! slab, elements are k-major: `a~[p*(MR*k) + q*MR + i] = alpha * A[p*MR+i, q]`,
//! zero-padded in `i` past the block edge. The micro-kernel then streams one
//! slab linearly.
//!
//! Packed `B~` for a `k x n` block with micro-tile columns `NR`:
//! `ceil(n / NR)` slabs, slab `q` holding columns `[q*NR, q*NR + NR)`;
//! `b~[q*(NR*k) + p*NR + j] = B[p, q*NR+j]`, zero-padded in `j`.
//!
//! ## Fusion (the paper's core trick)
//!
//! Each element of `B` loaded for packing is reused **three** times:
//! 1. stored into `B~`,
//! 2. accumulated into the panel checksum `bc[p] += B[p, j]` (paper's B_c),
//! 3. multiplied into the *encoded* column checksum of `C`:
//!    `enc_col[j] += ar[p] * B[p, j]` (paper's C_r update, with `ar = alpha *
//!    e^T A` precomputed).
//!
//! Each element of `A` loaded for packing is reused twice: stored into `A~`
//! (scaled by `alpha`) and multiplied into the encoded row checksum of `C`:
//! `enc_row[i] += a~[i, q] * bc[q]` (paper's C_c update).

use crate::matrix::MatRef;
use crate::scalar::Scalar;

/// Packs an `m x k` block of `A` (scaled by `alpha`) into micro-panel layout.
///
/// `out` must hold at least `ceil(m/mr)*mr*k` elements.
pub fn pack_a<T: Scalar>(a: &MatRef<'_, T>, alpha: T, mr: usize, out: &mut [T]) {
    let (m, k) = (a.nrows(), a.ncols());
    let panels = m.div_ceil(mr);
    assert!(out.len() >= panels * mr * k, "pack_a: out buffer too small");

    for p in 0..panels {
        let row0 = p * mr;
        let rows = mr.min(m - row0);
        let slab = &mut out[p * mr * k..(p + 1) * mr * k];
        for q in 0..k {
            let col = &a.col(q)[row0..row0 + rows];
            let dst = &mut slab[q * mr..q * mr + mr];
            for i in 0..rows {
                dst[i] = alpha * col[i];
            }
            for d in dst[rows..].iter_mut() {
                *d = T::ZERO;
            }
        }
    }
}

/// Fused `A` packing: additionally accumulates the encoded row checksum of
/// `C`, `enc_row[i] += a~[i, q] * bc[q]`, reusing each packed element.
///
/// * `bc` — the (already reduced) panel checksum `B(panel) * e`, length `k`.
/// * `enc_row` — length `m`; accumulated in place.
pub fn pack_a_fused<T: Scalar>(
    a: &MatRef<'_, T>,
    alpha: T,
    mr: usize,
    out: &mut [T],
    bc: &[T],
    enc_row: &mut [T],
) {
    let (m, k) = (a.nrows(), a.ncols());
    assert_eq!(bc.len(), k, "pack_a_fused: bc length mismatch");
    assert_eq!(enc_row.len(), m, "pack_a_fused: enc_row length mismatch");
    let panels = m.div_ceil(mr);
    assert!(
        out.len() >= panels * mr * k,
        "pack_a_fused: out buffer too small"
    );

    for p in 0..panels {
        let row0 = p * mr;
        let rows = mr.min(m - row0);
        let slab = &mut out[p * mr * k..(p + 1) * mr * k];
        let enc = &mut enc_row[row0..row0 + rows];
        for q in 0..k {
            let col = &a.col(q)[row0..row0 + rows];
            let dst = &mut slab[q * mr..q * mr + mr];
            let bq = bc[q];
            for i in 0..rows {
                let v = alpha * col[i];
                dst[i] = v;
                enc[i] = v.mul_add(bq, enc[i]);
            }
            for d in dst[rows..].iter_mut() {
                *d = T::ZERO;
            }
        }
    }
}

/// Packs a `k x n` block of `B` into micro-panel layout.
///
/// `out` must hold at least `k * ceil(n/nr)*nr` elements.
pub fn pack_b<T: Scalar>(b: &MatRef<'_, T>, nr: usize, out: &mut [T]) {
    let (k, n) = (b.nrows(), b.ncols());
    let panels = n.div_ceil(nr);
    assert!(out.len() >= panels * nr * k, "pack_b: out buffer too small");

    for q in 0..panels {
        let col0 = q * nr;
        let cols = nr.min(n - col0);
        let slab = &mut out[q * nr * k..(q + 1) * nr * k];
        if cols < nr {
            slab.fill(T::ZERO);
        }
        for j in 0..cols {
            let col = b.col(col0 + j);
            for p in 0..k {
                slab[p * nr + j] = col[p];
            }
        }
    }
}

/// Fused `B` packing: the paper's triple reuse of every loaded `B` element.
///
/// * `ar` — `alpha * (e^T A)` restricted to this `k` panel, length `k`.
/// * `bc` — panel checksum output, length `k`; **accumulated** (callers zero
///   it per panel, the parallel driver accumulates thread partials).
/// * `enc_col` — encoded column checksum of `C` for these `n` columns,
///   length `n`; accumulated in place.
pub fn pack_b_fused<T: Scalar>(
    b: &MatRef<'_, T>,
    nr: usize,
    out: &mut [T],
    ar: &[T],
    bc: &mut [T],
    enc_col: &mut [T],
) {
    let (k, n) = (b.nrows(), b.ncols());
    assert_eq!(ar.len(), k, "pack_b_fused: ar length mismatch");
    assert_eq!(bc.len(), k, "pack_b_fused: bc length mismatch");
    assert_eq!(enc_col.len(), n, "pack_b_fused: enc_col length mismatch");
    let panels = n.div_ceil(nr);
    assert!(
        out.len() >= panels * nr * k,
        "pack_b_fused: out buffer too small"
    );

    for q in 0..panels {
        let col0 = q * nr;
        let cols = nr.min(n - col0);
        let slab = &mut out[q * nr * k..(q + 1) * nr * k];
        if cols < nr {
            slab.fill(T::ZERO);
        }
        for j in 0..cols {
            let col = b.col(col0 + j);
            let mut enc = T::ZERO;
            for p in 0..k {
                let v = col[p];
                slab[p * nr + j] = v; // reuse 1: pack
                bc[p] += v; // reuse 2: B_c
                enc = ar[p].mul_add(v, enc); // reuse 3: C_r encode
            }
            enc_col[col0 + j] += enc;
        }
    }
}

/// Column sums of `A` scaled by `alpha`: `ar[q] = alpha * Σ_i A[i, q]`
/// (the paper's A_r checksum, encoded once per GEMM).
pub fn col_sums_scaled<T: Scalar>(a: &MatRef<'_, T>, alpha: T, out: &mut [T]) {
    let (m, k) = (a.nrows(), a.ncols());
    assert_eq!(out.len(), k, "col_sums_scaled: out length mismatch");
    for q in 0..k {
        let col = a.col(q);
        let mut s = T::ZERO;
        for i in 0..m {
            s += col[i];
        }
        out[q] = alpha * s;
    }
    let _ = m;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn pack_a_layout_exact_multiple() {
        let m = 8;
        let k = 3;
        let mr = 4;
        let a = Matrix::<f64>::from_fn(m, k, |i, j| (i * 100 + j) as f64);
        let mut out = vec![f64::NAN; (m / mr) * mr * k];
        pack_a(&a.as_ref(), 1.0, mr, &mut out);
        for p in 0..m / mr {
            for q in 0..k {
                for i in 0..mr {
                    assert_eq!(
                        out[p * mr * k + q * mr + i],
                        ((p * mr + i) * 100 + q) as f64,
                        "panel {p} q {q} i {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_a_zero_pads_edge() {
        let m = 5;
        let k = 2;
        let mr = 4;
        let a = Matrix::<f64>::filled(m, k, 1.0);
        let mut out = vec![f64::NAN; 2 * mr * k];
        pack_a(&a.as_ref(), 1.0, mr, &mut out);
        // second panel has 1 valid row, 3 padded
        for q in 0..k {
            assert_eq!(out[mr * k + q * mr], 1.0);
            for i in 1..mr {
                assert_eq!(out[mr * k + q * mr + i], 0.0);
            }
        }
    }

    #[test]
    fn pack_a_applies_alpha() {
        let a = Matrix::<f64>::filled(4, 2, 3.0);
        let mut out = vec![0.0; 4 * 2];
        pack_a(&a.as_ref(), -2.0, 4, &mut out);
        assert!(out.iter().all(|&v| v == -6.0));
    }

    #[test]
    fn pack_b_layout() {
        let k = 3;
        let n = 8;
        let nr = 4;
        let b = Matrix::<f64>::from_fn(k, n, |p, j| (p * 100 + j) as f64);
        let mut out = vec![f64::NAN; k * n];
        pack_b(&b.as_ref(), nr, &mut out);
        for q in 0..n / nr {
            for p in 0..k {
                for j in 0..nr {
                    assert_eq!(out[q * nr * k + p * nr + j], (p * 100 + q * nr + j) as f64);
                }
            }
        }
    }

    #[test]
    fn pack_b_zero_pads_edge() {
        let k = 2;
        let n = 5;
        let nr = 4;
        let b = Matrix::<f64>::filled(k, n, 1.0);
        let mut out = vec![f64::NAN; k * 2 * nr];
        pack_b(&b.as_ref(), nr, &mut out);
        // second slab: col 0 valid, cols 1..4 zero
        for p in 0..k {
            assert_eq!(out[nr * k + p * nr], 1.0);
            for j in 1..nr {
                assert_eq!(out[nr * k + p * nr + j], 0.0);
            }
        }
    }

    #[test]
    fn fused_b_checksums_match_definitions() {
        let k = 7;
        let n = 10;
        let nr = 4;
        let b = Matrix::<f64>::random(k, n, 5);
        let ar: Vec<f64> = (0..k).map(|p| 0.5 * (p as f64 + 1.0)).collect();

        let mut out = vec![0.0; k * n.div_ceil(nr) * nr];
        let mut bc = vec![0.0; k];
        let mut enc_col = vec![0.25; n]; // nonzero start: accumulation semantics

        pack_b_fused(&b.as_ref(), nr, &mut out, &ar, &mut bc, &mut enc_col);

        // bc[p] = Σ_j B[p,j]
        for p in 0..k {
            let want: f64 = (0..n).map(|j| b.get(p, j)).sum();
            assert!((bc[p] - want).abs() < 1e-12, "bc[{p}]");
        }
        // enc_col[j] = 0.25 + Σ_p ar[p]*B[p,j]
        for j in 0..n {
            let want: f64 = 0.25 + (0..k).map(|p| ar[p] * b.get(p, j)).sum::<f64>();
            assert!((enc_col[j] - want).abs() < 1e-12, "enc_col[{j}]");
        }
        // Packed values identical to unfused packing.
        let mut plain = vec![0.0; out.len()];
        pack_b(&b.as_ref(), nr, &mut plain);
        assert_eq!(out, plain);
    }

    #[test]
    fn fused_a_checksum_matches_definition() {
        let m = 11;
        let k = 6;
        let mr = 4;
        let alpha = 1.5;
        let a = Matrix::<f64>::random(m, k, 6);
        let bc: Vec<f64> = (0..k).map(|q| (q as f64) - 2.5).collect();

        let mut out = vec![0.0; m.div_ceil(mr) * mr * k];
        let mut enc_row = vec![1.0; m];
        pack_a_fused(&a.as_ref(), alpha, mr, &mut out, &bc, &mut enc_row);

        for i in 0..m {
            let want: f64 = 1.0 + (0..k).map(|q| alpha * a.get(i, q) * bc[q]).sum::<f64>();
            assert!((enc_row[i] - want).abs() < 1e-12, "enc_row[{i}]");
        }
        let mut plain = vec![0.0; out.len()];
        pack_a(&a.as_ref(), alpha, mr, &mut plain);
        assert_eq!(out, plain);
    }

    #[test]
    fn col_sums_scaled_matches() {
        let a = Matrix::<f64>::random(5, 4, 7);
        let mut ar = vec![0.0; 4];
        col_sums_scaled(&a.as_ref(), 2.0, &mut ar);
        for q in 0..4 {
            let want: f64 = 2.0 * (0..5).map(|i| a.get(i, q)).sum::<f64>();
            assert!((ar[q] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn pack_from_submatrix_view() {
        // Packing must respect non-trivial leading dimensions.
        let big = Matrix::<f64>::from_fn(10, 10, |i, j| (i * 10 + j) as f64);
        let view = big.as_ref().submatrix(2, 3, 4, 2);
        let mut out = vec![0.0; 4 * 2];
        pack_a(&view, 1.0, 4, &mut out);
        assert_eq!(out[0], 23.0); // A[2,3]
        assert_eq!(out[1], 33.0); // A[3,3]
        assert_eq!(out[4], 24.0); // A[2,4]
    }

    #[test]
    fn empty_k_panel() {
        let a = Matrix::<f64>::zeros(4, 0);
        let mut out = vec![0.0; 0];
        pack_a(&a.as_ref(), 1.0, 4, &mut out); // must not panic
        let b = Matrix::<f64>::zeros(0, 4);
        let mut outb = vec![0.0; 0];
        pack_b(&b.as_ref(), 4, &mut outb);
    }
}
