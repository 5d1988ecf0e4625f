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
//!
//! ## Vector bodies
//!
//! These passes are O(n^2) work that only amortises against the O(n^3)
//! kernel when it runs at memory speed, so each has a vector body for the
//! geometries the AVX-512 micro-kernels dictate (`f64` 16x8, `f32` 32x8; the
//! private `avx512` submodule), picked per call from `T`, `mr` / `nr` and
//! the CPU. A full `A` slab is two vectors of rows with its `enc_row`
//! entries held in registers across the `k` loop; a full `B` slab is
//! transposed in registers one vector of rows at a time, `bc` updated once
//! per block and `enc_col` kept in eight independent FMA accumulators;
//! [`col_sums_scaled`] sums a column over four vector accumulators. Every
//! other geometry (the AVX2 and portable kernels'), partial slabs and the
//! `k % lanes` tail rows of a `B` slab take the scalar loops below, which
//! walk `B` row-wise with one independent `enc_col` chain per column.
//!
//! Both paths write the same bytes: `A~`, `B~` and `enc_row` (one
//! multiply-then-add per element, in `q` order, on either path) are
//! bit-identical between them. What depends on the path is the order in
//! which `bc`, `enc_col` and `ar` are summed; the verifier's tolerance
//! covers that as it covers the kernel's own summation order.

#[cfg(target_arch = "x86_64")]
mod avx512;

use crate::matrix::MatRef;
use crate::scalar::Scalar;

/// Full-slab vector bodies for one element type and kernel geometry; the
/// contracts are on the functions in the `avx512` submodule.
struct Bodies<T> {
    /// `A` slab height the `a*` bodies pack.
    mr: usize,
    /// `B` slab width the `b*` bodies pack.
    nr: usize,
    a: ASlab<T>,
    a_fused: ASlab<T>,
    b: BSlab<T>,
    b_fused: BSlab<T>,
    col_sum: unsafe fn(col: *const T, len: usize) -> T,
}

/// `(a, lda, k, alpha, out, bc, enc_row)` for one full slab of `A`.
type ASlab<T> = unsafe fn(*const T, usize, usize, T, *mut T, *const T, *mut T);
/// `(b, ldb, k, out, ar, bc, enc_col) -> rows packed` for one full slab of `B`.
type BSlab<T> = unsafe fn(*const T, usize, usize, *mut T, *const T, *mut T, *mut T) -> usize;

/// The vector bodies this CPU has for `T`, if any.
fn bodies<T: Scalar>() -> Option<Bodies<T>> {
    #[cfg(target_arch = "x86_64")]
    return avx512::bodies::<T>();
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// Packs an `m x k` block of `A` (scaled by `alpha`) into micro-panel layout.
///
/// `out` must hold at least `ceil(m/mr)*mr*k` elements.
pub fn pack_a<T: Scalar>(a: &MatRef<'_, T>, alpha: T, mr: usize, out: &mut [T]) {
    pack_a_impl::<T, false>(a, alpha, mr, out, &[], &mut []);
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
    assert_eq!(bc.len(), a.ncols(), "pack_a_fused: bc length mismatch");
    assert_eq!(
        enc_row.len(),
        a.nrows(),
        "pack_a_fused: enc_row length mismatch"
    );
    pack_a_impl::<T, true>(a, alpha, mr, out, bc, enc_row);
}

/// `bc` and `enc_row` are read only when `FUSED`.
fn pack_a_impl<T: Scalar, const FUSED: bool>(
    a: &MatRef<'_, T>,
    alpha: T,
    mr: usize,
    out: &mut [T],
    bc: &[T],
    enc_row: &mut [T],
) {
    let (m, k) = (a.nrows(), a.ncols());
    let panels = m.div_ceil(mr);
    assert!(out.len() >= panels * mr * k, "pack_a: out buffer too small");
    let body = bodies::<T>()
        .filter(|v| v.mr == mr)
        .map(|v| if FUSED { v.a_fused } else { v.a });

    for p in 0..panels {
        let row0 = p * mr;
        let rows = mr.min(m - row0);
        let slab = &mut out[p * mr * k..(p + 1) * mr * k];
        let enc = if FUSED {
            &mut enc_row[row0..row0 + rows]
        } else {
            &mut enc_row[..]
        };
        if let (Some(body), true) = (body, rows == mr) {
            // SAFETY: rows `row0..row0 + mr` of the view's `k` columns are
            // in bounds, `slab` holds `mr * k`; when `FUSED`, `bc` holds `k`
            // and `enc` `mr` (asserted by `pack_a_fused`). `bodies` checked
            // the CPU.
            unsafe {
                let src = a.as_ptr().add(row0);
                body(
                    src,
                    a.ld(),
                    k,
                    alpha,
                    slab.as_mut_ptr(),
                    bc.as_ptr(),
                    enc.as_mut_ptr(),
                );
            }
            continue;
        }
        for q in 0..k {
            let col = &a.col(q)[row0..row0 + rows];
            let dst = &mut slab[q * mr..q * mr + mr];
            if FUSED {
                let bq = bc[q];
                for i in 0..rows {
                    let v = alpha * col[i];
                    dst[i] = v;
                    enc[i] = v.mul_add(bq, enc[i]);
                }
            } else {
                for i in 0..rows {
                    dst[i] = alpha * col[i];
                }
            }
            dst[rows..].fill(T::ZERO);
        }
    }
}

/// Packs a `k x n` block of `B` into micro-panel layout.
///
/// `out` must hold at least `k * ceil(n/nr)*nr` elements.
pub fn pack_b<T: Scalar>(b: &MatRef<'_, T>, nr: usize, out: &mut [T]) {
    pack_b_impl::<T, false>(b, nr, out, &[], &mut [], &mut []);
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
    pack_b_impl::<T, true>(b, nr, out, ar, bc, enc_col);
}

/// `ar`, `bc` and `enc_col` are read only when `FUSED`.
fn pack_b_impl<T: Scalar, const FUSED: bool>(
    b: &MatRef<'_, T>,
    nr: usize,
    out: &mut [T],
    ar: &[T],
    bc: &mut [T],
    enc_col: &mut [T],
) {
    // Columns the scalar loop walks side by side: one `enc_col` chain each.
    const CHUNK: usize = 8;

    let (k, n) = (b.nrows(), b.ncols());
    let panels = n.div_ceil(nr);
    assert!(out.len() >= panels * nr * k, "pack_b: out buffer too small");
    let body = bodies::<T>()
        .filter(|v| v.nr == nr)
        .map(|v| if FUSED { v.b_fused } else { v.b });

    for q in 0..panels {
        let col0 = q * nr;
        let cols = nr.min(n - col0);
        let slab = &mut out[q * nr * k..(q + 1) * nr * k];
        // Rows the vector body packed; the scalar loop takes the rest.
        let mut p0 = 0;
        if cols < nr {
            slab.fill(T::ZERO);
        } else if let Some(body) = body {
            let enc = if FUSED {
                &mut enc_col[col0..col0 + nr]
            } else {
                &mut enc_col[..]
            };
            // SAFETY: columns `col0..col0 + nr` of the view's `k` rows are
            // in bounds, `slab` holds `nr * k`; when `FUSED`, `ar` and `bc`
            // hold `k` and `enc` `nr` (asserted by `pack_b_fused`). `bodies`
            // checked the CPU.
            p0 = unsafe {
                let src = b.as_ptr().add(col0 * b.ld());
                body(
                    src,
                    b.ld(),
                    k,
                    slab.as_mut_ptr(),
                    ar.as_ptr(),
                    bc.as_mut_ptr(),
                    enc.as_mut_ptr(),
                )
            };
            if p0 == k {
                continue;
            }
        }
        for j0 in (0..cols).step_by(CHUNK) {
            let w = CHUNK.min(cols - j0);
            let src: [&[T]; CHUNK] = std::array::from_fn(|j| b.col(col0 + j0 + j.min(w - 1)));
            let mut enc = [T::ZERO; CHUNK];
            for p in p0..k {
                let dst = &mut slab[p * nr + j0..p * nr + j0 + w];
                if FUSED {
                    let (arp, mut sum) = (ar[p], T::ZERO);
                    for j in 0..w {
                        let v = src[j][p];
                        dst[j] = v; // reuse 1: pack
                        sum += v; // reuse 2: B_c
                        enc[j] = arp.mul_add(v, enc[j]); // reuse 3: C_r encode
                    }
                    bc[p] += sum;
                } else {
                    for j in 0..w {
                        dst[j] = src[j][p];
                    }
                }
            }
            if FUSED {
                for j in 0..w {
                    enc_col[col0 + j0 + j] += enc[j];
                }
            }
        }
    }
}

/// Column sums of `A` scaled by `alpha`: `ar[q] = alpha * Σ_i A[i, q]`
/// (the paper's A_r checksum, encoded once per GEMM).
pub fn col_sums_scaled<T: Scalar>(a: &MatRef<'_, T>, alpha: T, out: &mut [T]) {
    // Independent partial sums of the scalar loop.
    const LANES: usize = 8;

    assert_eq!(out.len(), a.ncols(), "col_sums_scaled: out length mismatch");
    let body = bodies::<T>().map(|v| v.col_sum);
    for (q, o) in out.iter_mut().enumerate() {
        let col = a.col(q);
        let sum = if let Some(body) = body {
            // SAFETY: `col` is a live slice; `bodies` checked the CPU.
            unsafe { body(col.as_ptr(), col.len()) }
        } else {
            let mut acc = [T::ZERO; LANES];
            let mut chunks = col.chunks_exact(LANES);
            for c in &mut chunks {
                for l in 0..LANES {
                    acc[l] += c[l];
                }
            }
            let tail = chunks.remainder().iter().fold(T::ZERO, |s, &v| s + v);
            acc.iter().fold(tail, |s, &v| s + v)
        };
        *o = alpha * sum;
    }
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

    /// Every pack pass against scalar definitions written here, on the
    /// geometry of every kernel tier and on shapes that take the vector
    /// body (full slabs, `k >= lanes`), the ragged edge (partial slabs, tail
    /// rows) and both in one call. Operands are views with `ld > rows` whose
    /// first element is not 64-byte aligned.
    fn check_all_passes<T: Scalar>() {
        use crate::cpu::IsaLevel;
        use crate::microkernel::select_kernel;

        let eps = T::EPSILON.to_f64();
        let alpha = T::from_f64(-1.5);
        for tier in [IsaLevel::Avx512, IsaLevel::Avx2Fma, IsaLevel::Portable] {
            // Geometry only: the kernel itself is never called.
            let kern = select_kernel::<T>(tier);
            let (mr, nr) = (kern.mr, kern.nr);
            for k in [0, 1, 7, 8, 9, 64, 67] {
                for m in [mr - 1, mr, 2 * mr + 3] {
                    let big = Matrix::<T>::random(m + 5, k, (m * 131 + k) as u64);
                    let a = big.as_ref().submatrix(3, 0, m, k);
                    assert!(a.ld() > m && a.as_ptr() as usize % 64 != 0);
                    let bc: Vec<T> = (0..k).map(|q| T::from_f64(q as f64 * 0.25 - 3.0)).collect();
                    let enc0: Vec<T> = (0..m).map(|i| T::from_f64(1.0 + i as f64)).collect();

                    let len = m.div_ceil(mr) * mr * k;
                    let mut want = vec![T::ZERO; len];
                    let mut want_enc = enc0.clone();
                    for i in 0..m {
                        for q in 0..k {
                            let v = alpha * a.get(i, q);
                            want[(i / mr) * mr * k + q * mr + i % mr] = v;
                            want_enc[i] = v * bc[q] + want_enc[i];
                        }
                    }
                    let ctx = format!("{} {} m={m} k={k}", T::NAME, kern.name);
                    let mut out = vec![T::from_f64(f64::NAN); len];
                    pack_a(&a, alpha, mr, &mut out);
                    assert_eq!(out, want, "pack_a {ctx}");
                    let mut out = vec![T::from_f64(f64::NAN); len];
                    let mut enc = enc0.clone();
                    pack_a_fused(&a, alpha, mr, &mut out, &bc, &mut enc);
                    assert_eq!(out, want, "pack_a_fused {ctx}");
                    assert_eq!(enc, want_enc, "enc_row {ctx}");

                    let mut ar = vec![T::from_f64(f64::NAN); k];
                    col_sums_scaled(&a, alpha, &mut ar);
                    for q in 0..k {
                        let col = (0..m).map(|i| a.get(i, q).to_f64());
                        let (sum, abs) = col.fold((0.0, 0.0), |(s, t), v| (s + v, t + v.abs()));
                        let tol = 2.0 * (m + 1) as f64 * eps * 1.5 * abs;
                        let got = ar[q].to_f64();
                        assert!((got - -1.5 * sum).abs() <= tol, "ar[{q}] {ctx}: {got}");
                    }
                }
                for n in [nr - 1, nr, 3 * nr + 5] {
                    let big = Matrix::<T>::random(k + 5, n, (n * 137 + k) as u64);
                    let b = big.as_ref().submatrix(3, 0, k, n);
                    assert!(b.ld() > k && b.as_ptr() as usize % 64 != 0);
                    let ar: Vec<T> = (0..k).map(|p| T::from_f64(0.5 * p as f64 - 7.0)).collect();
                    let bc0: Vec<T> = (0..k).map(|p| T::from_f64(0.5 - p as f64)).collect();
                    let enc0: Vec<T> = (0..n).map(|j| T::from_f64(0.25 + j as f64)).collect();

                    let len = n.div_ceil(nr) * nr * k;
                    let mut want = vec![T::ZERO; len];
                    for j in 0..n {
                        for p in 0..k {
                            want[(j / nr) * nr * k + p * nr + j % nr] = b.get(p, j);
                        }
                    }
                    let ctx = format!("{} {} n={n} k={k}", T::NAME, kern.name);
                    let mut out = vec![T::from_f64(f64::NAN); len];
                    pack_b(&b, nr, &mut out);
                    assert_eq!(out, want, "pack_b {ctx}");
                    let mut out = vec![T::from_f64(f64::NAN); len];
                    let (mut bc, mut enc) = (bc0.clone(), enc0.clone());
                    pack_b_fused(&b, nr, &mut out, &ar, &mut bc, &mut enc);
                    assert_eq!(out, want, "pack_b_fused {ctx}");
                    // Any summation order of `t` terms lands within
                    // `t * eps * Σ|term|` of the exact sum; twice that
                    // between two of them.
                    for p in 0..k {
                        let (mut sum, mut abs) = (bc0[p].to_f64(), bc0[p].to_f64().abs());
                        for j in 0..n {
                            sum += b.get(p, j).to_f64();
                            abs += b.get(p, j).to_f64().abs();
                        }
                        let (got, tol) = (bc[p].to_f64(), 2.0 * (n + 1) as f64 * eps * abs);
                        assert!((got - sum).abs() <= tol, "bc[{p}] {ctx}: {got} vs {sum}");
                    }
                    for j in 0..n {
                        let (mut sum, mut abs) = (enc0[j].to_f64(), enc0[j].to_f64().abs());
                        for p in 0..k {
                            let term = ar[p].to_f64() * b.get(p, j).to_f64();
                            sum += term;
                            abs += term.abs();
                        }
                        let (got, tol) = (enc[j].to_f64(), 2.0 * (k + 1) as f64 * eps * abs);
                        assert!(
                            (got - sum).abs() <= tol,
                            "enc_col[{j}] {ctx}: {got} vs {sum}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_pass_matches_its_scalar_definition_f64() {
        check_all_passes::<f64>();
    }

    #[test]
    fn every_pass_matches_its_scalar_definition_f32() {
        check_all_passes::<f32>();
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
