//! AVX2+FMA3 micro-kernels (`std::arch` intrinsics).
//!
//! Geometry per the 16-register ymm file (classic Haswell-era shapes used by
//! OpenBLAS/BLIS):
//!
//! * `f64`: 8x6 tile — 12 accumulator ymm (2 per column of 6 columns).
//! * `f32`: 16x6 tile — same structure with 8-lane vectors.
//!
//! Full tiles take the vector path; edge tiles delegate to the portable
//! generic kernel with matching geometry.

#![allow(unsafe_op_in_unsafe_fn)]
#![cfg(any(target_arch = "x86_64", doc))]

use super::portable;

/// `f64` micro-tile rows.
pub const F64_MR: usize = 8;
/// `f64` micro-tile columns.
pub const F64_NR: usize = 6;
/// `f32` micro-tile rows.
pub const F32_MR: usize = 16;
/// `f32` micro-tile columns.
pub const F32_NR: usize = 6;

/// AVX2 DGEMM 8x6 micro-kernel. See the [module contract](super).
///
/// # Safety
/// Caller must uphold the micro-kernel contract **and** guarantee the CPU
/// supports AVX2 and FMA.
pub unsafe fn dgemm_8x6<const STORE: bool>(
    k: usize,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    col_sums: *mut f64,
    row_sums: *mut f64,
) {
    if m_eff == F64_MR && n_eff == F64_NR {
        dgemm_8x6_full::<STORE>(k, a, b, c, ldc, col_sums, row_sums);
    } else {
        portable::kernel_mn::<f64, F64_MR, F64_NR, STORE>(
            k, a, b, c, ldc, m_eff, n_eff, col_sums, row_sums,
        );
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dgemm_8x6_full<const STORE: bool>(
    k: usize,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
    col_sums: *mut f64,
    row_sums: *mut f64,
) {
    use std::arch::x86_64::*;

    let mut acc_lo = [_mm256_setzero_pd(); F64_NR];
    let mut acc_hi = [_mm256_setzero_pd(); F64_NR];

    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        let a0 = _mm256_loadu_pd(ap);
        let a1 = _mm256_loadu_pd(ap.add(4));
        for j in 0..F64_NR {
            let bv = _mm256_set1_pd(*bp.add(j));
            acc_lo[j] = _mm256_fmadd_pd(a0, bv, acc_lo[j]);
            acc_hi[j] = _mm256_fmadd_pd(a1, bv, acc_hi[j]);
        }
        ap = ap.add(F64_MR);
        bp = bp.add(F64_NR);
    }

    if !STORE {
        // Accumulate mode: the tile of `C` joins the accumulators; store mode
        // never reads it.
        for j in 0..F64_NR {
            let cp = c.add(j * ldc);
            acc_lo[j] = _mm256_add_pd(_mm256_loadu_pd(cp), acc_lo[j]);
            acc_hi[j] = _mm256_add_pd(_mm256_loadu_pd(cp.add(4)), acc_hi[j]);
        }
    }
    if col_sums.is_null() {
        for j in 0..F64_NR {
            let cp = c.add(j * ldc);
            _mm256_storeu_pd(cp, acc_lo[j]);
            _mm256_storeu_pd(cp.add(4), acc_hi[j]);
        }
    } else {
        let mut rsum_lo = _mm256_setzero_pd();
        let mut rsum_hi = _mm256_setzero_pd();
        let mut w = [_mm256_setzero_pd(); F64_NR];
        for j in 0..F64_NR {
            let cp = c.add(j * ldc);
            let (v0, v1) = (acc_lo[j], acc_hi[j]);
            _mm256_storeu_pd(cp, v0);
            _mm256_storeu_pd(cp.add(4), v1);
            rsum_lo = _mm256_add_pd(rsum_lo, v0);
            rsum_hi = _mm256_add_pd(rsum_hi, v1);
            w[j] = _mm256_add_pd(v0, v1);
        }
        // One shared reduce for the six column sums: `hadd` pairs the
        // columns, then the 128-bit halves are folded — columns 0..4 as one
        // vector RMW, 4..6 as a half one.
        let h01 = _mm256_hadd_pd(w[0], w[1]);
        let h23 = _mm256_hadd_pd(w[2], w[3]);
        let h45 = _mm256_hadd_pd(w[4], w[5]);
        let s0123 = _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(h01, h23),
            _mm256_permute2f128_pd::<0x31>(h01, h23),
        );
        let s45 = _mm_add_pd(_mm256_castpd256_pd128(h45), _mm256_extractf128_pd::<1>(h45));
        _mm256_storeu_pd(col_sums, _mm256_add_pd(_mm256_loadu_pd(col_sums), s0123));
        let cs45 = col_sums.add(4);
        _mm_storeu_pd(cs45, _mm_add_pd(_mm_loadu_pd(cs45), s45));
        let r0 = _mm256_add_pd(_mm256_loadu_pd(row_sums), rsum_lo);
        let r1 = _mm256_add_pd(_mm256_loadu_pd(row_sums.add(4)), rsum_hi);
        _mm256_storeu_pd(row_sums, r0);
        _mm256_storeu_pd(row_sums.add(4), r1);
    }
}

/// AVX2 SGEMM 16x6 micro-kernel. See the [module contract](super).
///
/// # Safety
/// Caller must uphold the micro-kernel contract **and** guarantee the CPU
/// supports AVX2 and FMA.
pub unsafe fn sgemm_16x6<const STORE: bool>(
    k: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    col_sums: *mut f32,
    row_sums: *mut f32,
) {
    if m_eff == F32_MR && n_eff == F32_NR {
        sgemm_16x6_full::<STORE>(k, a, b, c, ldc, col_sums, row_sums);
    } else {
        portable::kernel_mn::<f32, F32_MR, F32_NR, STORE>(
            k, a, b, c, ldc, m_eff, n_eff, col_sums, row_sums,
        );
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sgemm_16x6_full<const STORE: bool>(
    k: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    ldc: usize,
    col_sums: *mut f32,
    row_sums: *mut f32,
) {
    use std::arch::x86_64::*;

    let mut acc_lo = [_mm256_setzero_ps(); F32_NR];
    let mut acc_hi = [_mm256_setzero_ps(); F32_NR];

    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        let a0 = _mm256_loadu_ps(ap);
        let a1 = _mm256_loadu_ps(ap.add(8));
        for j in 0..F32_NR {
            let bv = _mm256_set1_ps(*bp.add(j));
            acc_lo[j] = _mm256_fmadd_ps(a0, bv, acc_lo[j]);
            acc_hi[j] = _mm256_fmadd_ps(a1, bv, acc_hi[j]);
        }
        ap = ap.add(F32_MR);
        bp = bp.add(F32_NR);
    }

    if !STORE {
        // Accumulate mode: the tile of `C` joins the accumulators; store mode
        // never reads it.
        for j in 0..F32_NR {
            let cp = c.add(j * ldc);
            acc_lo[j] = _mm256_add_ps(_mm256_loadu_ps(cp), acc_lo[j]);
            acc_hi[j] = _mm256_add_ps(_mm256_loadu_ps(cp.add(8)), acc_hi[j]);
        }
    }
    if col_sums.is_null() {
        for j in 0..F32_NR {
            let cp = c.add(j * ldc);
            _mm256_storeu_ps(cp, acc_lo[j]);
            _mm256_storeu_ps(cp.add(8), acc_hi[j]);
        }
    } else {
        let mut rsum_lo = _mm256_setzero_ps();
        let mut rsum_hi = _mm256_setzero_ps();
        let mut w = [_mm256_setzero_ps(); F32_NR];
        for j in 0..F32_NR {
            let cp = c.add(j * ldc);
            let (v0, v1) = (acc_lo[j], acc_hi[j]);
            _mm256_storeu_ps(cp, v0);
            _mm256_storeu_ps(cp.add(8), v1);
            rsum_lo = _mm256_add_ps(rsum_lo, v0);
            rsum_hi = _mm256_add_ps(rsum_hi, v1);
            w[j] = _mm256_add_ps(v0, v1);
        }
        // One shared reduce: two `hadd` levels leave each 128-bit half
        // holding its partial sums of columns 0..4 (`q0123`) and 4..6
        // (`q45`, twice); folding the halves gives the six sums in lanes
        // 0..6, added to `col_sums` under a six-lane mask.
        let h01 = _mm256_hadd_ps(w[0], w[1]);
        let h23 = _mm256_hadd_ps(w[2], w[3]);
        let h45 = _mm256_hadd_ps(w[4], w[5]);
        let q0123 = _mm256_hadd_ps(h01, h23);
        let q45 = _mm256_hadd_ps(h45, h45);
        let sums = _mm256_add_ps(
            _mm256_permute2f128_ps::<0x20>(q0123, q45),
            _mm256_permute2f128_ps::<0x31>(q0123, q45),
        );
        let six = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
        let cs = _mm256_add_ps(_mm256_maskload_ps(col_sums, six), sums);
        _mm256_maskstore_ps(col_sums, six, cs);
        let r0 = _mm256_add_ps(_mm256_loadu_ps(row_sums), rsum_lo);
        let r1 = _mm256_add_ps(_mm256_loadu_ps(row_sums.add(8)), rsum_hi);
        _mm256_storeu_ps(row_sums, r0);
        _mm256_storeu_ps(row_sums.add(8), r1);
    }
}
