//! AVX-512F micro-kernels (`std::arch` intrinsics).
//!
//! Geometry follows the register budget of the 32-register zmm file, the
//! approach the paper's assembly kernels take on Cascade Lake:
//!
//! * `f64`: 16x8 tile — 16 accumulator zmm (2 per column of 8 columns),
//!   2 loads of `A~` and 8 broadcast-FMAs of `B~` per `k` step.
//! * `f32`: 32x8 tile — same structure with 16-lane vectors.
//!
//! Full tiles take the vector path; partial (edge) tiles delegate to the
//! portable generic kernel instantiated with the same geometry, so packing
//! layouts are shared. Unaligned vector loads are used throughout: packed
//! panels are 64-byte aligned by construction, and `vmovupd` on aligned
//! addresses costs the same as `vmovapd` on every AVX-512 part while never
//! faulting if a caller relaxes the alignment guarantee.

#![allow(unsafe_op_in_unsafe_fn)]
#![cfg(any(target_arch = "x86_64", doc))]

use super::portable;
use crate::scalar::Scalar;

/// `f64` micro-tile rows.
pub const F64_MR: usize = 16;
/// `f64` micro-tile columns.
pub const F64_NR: usize = 8;
/// `f32` micro-tile rows.
pub const F32_MR: usize = 32;
/// `f32` micro-tile columns.
pub const F32_NR: usize = 8;

/// AVX-512 DGEMM 16x8 micro-kernel. See the [module contract](super).
///
/// # Safety
/// Caller must uphold the micro-kernel contract **and** guarantee the CPU
/// supports AVX-512F (use [`crate::cpu::IsaLevel::detect`]).
pub unsafe fn dgemm_16x8<const STORE: bool>(
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
        dgemm_16x8_full::<STORE>(k, a, b, c, ldc, col_sums, row_sums);
    } else {
        // Edge tiles: panels are zero-padded, the portable path handles any
        // effective extent with identical arithmetic.
        portable::kernel_mn::<f64, F64_MR, F64_NR, STORE>(
            k, a, b, c, ldc, m_eff, n_eff, col_sums, row_sums,
        );
    }
}

#[target_feature(enable = "avx512f")]
unsafe fn dgemm_16x8_full<const STORE: bool>(
    k: usize,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
    col_sums: *mut f64,
    row_sums: *mut f64,
) {
    use std::arch::x86_64::*;

    let mut acc_lo = [_mm512_setzero_pd(); F64_NR];
    let mut acc_hi = [_mm512_setzero_pd(); F64_NR];

    let mut ap = a;
    let mut bp = b;

    // Main k loop, 2x unrolled to overlap A loads with broadcast-FMAs.
    let k2 = k / 2 * 2;
    let mut p = 0;
    while p < k2 {
        let a0 = _mm512_loadu_pd(ap);
        let a1 = _mm512_loadu_pd(ap.add(8));
        for j in 0..F64_NR {
            let bv = _mm512_set1_pd(*bp.add(j));
            acc_lo[j] = _mm512_fmadd_pd(a0, bv, acc_lo[j]);
            acc_hi[j] = _mm512_fmadd_pd(a1, bv, acc_hi[j]);
        }
        let a2 = _mm512_loadu_pd(ap.add(F64_MR));
        let a3 = _mm512_loadu_pd(ap.add(F64_MR + 8));
        for j in 0..F64_NR {
            let bv = _mm512_set1_pd(*bp.add(F64_NR + j));
            acc_lo[j] = _mm512_fmadd_pd(a2, bv, acc_lo[j]);
            acc_hi[j] = _mm512_fmadd_pd(a3, bv, acc_hi[j]);
        }
        ap = ap.add(2 * F64_MR);
        bp = bp.add(2 * F64_NR);
        p += 2;
    }
    if p < k {
        let a0 = _mm512_loadu_pd(ap);
        let a1 = _mm512_loadu_pd(ap.add(8));
        for j in 0..F64_NR {
            let bv = _mm512_set1_pd(*bp.add(j));
            acc_lo[j] = _mm512_fmadd_pd(a0, bv, acc_lo[j]);
            acc_hi[j] = _mm512_fmadd_pd(a1, bv, acc_hi[j]);
        }
    }

    if !STORE {
        // Accumulate mode: the tile of `C` joins the accumulators; store mode
        // never reads it.
        for j in 0..F64_NR {
            let cp = c.add(j * ldc);
            acc_lo[j] = _mm512_add_pd(_mm512_loadu_pd(cp), acc_lo[j]);
            acc_hi[j] = _mm512_add_pd(_mm512_loadu_pd(cp.add(8)), acc_hi[j]);
        }
    }
    if col_sums.is_null() {
        for j in 0..F64_NR {
            let cp = c.add(j * ldc);
            _mm512_storeu_pd(cp, acc_lo[j]);
            _mm512_storeu_pd(cp.add(8), acc_hi[j]);
        }
    } else {
        // Fused-ABFT store: post-update values feed the reference checksums
        // while still in registers (paper §2.2).
        let mut rsum_lo = _mm512_setzero_pd();
        let mut rsum_hi = _mm512_setzero_pd();
        let mut w = [_mm512_setzero_pd(); F64_NR];
        for j in 0..F64_NR {
            let cp = c.add(j * ldc);
            let (v0, v1) = (acc_lo[j], acc_hi[j]);
            _mm512_storeu_pd(cp, v0);
            _mm512_storeu_pd(cp.add(8), v1);
            rsum_lo = _mm512_add_pd(rsum_lo, v0);
            rsum_hi = _mm512_add_pd(rsum_hi, v1);
            w[j] = _mm512_add_pd(v0, v1);
        }
        // All eight column sums from one transposed reduce, one vector RMW.
        let cs = _mm512_add_pd(_mm512_loadu_pd(col_sums), hsum8_pd(w));
        _mm512_storeu_pd(col_sums, cs);
        let r0 = _mm512_add_pd(_mm512_loadu_pd(row_sums), rsum_lo);
        let r1 = _mm512_add_pd(_mm512_loadu_pd(row_sums.add(8)), rsum_hi);
        _mm512_storeu_pd(row_sums, r0);
        _mm512_storeu_pd(row_sums.add(8), r1);
    }
}

/// AVX-512 SGEMM 32x8 micro-kernel. See the [module contract](super).
///
/// # Safety
/// Caller must uphold the micro-kernel contract **and** guarantee the CPU
/// supports AVX-512F.
pub unsafe fn sgemm_32x8<const STORE: bool>(
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
        sgemm_32x8_full::<STORE>(k, a, b, c, ldc, col_sums, row_sums);
    } else {
        portable::kernel_mn::<f32, F32_MR, F32_NR, STORE>(
            k, a, b, c, ldc, m_eff, n_eff, col_sums, row_sums,
        );
    }
}

#[target_feature(enable = "avx512f")]
unsafe fn sgemm_32x8_full<const STORE: bool>(
    k: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    ldc: usize,
    col_sums: *mut f32,
    row_sums: *mut f32,
) {
    use std::arch::x86_64::*;

    let mut acc_lo = [_mm512_setzero_ps(); F32_NR];
    let mut acc_hi = [_mm512_setzero_ps(); F32_NR];

    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        let a0 = _mm512_loadu_ps(ap);
        let a1 = _mm512_loadu_ps(ap.add(16));
        for j in 0..F32_NR {
            let bv = _mm512_set1_ps(*bp.add(j));
            acc_lo[j] = _mm512_fmadd_ps(a0, bv, acc_lo[j]);
            acc_hi[j] = _mm512_fmadd_ps(a1, bv, acc_hi[j]);
        }
        ap = ap.add(F32_MR);
        bp = bp.add(F32_NR);
    }

    if !STORE {
        // Accumulate mode: the tile of `C` joins the accumulators; store mode
        // never reads it.
        for j in 0..F32_NR {
            let cp = c.add(j * ldc);
            acc_lo[j] = _mm512_add_ps(_mm512_loadu_ps(cp), acc_lo[j]);
            acc_hi[j] = _mm512_add_ps(_mm512_loadu_ps(cp.add(16)), acc_hi[j]);
        }
    }
    if col_sums.is_null() {
        for j in 0..F32_NR {
            let cp = c.add(j * ldc);
            _mm512_storeu_ps(cp, acc_lo[j]);
            _mm512_storeu_ps(cp.add(16), acc_hi[j]);
        }
    } else {
        let mut rsum_lo = _mm512_setzero_ps();
        let mut rsum_hi = _mm512_setzero_ps();
        let mut w = [_mm512_setzero_ps(); F32_NR];
        for j in 0..F32_NR {
            let cp = c.add(j * ldc);
            let (v0, v1) = (acc_lo[j], acc_hi[j]);
            _mm512_storeu_ps(cp, v0);
            _mm512_storeu_ps(cp.add(16), v1);
            rsum_lo = _mm512_add_ps(rsum_lo, v0);
            rsum_hi = _mm512_add_ps(rsum_hi, v1);
            w[j] = _mm512_add_ps(v0, v1);
        }
        let cs = _mm256_add_ps(_mm256_loadu_ps(col_sums), hsum8_ps(w));
        _mm256_storeu_ps(col_sums, cs);
        let r0 = _mm512_add_ps(_mm512_loadu_ps(row_sums), rsum_lo);
        let r1 = _mm512_add_ps(_mm512_loadu_ps(row_sums.add(16)), rsum_hi);
        _mm512_storeu_ps(row_sums, r0);
        _mm512_storeu_ps(row_sums.add(16), r1);
    }
}

/// The eight horizontal sums of `w[0..8]` as one vector: lane `j` of the
/// result is the sum of the eight lanes of `w[j]`.
///
/// A three-level transposed reduce — `unpacklo + unpackhi` per pair of
/// inputs, then `shuffle_f64x2 0x88 + 0xDD` twice — 14 shuffles and 7 adds
/// for all eight, where one `_mm512_reduce_add_pd` tree per input is 3 of
/// each. Shared by the fused store above and the `enc_col` reduce of the
/// fused `B` pack.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn hsum8_pd(w: [std::arch::x86_64::__m512d; 8]) -> std::arch::x86_64::__m512d {
    use std::arch::x86_64::*;

    // s[i]: 128-bit lane L = (w[2i][2L] + w[2i][2L+1], w[2i+1][2L] + w[2i+1][2L+1]).
    let s: [__m512d; 4] = std::array::from_fn(|i| {
        _mm512_add_pd(
            _mm512_unpacklo_pd(w[2 * i], w[2 * i + 1]),
            _mm512_unpackhi_pd(w[2 * i], w[2 * i + 1]),
        )
    });
    // t[i]: lanes (0+1, 2+3) of s[2i], then of s[2i+1].
    let t: [__m512d; 2] = std::array::from_fn(|i| {
        _mm512_add_pd(
            _mm512_shuffle_f64x2::<0x88>(s[2 * i], s[2 * i + 1]),
            _mm512_shuffle_f64x2::<0xDD>(s[2 * i], s[2 * i + 1]),
        )
    });
    _mm512_add_pd(
        _mm512_shuffle_f64x2::<0x88>(t[0], t[1]),
        _mm512_shuffle_f64x2::<0xDD>(t[0], t[1]),
    )
}

/// [`hsum8_pd`] for eight 16-lane `f32` vectors: lane `j` of the result is
/// the sum of the sixteen lanes of `w[j]` (one level more: `unpack_ps`,
/// `unpack_pd`, then `shuffle_f32x4 0x88 + 0xDD` twice).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn hsum8_ps(w: [std::arch::x86_64::__m512; 8]) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;

    // s[i]: 128-bit lane = (w[2i][0]+w[2i][2], w[2i+1][0]+w[2i+1][2],
    //                       w[2i][1]+w[2i][3], w[2i+1][1]+w[2i+1][3]).
    let s: [__m512; 4] = std::array::from_fn(|i| {
        _mm512_add_ps(
            _mm512_unpacklo_ps(w[2 * i], w[2 * i + 1]),
            _mm512_unpackhi_ps(w[2 * i], w[2 * i + 1]),
        )
    });
    // q[i]: 128-bit lane L = the lane-L partial sums of w[4i..4i+4].
    let q: [__m512; 2] = std::array::from_fn(|i| {
        let (lo, hi) = (_mm512_castps_pd(s[2 * i]), _mm512_castps_pd(s[2 * i + 1]));
        _mm512_add_ps(
            _mm512_castpd_ps(_mm512_unpacklo_pd(lo, hi)),
            _mm512_castpd_ps(_mm512_unpackhi_pd(lo, hi)),
        )
    });
    // r: lanes (0+1, 2+3) of q[0], then of q[1]; folding its even and odd
    // lanes leaves w[0..4] | w[4..8] in the low half.
    let r = _mm512_add_ps(
        _mm512_shuffle_f32x4::<0x88>(q[0], q[1]),
        _mm512_shuffle_f32x4::<0xDD>(q[0], q[1]),
    );
    _mm512_castps512_ps256(_mm512_add_ps(
        _mm512_shuffle_f32x4::<0x88>(r, r),
        _mm512_shuffle_f32x4::<0xDD>(r, r),
    ))
}

// Keep Scalar imported for doc-links when building without x86_64.
#[allow(unused)]
fn _doc_anchor<T: Scalar>() {}
