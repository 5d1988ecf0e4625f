//! AVX-512F bodies of the packing passes, for the two geometries the AVX-512
//! micro-kernels dictate (`f64` 16x8, `f32` 32x8): a full slab of `A` is two
//! vectors of rows, a full slab of `B` eight columns.
//!
//! Each body is written once over [`V512`], the handful of operations that
//! differ between eight `f64` lanes and sixteen `f32` lanes.

use super::Bodies;
use crate::cpu::IsaLevel;
use crate::microkernel::avx512::{hsum8_pd, hsum8_ps, F32_MR, F32_NR, F64_MR, F64_NR};
use crate::scalar::Scalar;
use std::any::TypeId;
use std::arch::x86_64::*;

// The bodies below pack the slabs these kernels read.
const _: () = assert!(F64_MR == 16 && F32_MR == 32 && F64_NR == 8 && F32_NR == 8);

/// The bodies for element type `T`, when the CPU has AVX-512F and `T` has an
/// AVX-512 micro-kernel.
pub(super) fn bodies<T: Scalar>() -> Option<Bodies<T>> {
    if IsaLevel::detect() < IsaLevel::Avx512 {
        return None;
    }
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f64>() {
        // SAFETY: T == f64 was just checked, so the two struct types are the
        // same type.
        return Some(unsafe {
            std::mem::transmute::<Bodies<f64>, Bodies<T>>(bodies_of::<__m512d>())
        });
    }
    if t == TypeId::of::<f32>() {
        // SAFETY: T == f32 was just checked (see above).
        return Some(unsafe {
            std::mem::transmute::<Bodies<f32>, Bodies<T>>(bodies_of::<__m512>())
        });
    }
    None
}

fn bodies_of<V: V512>() -> Bodies<V::E> {
    Bodies {
        mr: 2 * V::LANES,
        nr: 8,
        a: a_slab::<V, false>,
        a_fused: a_slab::<V, true>,
        b: b_slab::<V, false>,
        b_fused: b_slab::<V, true>,
        col_sum: col_sum::<V>,
    }
}

/// One 512-bit vector of `E`.
///
/// # Safety
/// Every method requires AVX-512F; `load` / `store` access `LANES` elements
/// at `p`.
trait V512: Copy {
    type E: Scalar;
    const LANES: usize;
    unsafe fn splat(e: Self::E) -> Self;
    unsafe fn load(p: *const Self::E) -> Self;
    unsafe fn store(self, p: *mut Self::E);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// `self * b + c`, one rounding.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    unsafe fn reduce_add(self) -> Self::E;
    /// `out[j] += Σ lanes of w[j]`, `j < 8`.
    unsafe fn add_hsums(w: [Self; 8], out: *mut Self::E);
    /// Stores the `LANES x 8` block whose columns are `cols` row by row:
    /// `out[r * 8 + j] = cols[j][r]`.
    unsafe fn store_transposed(cols: [Self; 8], out: *mut Self::E);
}

impl V512 for __m512d {
    type E = f64;
    const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn splat(e: f64) -> Self {
        _mm512_set1_pd(e)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: the caller guarantees 8 readable elements at `p`.
        unsafe { _mm512_loadu_pd(p) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: the caller guarantees 8 writable elements at `p`.
        unsafe { _mm512_storeu_pd(p, self) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add(self, o: Self) -> Self {
        _mm512_add_pd(self, o)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mul(self, o: Self) -> Self {
        _mm512_mul_pd(self, o)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm512_fmadd_pd(self, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn reduce_add(self) -> f64 {
        _mm512_reduce_add_pd(self)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add_hsums(w: [Self; 8], out: *mut f64) {
        // SAFETY: the caller guarantees 8 elements at `out`.
        unsafe { _mm512_storeu_pd(out, _mm512_add_pd(_mm512_loadu_pd(out), hsum8_pd(w))) }
    }

    /// 8x8 transpose in registers: 8 `unpack{lo,hi}_pd`, 8 `shuffle_f64x2`
    /// `0x44`/`0xEE`, 8 `shuffle_f64x2` `0x88`/`0xDD`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_transposed(c: [Self; 8], out: *mut f64) {
        // u[2i + h]: 128-bit lane L = columns 2i, 2i+1 of row 2L + h.
        let u: [__m512d; 8] = std::array::from_fn(|x| {
            let (a, b) = (c[x & !1], c[x | 1]);
            if x & 1 == 0 {
                _mm512_unpacklo_pd(a, b)
            } else {
                _mm512_unpackhi_pd(a, b)
            }
        });
        // v[4g + 2s + h]: columns 4g..4g+4 of row 4s + h (lanes 0, 2) and
        // of row 4s + 2 + h (lanes 1, 3).
        let v: [__m512d; 8] = std::array::from_fn(|x| {
            let (a, b) = (u[4 * (x / 4) + (x & 1)], u[4 * (x / 4) + 2 + (x & 1)]);
            if x & 2 == 0 {
                _mm512_shuffle_f64x2::<0x44>(a, b)
            } else {
                _mm512_shuffle_f64x2::<0xEE>(a, b)
            }
        });
        for r in 0..8 {
            // Row r = 4s + 2t + h.
            let (s, t, h) = (r / 4, (r / 2) & 1, r & 1);
            let (a, b) = (v[2 * s + h], v[4 + 2 * s + h]);
            let row = if t == 0 {
                _mm512_shuffle_f64x2::<0x88>(a, b)
            } else {
                _mm512_shuffle_f64x2::<0xDD>(a, b)
            };
            // SAFETY: the caller guarantees 64 writable elements at `out`.
            unsafe { _mm512_storeu_pd(out.add(r * 8), row) };
        }
    }
}

impl V512 for __m512 {
    type E = f32;
    const LANES: usize = 16;

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn splat(e: f32) -> Self {
        _mm512_set1_ps(e)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: the caller guarantees 16 readable elements at `p`.
        unsafe { _mm512_loadu_ps(p) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the caller guarantees 16 writable elements at `p`.
        unsafe { _mm512_storeu_ps(p, self) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add(self, o: Self) -> Self {
        _mm512_add_ps(self, o)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mul(self, o: Self) -> Self {
        _mm512_mul_ps(self, o)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm512_fmadd_ps(self, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn reduce_add(self) -> f32 {
        _mm512_reduce_add_ps(self)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add_hsums(w: [Self; 8], out: *mut f32) {
        // SAFETY: the caller guarantees 8 elements at `out`.
        unsafe { _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), hsum8_ps(w))) }
    }

    /// 16x8 transpose in registers: `unpack_ps`, `unpack_pd`, then two
    /// levels of `shuffle_f32x4` `0x88`/`0xDD` (8 shuffles per level).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_transposed(c: [Self; 8], out: *mut f32) {
        // u[2i + h]: 128-bit lane L = columns 2i, 2i+1 of rows 4L + 2h and
        // 4L + 2h + 1, interleaved.
        let u: [__m512; 8] = std::array::from_fn(|x| {
            let (a, b) = (c[x & !1], c[x | 1]);
            if x & 1 == 0 {
                _mm512_unpacklo_ps(a, b)
            } else {
                _mm512_unpackhi_ps(a, b)
            }
        });
        // x[4g + s]: lane L = columns 4g..4g+4 of row 4L + s.
        let x: [__m512; 8] = std::array::from_fn(|i| {
            let (g, s) = (i / 4, i % 4);
            let a = _mm512_castps_pd(u[4 * g + s / 2]);
            let b = _mm512_castps_pd(u[4 * g + 2 + s / 2]);
            _mm512_castpd_ps(if s & 1 == 0 {
                _mm512_unpacklo_pd(a, b)
            } else {
                _mm512_unpackhi_pd(a, b)
            })
        });
        // y[2s + h]: rows 4L + s for L = h and L = h + 2 — columns 0..4 in
        // lanes (0, 1), columns 4..8 in lanes (2, 3).
        let y: [__m512; 8] = std::array::from_fn(|i| {
            let (s, h) = (i / 2, i & 1);
            if h == 0 {
                _mm512_shuffle_f32x4::<0x88>(x[s], x[4 + s])
            } else {
                _mm512_shuffle_f32x4::<0xDD>(x[s], x[4 + s])
            }
        });
        for r in 0..8 {
            // Output vector r holds rows 2r and 2r + 1; row 4L + s lives in
            // y[2s + (L & 1)], lanes (L / 2, L / 2 + 2).
            let (l, s) = (r / 2, 2 * (r & 1));
            let (a, b) = (y[2 * s + (l & 1)], y[2 * (s + 1) + (l & 1)]);
            let rows = if l / 2 == 0 {
                _mm512_shuffle_f32x4::<0x88>(a, b)
            } else {
                _mm512_shuffle_f32x4::<0xDD>(a, b)
            };
            // SAFETY: the caller guarantees 128 writable elements at `out`.
            unsafe { _mm512_storeu_ps(out.add(r * 16), rows) };
        }
    }
}

/// One full slab of `A` — `2 * LANES` rows by `k` columns at `a`, leading
/// dimension `lda` — scaled by `alpha` into `out`. `FUSED` adds
/// `enc[i] += a~[i, q] * bc[q]` with the slab's `enc` entries held in two
/// registers across the whole `k` loop; multiply then add, as the scalar
/// loop rounds, so `enc` stays bit-identical to it.
///
/// # Safety
/// AVX-512F; `a` readable for `2 * LANES` rows of `k` columns, `out`
/// writable for `2 * LANES * k`; when `FUSED`, `bc` readable for `k` and
/// `enc` valid for `2 * LANES` (neither is touched otherwise).
#[target_feature(enable = "avx512f")]
unsafe fn a_slab<V: V512, const FUSED: bool>(
    a: *const V::E,
    lda: usize,
    k: usize,
    alpha: V::E,
    out: *mut V::E,
    bc: *const V::E,
    enc: *mut V::E,
) {
    // SAFETY: every access below is inside the regions the contract names.
    unsafe {
        let av = V::splat(alpha);
        let (mut e0, mut e1) = if FUSED {
            (V::load(enc), V::load(enc.add(V::LANES)))
        } else {
            (V::splat(V::E::ZERO), V::splat(V::E::ZERO))
        };
        for q in 0..k {
            let (src, dst) = (a.add(q * lda), out.add(q * 2 * V::LANES));
            let v0 = av.mul(V::load(src));
            let v1 = av.mul(V::load(src.add(V::LANES)));
            v0.store(dst);
            v1.store(dst.add(V::LANES));
            if FUSED {
                let bq = V::splat(*bc.add(q));
                e0 = v0.mul(bq).add(e0);
                e1 = v1.mul(bq).add(e1);
            }
        }
        if FUSED {
            e0.store(enc);
            e1.store(enc.add(V::LANES));
        }
    }
}

/// The first `k - k % LANES` rows of one full slab of `B` — eight columns at
/// `b`, leading dimension `ldb` — into `out`, `LANES` rows at a time: load
/// the eight column vectors, transpose in registers, store whole rows.
/// Returns the number of rows packed; the caller's scalar loop takes the
/// rest. `FUSED` reuses the loaded vectors for `bc[p] += Σ_j B[p, j]` (one
/// vector update per block) and `enc_col[j] += Σ_p ar[p] * B[p, j]` (eight
/// independent FMA accumulators, reduced once per slab).
///
/// # Safety
/// AVX-512F; `b` readable for `k` rows of 8 columns, `out` writable for
/// `8 * k`; when `FUSED`, `ar` readable and `bc` valid for `k`, `enc_col`
/// valid for 8 (none is touched otherwise).
#[target_feature(enable = "avx512f")]
unsafe fn b_slab<V: V512, const FUSED: bool>(
    b: *const V::E,
    ldb: usize,
    k: usize,
    out: *mut V::E,
    ar: *const V::E,
    bc: *mut V::E,
    enc_col: *mut V::E,
) -> usize {
    let rows = k - k % V::LANES;
    // SAFETY: every access below is inside the regions the contract names.
    unsafe {
        let mut enc = [V::splat(V::E::ZERO); 8];
        for p in (0..rows).step_by(V::LANES) {
            let c: [V; 8] = std::array::from_fn(|j| V::load(b.add(j * ldb + p)));
            if FUSED {
                let s =
                    (c[0].add(c[1]).add(c[2].add(c[3]))).add(c[4].add(c[5]).add(c[6].add(c[7])));
                V::load(bc.add(p)).add(s).store(bc.add(p));
                let arv = V::load(ar.add(p));
                for j in 0..8 {
                    enc[j] = arv.fmadd(c[j], enc[j]);
                }
            }
            V::store_transposed(c, out.add(p * 8));
        }
        if FUSED {
            V::add_hsums(enc, enc_col);
        }
    }
    rows
}

/// `Σ col[0..len]` over four independent vector accumulators; the last
/// `len % LANES` elements are added one by one.
///
/// # Safety
/// AVX-512F; `col` readable for `len` elements.
#[target_feature(enable = "avx512f")]
unsafe fn col_sum<V: V512>(col: *const V::E, len: usize) -> V::E {
    // SAFETY: every read below stays inside `col[..len]`.
    unsafe {
        let mut acc = [V::splat(V::E::ZERO); 4];
        let mut i = 0;
        while i + 4 * V::LANES <= len {
            for u in 0..4 {
                acc[u] = acc[u].add(V::load(col.add(i + u * V::LANES)));
            }
            i += 4 * V::LANES;
        }
        while i + V::LANES <= len {
            acc[0] = acc[0].add(V::load(col.add(i)));
            i += V::LANES;
        }
        let mut sum = acc[0].add(acc[1]).add(acc[2].add(acc[3])).reduce_add();
        for t in i..len {
            sum += *col.add(t);
        }
        sum
    }
}
