//! Portable micro-kernel: plain Rust, auto-vectorized by LLVM.
//!
//! This is the always-available tier and the reference the SIMD tiers are
//! validated against. It is also the edge-tile path the SIMD kernels
//! delegate to for partial tiles, so it must handle every `m_eff`/`n_eff`.

use crate::scalar::Scalar;

/// Micro-tile rows for the portable tier.
pub const MR: usize = 8;
/// Micro-tile columns for the portable tier.
pub const NR: usize = 4;

/// Portable `MR x NR` micro-kernel. See the [module contract](super);
/// `STORE` selects store mode.
///
/// # Safety
/// Callers must uphold the pointer/layout contract documented in
/// [`super`] (packed panels of `MR*k` / `NR*k` elements, valid `C` window,
/// sums either both null or valid).
pub unsafe fn kernel<T: Scalar, const STORE: bool>(
    k: usize,
    a: *const T,
    b: *const T,
    c: *mut T,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    col_sums: *mut T,
    row_sums: *mut T,
) {
    debug_assert!(m_eff <= MR && n_eff <= NR);
    // SAFETY: delegated; the generic body upholds the same contract.
    unsafe {
        kernel_mn::<T, MR, NR, STORE>(k, a, b, c, ldc, m_eff, n_eff, col_sums, row_sums);
    }
}

/// Generic register-blocked kernel over arbitrary const geometry.
///
/// Used by [`kernel`] with the portable geometry and by the SIMD tiers as
/// their edge-tile fallback (instantiated with *their* `MR x NR` so packing
/// layouts line up). Under `STORE` the tile is written, not accumulated into:
/// `C` is never read.
///
/// # Safety
/// Same contract as [`kernel`], with `MRK`/`NRK` taking the role of the
/// panel geometry.
#[inline]
pub unsafe fn kernel_mn<T: Scalar, const MRK: usize, const NRK: usize, const STORE: bool>(
    k: usize,
    a: *const T,
    b: *const T,
    c: *mut T,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    col_sums: *mut T,
    row_sums: *mut T,
) {
    debug_assert!(m_eff <= MRK && n_eff <= NRK);
    debug_assert!(ldc >= m_eff.max(1));

    // Accumulate the full MRK x NRK product tile in a local array; packed
    // panels are zero-padded so the dead lanes hold exact zeros. Column-major
    // accumulator: acc[j][i].
    let mut acc = [[T::ZERO; MRK]; NRK];
    let mut ap = a;
    let mut bp = b;
    for _ in 0..k {
        // SAFETY: panel layout per contract; each step consumes MRK/NRK
        // elements of the packed slabs.
        unsafe {
            for j in 0..NRK {
                let bv = *bp.add(j);
                for i in 0..MRK {
                    acc[j][i] = (*ap.add(i)).mul_add(bv, acc[j][i]);
                }
            }
            ap = ap.add(MRK);
            bp = bp.add(NRK);
        }
    }

    if !STORE {
        // Accumulate mode: the valid window of `C` joins the accumulators;
        // store mode never reads it.
        for j in 0..n_eff {
            // SAFETY: column j of the tile spans m_eff valid elements.
            unsafe {
                let cp = c.add(j * ldc);
                for i in 0..m_eff {
                    acc[j][i] = *cp.add(i) + acc[j][i];
                }
            }
        }
    }
    if col_sums.is_null() {
        // Plain store of the valid window.
        for j in 0..n_eff {
            // SAFETY: column j of the tile spans m_eff valid elements.
            unsafe {
                let cp = c.add(j * ldc);
                for i in 0..m_eff {
                    *cp.add(i) = acc[j][i];
                }
            }
        }
    } else {
        // Fused store: write back and accumulate post-update row/col sums
        // while the values are still in registers (paper §2.2).
        for j in 0..n_eff {
            let mut csum = T::ZERO;
            // SAFETY: as above, plus col_sums/row_sums valid per contract.
            unsafe {
                let cp = c.add(j * ldc);
                for i in 0..m_eff {
                    let v = acc[j][i];
                    *cp.add(i) = v;
                    csum += v;
                    *row_sums.add(i) += v;
                }
                *col_sums.add(j) += csum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cross-tier shape tests live in microkernel::tests; here we cover
    // portable-specific corner cases cheaply.

    #[test]
    fn k_zero_only_sums_existing_c() {
        let a: [f64; 0] = [];
        let b: [f64; 0] = [];
        let ldc = MR;
        let mut c = vec![2.0f64; ldc * NR];
        let mut col = vec![0.0f64; NR];
        let mut row = vec![0.0f64; MR];
        // SAFETY: zero-length panels are valid; C window is MRxNR.
        unsafe {
            kernel::<f64, false>(
                0,
                a.as_ptr(),
                b.as_ptr(),
                c.as_mut_ptr(),
                ldc,
                MR,
                NR,
                col.as_mut_ptr(),
                row.as_mut_ptr(),
            );
        }
        // With k == 0 the tile is unchanged but sums still reflect C.
        assert!(c.iter().all(|&x| x == 2.0));
        assert!(col.iter().all(|&s| s == 2.0 * MR as f64));
        assert!(row.iter().all(|&s| s == 2.0 * NR as f64));
    }

    #[test]
    fn single_element_tile() {
        let k = 3;
        let mut a = vec![0.0f64; MR * k];
        let mut b = vec![0.0f64; NR * k];
        for p in 0..k {
            a[p * MR] = (p + 1) as f64;
            b[p * NR] = 2.0;
        }
        let mut c = vec![10.0f64; 1];
        // SAFETY: 1x1 window with ldc=1; panels zero-padded.
        unsafe {
            kernel::<f64, false>(
                k,
                a.as_ptr(),
                b.as_ptr(),
                c.as_mut_ptr(),
                1,
                1,
                1,
                std::ptr::null_mut(),
                std::ptr::null_mut(),
            );
        }
        // 10 + (1+2+3)*2 = 22
        assert_eq!(c[0], 22.0);
    }

    #[test]
    fn custom_geometry_instantiation() {
        // kernel_mn with a non-default geometry (as the SIMD edge path uses).
        const M2: usize = 16;
        const N2: usize = 8;
        let k = 5;
        let mut a = vec![0.0f64; M2 * k];
        let mut b = vec![0.0f64; N2 * k];
        for p in 0..k {
            for i in 0..M2 {
                a[p * M2 + i] = (i + p) as f64;
            }
            for j in 0..N2 {
                b[p * N2 + j] = (j as f64) - 2.0;
            }
        }
        let ldc = M2;
        let mut c = vec![0.0f64; ldc * N2];
        // SAFETY: full M2xN2 window over a contiguous buffer.
        unsafe {
            kernel_mn::<f64, M2, N2, false>(
                k,
                a.as_ptr(),
                b.as_ptr(),
                c.as_mut_ptr(),
                ldc,
                M2,
                N2,
                std::ptr::null_mut(),
                std::ptr::null_mut(),
            );
        }
        // Check one entry against the closed form: sum_p (i+p)*(j-2).
        let i = 3;
        let j = 5;
        let want: f64 = (0..k).map(|p| (i + p) as f64 * (j as f64 - 2.0)).sum();
        assert_eq!(c[i + j * ldc], want);
    }
}
