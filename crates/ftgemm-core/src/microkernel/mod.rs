//! Micro-kernels: the register-blocked inner loop of GEMM.
//!
//! A micro-kernel computes `C_tile += A_panel * B_panel` where `A_panel` is a
//! packed `MR x k` slab (column of the packed block `A~`), `B_panel` a packed
//! `k x NR` slab, and `C_tile` an `MR x NR` window of `C` held in registers
//! for the whole `k` loop.
//!
//! ## Store mode
//!
//! Every kernel body is instantiated twice (`const STORE: bool`): the
//! accumulate entry [`Kernel::func`] above, and the store entry
//! [`Kernel::store`], which computes `C_tile = A_panel * B_panel` and **never
//! reads `C`**. The drivers run the first depth panel of a `beta == 0`
//! product in store mode, so `C` is written once instead of zero-filled,
//! loaded back and stored. The result equals accumulating onto zeros under
//! `==` (`0 + x == x`; only the sign of an exact zero can differ), and the
//! sums hook below is the same in both modes.
//!
//! ## The fused-ABFT hook
//!
//! Every kernel takes two optional output vectors, `col_sums` (length `NR`)
//! and `row_sums` (length `MR`). When non-null, the kernel accumulates the
//! **post-update** tile sums
//!
//! ```text
//! col_sums[j] += Σ_i C_tile[i, j]        row_sums[i] += Σ_j C_tile[i, j]
//! ```
//!
//! while the tile is still in registers. This realizes the paper's §2.2:
//! "we reuse the computed C elements at register level to update the
//! reference checksums C_r_ref and C_c_ref" — the checksum read of `C` costs
//! no extra memory traffic.
//!
//! The SIMD tiers form the column sums of a full tile with **one shared
//! reduce**: `w[j] = v0 + v1` per column, then a transposed reduce over all
//! `NR` vectors at once (AVX-512: `unpack` + two `shuffle_f64x2` levels,
//! [`avx512`]'s `hsum8_pd` / `hsum8_ps`; AVX2: `hadd` + `permute2f128`) and
//! one vector add into `col_sums` — not `2 * NR` horizontal-add trees and
//! `NR` scalar read-modify-writes. `C` itself is untouched by this; only the
//! order in which `col_sums` (the drivers' `ref_col`) is summed differs
//! from the portable kernel's and from the edge tiles', and the verifier's
//! tolerance covers it like any other summation order.
//!
//! ## Calling contract
//!
//! * `a` points to `MR * k` elements, layout `a[p*MR + i]`, zero-padded when
//!   the logical tile has fewer than `MR` rows; 64-byte aligned, and
//!   `MR * size_of::<T>()` is a multiple of 64 for the SIMD tiers.
//! * `b` points to `NR * k` elements, layout `b[p*NR + j]`, zero-padded.
//! * `c` points to element `(0, 0)` of the tile inside a column-major matrix
//!   with leading dimension `ldc >= m_eff`.
//! * `m_eff <= MR`, `n_eff <= NR` give the valid tile extent; only that
//!   region of `C` is read or written — in store mode written only, so it
//!   may hold anything (NaN, uninitialised-by-the-caller garbage).
//! * `col_sums`/`row_sums` are either both null or both valid for
//!   `n_eff`/`m_eff` elements.

pub mod avx2;
pub mod avx512;
pub mod portable;

use crate::cpu::IsaLevel;
use crate::scalar::Scalar;
use std::any::TypeId;

/// Raw micro-kernel function type. See the module docs for the contract.
pub type MicroKernelFn<T> = unsafe fn(
    k: usize,
    a: *const T,
    b: *const T,
    c: *mut T,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    col_sums: *mut T,
    row_sums: *mut T,
);

/// A selected micro-kernel together with its register-block geometry.
#[derive(Clone, Copy)]
pub struct Kernel<T: Scalar> {
    /// Micro-tile rows.
    pub mr: usize,
    /// Micro-tile columns.
    pub nr: usize,
    /// ISA tier this kernel requires.
    pub isa: IsaLevel,
    /// Human-readable kernel name for reports.
    pub name: &'static str,
    /// The kernel entry point.
    pub func: MicroKernelFn<T>,
}

impl<T: Scalar> std::fmt::Debug for Kernel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .field("isa", &self.isa)
            .finish()
    }
}

impl<T: Scalar> Kernel<T> {
    /// The store-mode entry of this kernel (`C_tile = A~ * B~`, see the
    /// [module docs](self)): same body, geometry and sums hook as
    /// [`Self::func`], looked up from `(T, isa)`.
    pub fn store(&self) -> MicroKernelFn<T> {
        table::<T>(self.isa).1
    }
}

/// Selects the best kernel for element type `T` at the given ISA tier.
///
/// Tiers above what the CPU supports must not be requested unless the caller
/// guarantees support (the returned kernel executes illegal instructions
/// otherwise) — pass [`IsaLevel::detect`] for the safe path.
pub fn select_kernel<T: Scalar>(level: IsaLevel) -> Kernel<T> {
    table::<T>(level).0
}

/// One row of the kernel table: the [`Kernel`] (whose `func` accumulates)
/// and the store-mode instantiation of the same body.
type Row<T> = (Kernel<T>, MicroKernelFn<T>);

fn row<T: Scalar>(
    (mr, nr): (usize, usize),
    isa: IsaLevel,
    name: &'static str,
    func: MicroKernelFn<T>,
    store: MicroKernelFn<T>,
) -> Row<T> {
    let kernel = Kernel {
        mr,
        nr,
        isa,
        name,
        func,
    };
    (kernel, store)
}

/// The kernel table behind [`select_kernel`] and [`Kernel::store`].
fn table<T: Scalar>(level: IsaLevel) -> Row<T> {
    const PORTABLE: (usize, usize) = (portable::MR, portable::NR);
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f64>() {
        let r: Row<f64> = match level {
            IsaLevel::Avx512 => row(
                (avx512::F64_MR, avx512::F64_NR),
                level,
                "avx512-f64-16x8",
                avx512::dgemm_16x8::<false>,
                avx512::dgemm_16x8::<true>,
            ),
            IsaLevel::Avx2Fma => row(
                (avx2::F64_MR, avx2::F64_NR),
                level,
                "avx2-f64-8x6",
                avx2::dgemm_8x6::<false>,
                avx2::dgemm_8x6::<true>,
            ),
            IsaLevel::Portable => row(
                PORTABLE,
                level,
                "portable-f64-8x4",
                portable::kernel::<f64, false>,
                portable::kernel::<f64, true>,
            ),
        };
        // SAFETY: T == f64 was just checked; the function pointer types are
        // identical after monomorphization, so this is a no-op transmute.
        return unsafe { std::mem::transmute::<Row<f64>, Row<T>>(r) };
    }
    if t == TypeId::of::<f32>() {
        let r: Row<f32> = match level {
            IsaLevel::Avx512 => row(
                (avx512::F32_MR, avx512::F32_NR),
                level,
                "avx512-f32-32x8",
                avx512::sgemm_32x8::<false>,
                avx512::sgemm_32x8::<true>,
            ),
            IsaLevel::Avx2Fma => row(
                (avx2::F32_MR, avx2::F32_NR),
                level,
                "avx2-f32-16x6",
                avx2::sgemm_16x6::<false>,
                avx2::sgemm_16x6::<true>,
            ),
            IsaLevel::Portable => row(
                PORTABLE,
                level,
                "portable-f32-8x4",
                portable::kernel::<f32, false>,
                portable::kernel::<f32, true>,
            ),
        };
        // SAFETY: T == f32 was just checked (see above).
        return unsafe { std::mem::transmute::<Row<f32>, Row<T>>(r) };
    }
    // Only f32/f64 implement Scalar today, but stay correct for any future
    // Scalar by falling back to the generic portable kernel.
    row(
        PORTABLE,
        IsaLevel::Portable,
        "portable-generic-8x4",
        portable::kernel::<T, false>,
        portable::kernel::<T, true>,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligned::AlignedVec;

    /// Reference tile update used to validate every kernel tier.
    fn tile_oracle<T: Scalar>(
        k: usize,
        mr: usize,
        nr: usize,
        a: &[T],
        b: &[T],
        c: &mut [T],
        ldc: usize,
        m_eff: usize,
        n_eff: usize,
    ) {
        for p in 0..k {
            for j in 0..n_eff {
                for i in 0..m_eff {
                    let add = a[p * mr + i] * b[p * nr + j];
                    c[i + j * ldc] += add;
                }
            }
        }
    }

    fn check_kernel<T: Scalar>(kern: &Kernel<T>, k: usize, m_eff: usize, n_eff: usize) {
        let (mr, nr) = (kern.mr, kern.nr);
        let mut a = AlignedVec::<T>::zeroed(mr * k).unwrap();
        let mut b = AlignedVec::<T>::zeroed(nr * k).unwrap();
        // Deterministic pseudo-random fill; zero-pad beyond effective dims.
        for p in 0..k {
            for i in 0..m_eff {
                a[p * mr + i] = T::from_f64((((p * 31 + i * 7) % 17) as f64 - 8.0) / 4.0);
            }
            for j in 0..n_eff {
                b[p * nr + j] = T::from_f64((((p * 13 + j * 5) % 23) as f64 - 11.0) / 8.0);
            }
        }
        let ldc = mr + 3;
        let mut c = vec![T::from_f64(0.25); ldc * nr];
        let mut c_ref = c.clone();

        let mut col_sums = vec![T::from_f64(1.5); nr];
        let mut row_sums = vec![T::from_f64(-2.5); mr];

        // SAFETY: buffers satisfy the kernel contract established above.
        unsafe {
            (kern.func)(
                k,
                a.as_ptr(),
                b.as_ptr(),
                c.as_mut_ptr(),
                ldc,
                m_eff,
                n_eff,
                col_sums.as_mut_ptr(),
                row_sums.as_mut_ptr(),
            );
        }
        tile_oracle(k, mr, nr, &a, &b, &mut c_ref, ldc, m_eff, n_eff);

        let tol = T::EPSILON.to_f64() * (k as f64) * 64.0;
        for j in 0..n_eff {
            for i in 0..m_eff {
                let got = c[i + j * ldc].to_f64();
                let want = c_ref[i + j * ldc].to_f64();
                assert!(
                    (got - want).abs() <= tol * want.abs().max(1.0),
                    "{} tile mismatch at ({i},{j}): got {got}, want {want} (k={k}, m_eff={m_eff}, n_eff={n_eff})",
                    kern.name
                );
            }
        }
        // Untouched C outside the effective region.
        for j in 0..nr {
            for i in 0..ldc {
                if i < m_eff && j < n_eff {
                    continue;
                }
                assert_eq!(
                    c[i + j * ldc].to_f64(),
                    0.25,
                    "{} wrote outside tile at ({i},{j})",
                    kern.name
                );
            }
        }
        // Sums: accumulated on top of the initial garbage values.
        for j in 0..n_eff {
            let mut want = 1.5;
            for i in 0..m_eff {
                want += c_ref[i + j * ldc].to_f64();
            }
            let got = col_sums[j].to_f64();
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0) * (kern.mr as f64),
                "{} col_sum mismatch at {j}: got {got}, want {want}",
                kern.name
            );
        }
        for i in 0..m_eff {
            let mut want = -2.5;
            for j in 0..n_eff {
                want += c_ref[i + j * ldc].to_f64();
            }
            let got = row_sums[i].to_f64();
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0) * (kern.nr as f64),
                "{} row_sum mismatch at {i}: got {got}, want {want}",
                kern.name
            );
        }
        // Sums outside effective region untouched.
        for j in n_eff..nr {
            assert_eq!(col_sums[j].to_f64(), 1.5, "{}", kern.name);
        }
        for i in m_eff..mr {
            assert_eq!(row_sums[i].to_f64(), -2.5, "{}", kern.name);
        }

        // Null-sum (non-FT) path produces the same tile.
        let mut c2 = vec![T::from_f64(0.25); ldc * nr];
        // SAFETY: same contract, null sums select the plain store path.
        unsafe {
            (kern.func)(
                k,
                a.as_ptr(),
                b.as_ptr(),
                c2.as_mut_ptr(),
                ldc,
                m_eff,
                n_eff,
                std::ptr::null_mut(),
                std::ptr::null_mut(),
            );
        }
        for idx in 0..c2.len() {
            assert_eq!(
                c2[idx].to_f64(),
                c[idx].to_f64(),
                "{} FT/non-FT store divergence at {idx}",
                kern.name
            );
        }

        // Store mode never reads C: over a NaN-filled window it leaves what
        // accumulate mode leaves over a zeroed one — tile and both sums —
        // and NaN everywhere outside `m_eff x n_eff`.
        let run = |func: MicroKernelFn<T>, fill: T, sums: bool| {
            let mut c = vec![fill; ldc * nr];
            let mut col_sums = vec![T::from_f64(1.5); nr];
            let mut row_sums = vec![T::from_f64(-2.5); mr];
            let null = std::ptr::null_mut();
            let (cs, rs) = if sums {
                (col_sums.as_mut_ptr(), row_sums.as_mut_ptr())
            } else {
                (null, null)
            };
            // SAFETY: same buffers and extents as the calls above.
            unsafe {
                func(
                    k,
                    a.as_ptr(),
                    b.as_ptr(),
                    c.as_mut_ptr(),
                    ldc,
                    m_eff,
                    n_eff,
                    cs,
                    rs,
                )
            };
            (c, col_sums, row_sums)
        };
        for sums in [true, false] {
            let (stored, cs, rs) = run(kern.store(), T::from_f64(f64::NAN), sums);
            let (summed, cs0, rs0) = run(kern.func, T::ZERO, sums);
            for j in 0..nr {
                for i in 0..ldc {
                    let got = stored[i + j * ldc];
                    if i < m_eff && j < n_eff {
                        assert_eq!(got, summed[i + j * ldc], "{} store ({i},{j})", kern.name);
                    } else {
                        assert!(got.to_f64().is_nan(), "{} store wrote ({i},{j})", kern.name);
                    }
                }
            }
            assert_eq!((cs, rs), (cs0, rs0), "{} store-mode sums", kern.name);
        }
    }

    fn exercise_all_shapes<T: Scalar>(kern: Kernel<T>) {
        for k in [0, 1, 2, 7, 64, 129] {
            check_kernel(&kern, k, kern.mr, kern.nr); // full tile
            check_kernel(&kern, k, 1, 1);
            check_kernel(&kern, k, kern.mr - 1, kern.nr);
            check_kernel(&kern, k, kern.mr, kern.nr - 1);
            check_kernel(&kern, k, kern.mr / 2 + 1, kern.nr / 2 + 1);
        }
    }

    #[test]
    fn portable_f64_all_shapes() {
        exercise_all_shapes(select_kernel::<f64>(IsaLevel::Portable));
    }

    #[test]
    fn portable_f32_all_shapes() {
        exercise_all_shapes(select_kernel::<f32>(IsaLevel::Portable));
    }

    #[test]
    fn avx2_f64_all_shapes() {
        if IsaLevel::detect() >= IsaLevel::Avx2Fma {
            exercise_all_shapes(select_kernel::<f64>(IsaLevel::Avx2Fma));
        }
    }

    #[test]
    fn avx2_f32_all_shapes() {
        if IsaLevel::detect() >= IsaLevel::Avx2Fma {
            exercise_all_shapes(select_kernel::<f32>(IsaLevel::Avx2Fma));
        }
    }

    #[test]
    fn avx512_f64_all_shapes() {
        if IsaLevel::detect() >= IsaLevel::Avx512 {
            exercise_all_shapes(select_kernel::<f64>(IsaLevel::Avx512));
        }
    }

    #[test]
    fn avx512_f32_all_shapes() {
        if IsaLevel::detect() >= IsaLevel::Avx512 {
            exercise_all_shapes(select_kernel::<f32>(IsaLevel::Avx512));
        }
    }

    /// With `C = 0`, `A~ = 1` and `B~[p][j] = j + 1` every element of tile
    /// column `j` is `k (j + 1)`: both sums are small integers that any
    /// summation order forms exactly, so a reduce that permutes or drops a
    /// lane cannot pass (`check_kernel` compares under a tolerance).
    fn check_sum_lanes<T: Scalar>(kern: Kernel<T>) {
        let (mr, nr, k) = (kern.mr, kern.nr, 37);
        let mut a = AlignedVec::<T>::zeroed(mr * k).unwrap();
        let mut b = AlignedVec::<T>::zeroed(nr * k).unwrap();
        a.fill(T::ONE);
        for p in 0..k {
            for j in 0..nr {
                b[p * nr + j] = T::from_usize(j + 1);
            }
        }
        let mut c = vec![T::ZERO; mr * nr];
        let mut col_sums: Vec<T> = (0..nr).map(|j| T::from_usize(3 + j)).collect();
        let mut row_sums: Vec<T> = (0..mr).map(|i| T::from_usize(5 + 2 * i)).collect();
        // SAFETY: full-tile panels and a contiguous `mr x nr` window.
        unsafe {
            (kern.func)(
                k,
                a.as_ptr(),
                b.as_ptr(),
                c.as_mut_ptr(),
                mr,
                mr,
                nr,
                col_sums.as_mut_ptr(),
                row_sums.as_mut_ptr(),
            );
        }
        for j in 0..nr {
            let want = T::from_usize(3 + j + mr * k * (j + 1));
            assert_eq!(col_sums[j], want, "{} col_sums[{j}]", kern.name);
        }
        for i in 0..mr {
            let want = T::from_usize(5 + 2 * i + k * nr * (nr + 1) / 2);
            assert_eq!(row_sums[i], want, "{} row_sums[{i}]", kern.name);
        }
    }

    #[test]
    fn fused_sums_are_lane_exact_on_every_tier() {
        for tier in IsaLevel::available() {
            check_sum_lanes(select_kernel::<f64>(tier));
            check_sum_lanes(select_kernel::<f32>(tier));
        }
    }

    #[test]
    fn kernel_debug_format() {
        let k = select_kernel::<f64>(IsaLevel::Portable);
        let s = format!("{k:?}");
        assert!(s.contains("portable"));
    }
}
