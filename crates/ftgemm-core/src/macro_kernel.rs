//! The macro kernel: updates an `mc x nc` block of `C` from packed `A~` and
//! `B~` by sweeping the micro-kernel over micro-tiles (paper §2.1).
//!
//! Optionally threads the fused-ABFT reference-checksum accumulators through
//! to the micro-kernel so the post-update row/column sums of the whole block
//! are collected at register level.

use crate::matrix::MatMut;
use crate::microkernel::Kernel;
use crate::scalar::Scalar;

/// Runs `C_block += A~ * B~` over an `mc x nc` block — or, under `store`,
/// `C_block = A~ * B~` without reading `C` (the first depth panel of a
/// `beta == 0` product; see [`Kernel::store`]).
///
/// * `a_packed` — packed block of `ceil(mc/mr)` slabs, depth `kc`.
/// * `b_packed` — packed block of `ceil(nc/nr)` slabs, depth `kc`.
/// * `c` — mutable view of exactly the `mc x nc` block to update.
/// * `sums` — `Some((col_sums, row_sums))` to accumulate post-update
///   checksum references; lengths `nc` and `mc`.
pub fn macro_kernel<T: Scalar>(
    kernel: &Kernel<T>,
    kc: usize,
    a_packed: &[T],
    b_packed: &[T],
    c: &mut MatMut<'_, T>,
    sums: Option<(&mut [T], &mut [T])>,
    store: bool,
) {
    let mc = c.nrows();
    let nc = c.ncols();
    let (mr, nr) = (kernel.mr, kernel.nr);
    let ldc = c.ld();
    assert!(
        a_packed.len() >= mc.div_ceil(mr) * mr * kc,
        "macro_kernel: a_packed too small"
    );
    assert!(
        b_packed.len() >= nc.div_ceil(nr) * nr * kc,
        "macro_kernel: b_packed too small"
    );

    let (mut col_ptr, mut row_ptr) = (std::ptr::null_mut(), std::ptr::null_mut());
    if let Some((col_sums, row_sums)) = sums {
        assert_eq!(col_sums.len(), nc, "macro_kernel: col_sums length");
        assert_eq!(row_sums.len(), mc, "macro_kernel: row_sums length");
        col_ptr = col_sums.as_mut_ptr();
        row_ptr = row_sums.as_mut_ptr();
    }
    let ft = !col_ptr.is_null();
    let func = if store { kernel.store() } else { kernel.func };

    let c_ptr = c.as_mut_ptr();
    let mut jr = 0;
    while jr < nc {
        let n_eff = nr.min(nc - jr);
        let b_slab = &b_packed[(jr / nr) * nr * kc..];
        let mut ir = 0;
        while ir < mc {
            let m_eff = mr.min(mc - ir);
            let a_slab = &a_packed[(ir / mr) * mr * kc..];
            // SAFETY: the tile (ir..ir+m_eff, jr..jr+n_eff) lies inside the
            // mc x nc view; packed slabs are sized per the asserts above;
            // sum pointers offset into slices of the asserted lengths.
            unsafe {
                func(
                    kc,
                    a_slab.as_ptr(),
                    b_slab.as_ptr(),
                    c_ptr.add(ir + jr * ldc),
                    ldc,
                    m_eff,
                    n_eff,
                    if ft {
                        col_ptr.add(jr)
                    } else {
                        std::ptr::null_mut()
                    },
                    if ft {
                        row_ptr.add(ir)
                    } else {
                        std::ptr::null_mut()
                    },
                );
            }
            ir += mr;
        }
        jr += nr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::IsaLevel;
    use crate::matrix::Matrix;
    use crate::microkernel::select_kernel;
    use crate::pack::{pack_a, pack_b};

    fn run_block(mc: usize, nc: usize, kc: usize, isa: IsaLevel, ft: bool) {
        if isa > IsaLevel::detect() {
            return;
        }
        let kernel = select_kernel::<f64>(isa);
        let a = Matrix::<f64>::random(mc, kc, 11);
        let b = Matrix::<f64>::random(kc, nc, 12);
        let mut c = Matrix::<f64>::random(mc, nc, 13);
        let c0 = c.clone();

        let mut ap = vec![0.0; mc.div_ceil(kernel.mr) * kernel.mr * kc];
        let mut bp = vec![0.0; nc.div_ceil(kernel.nr) * kernel.nr * kc];
        pack_a(&a.as_ref(), 1.0, kernel.mr, &mut ap);
        pack_b(&b.as_ref(), kernel.nr, &mut bp);

        let mut col_sums = vec![0.0; nc];
        let mut row_sums = vec![0.0; mc];
        {
            let mut cv = c.as_mut();
            let sums = if ft {
                Some((col_sums.as_mut_slice(), row_sums.as_mut_slice()))
            } else {
                None
            };
            macro_kernel(&kernel, kc, &ap, &bp, &mut cv, sums, false);
        }

        // Oracle: C = C0 + A*B.
        let tol = 1e-12 * kc as f64;
        for j in 0..nc {
            for i in 0..mc {
                let mut want = c0.get(i, j);
                for p in 0..kc {
                    want += a.get(i, p) * b.get(p, j);
                }
                let got = c.get(i, j);
                assert!(
                    (got - want).abs() < tol * want.abs().max(1.0),
                    "({i},{j}) got {got} want {want} [{:?} ft={ft} mc={mc} nc={nc} kc={kc}]",
                    kernel.isa
                );
            }
        }
        if ft {
            for j in 0..nc {
                let want: f64 = (0..mc).map(|i| c.get(i, j)).sum();
                assert!(
                    (col_sums[j] - want).abs() < tol * want.abs().max(1.0) * mc as f64,
                    "col_sums[{j}]"
                );
            }
            for i in 0..mc {
                let want: f64 = (0..nc).map(|j| c.get(i, j)).sum();
                assert!(
                    (row_sums[i] - want).abs() < tol * want.abs().max(1.0) * nc as f64,
                    "row_sums[{i}]"
                );
            }
        }
    }

    #[test]
    fn block_portable_exact_tiles() {
        run_block(16, 8, 5, IsaLevel::Portable, false);
        run_block(16, 8, 5, IsaLevel::Portable, true);
    }

    #[test]
    fn block_portable_ragged() {
        run_block(13, 9, 7, IsaLevel::Portable, true);
        run_block(1, 1, 1, IsaLevel::Portable, true);
        run_block(7, 3, 4, IsaLevel::Portable, false);
    }

    #[test]
    fn block_avx2() {
        run_block(24, 18, 33, IsaLevel::Avx2Fma, true);
        run_block(17, 13, 9, IsaLevel::Avx2Fma, true);
    }

    #[test]
    fn block_avx512() {
        run_block(48, 24, 33, IsaLevel::Avx512, true);
        run_block(33, 17, 65, IsaLevel::Avx512, true);
        run_block(16, 8, 128, IsaLevel::Avx512, false);
    }

    #[test]
    fn ft_and_plain_identical_results() {
        let kernel = select_kernel::<f64>(IsaLevel::detect());
        let (mc, nc, kc) = (40, 30, 20);
        let a = Matrix::<f64>::random(mc, kc, 1);
        let b = Matrix::<f64>::random(kc, nc, 2);
        let mut c1 = Matrix::<f64>::random(mc, nc, 3);
        let mut c2 = c1.clone();

        let mut ap = vec![0.0; mc.div_ceil(kernel.mr) * kernel.mr * kc];
        let mut bp = vec![0.0; nc.div_ceil(kernel.nr) * kernel.nr * kc];
        pack_a(&a.as_ref(), 1.0, kernel.mr, &mut ap);
        pack_b(&b.as_ref(), kernel.nr, &mut bp);

        let mut cs = vec![0.0; nc];
        let mut rs = vec![0.0; mc];
        macro_kernel(&kernel, kc, &ap, &bp, &mut c1.as_mut(), None, false);
        macro_kernel(
            &kernel,
            kc,
            &ap,
            &bp,
            &mut c2.as_mut(),
            Some((cs.as_mut_slice(), rs.as_mut_slice())),
            false,
        );
        assert_eq!(c1.as_slice(), c2.as_slice(), "FT path altered numerics");
    }
}
