//! Plain (non-FT) parallel GEMM — the paper's threaded baseline
//! ("FT-GEMM: Ori", parallel curves of Fig. 2b).

use crate::ctx::ParGemmContext;
use crate::shared::SendPtr;
use crate::workspace::ParFtWorkspace;
use ftgemm_core::gemm::validate_shapes;
use ftgemm_core::macro_kernel::macro_kernel;
use ftgemm_core::{pack, MatMut, MatRef, Result, Scalar};

/// Parallel plain `C = alpha*A*B + beta*C` on a caller-held
/// [`ParFtWorkspace`] (only the packed `B~` and per-thread `A~` slots are
/// touched); the hot path performs no heap allocation. Work is
/// M-partitioned; the packed `B~` is shared and packed cooperatively along
/// N; each thread packs its own `A~` (paper §2.3). Taken `&mut` so
/// concurrent calls cannot alias one workspace from safe code (see
/// [`par_ft_gemm_with_ws`](crate::par_ft_gemm_with_ws)).
///
/// # Panics
/// If `ws` was built for different blocking parameters or a different
/// thread count (see [`ParFtWorkspace::fits_plain`]; a slim
/// [`ParFtWorkspace::for_plain`] workspace suffices here).
pub fn par_gemm_with_ws<T: Scalar>(
    ctx: &ParGemmContext<T>,
    ws: &mut ParFtWorkspace<T>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> Result<()> {
    let (m, n, k) = validate_shapes(a, b, c)?;
    let p = ctx.params;
    p.validate()?;

    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 || alpha == T::ZERO {
        ftgemm_core::gemm::scale_c(c, beta);
        return Ok(());
    }

    let kernel = ctx.kernel;
    let b_len = p.packed_b_len();
    assert!(
        ws.fits_plain(ctx),
        "workspace too small for {m}x{n}x{k} on {} threads",
        ctx.nthreads()
    );
    // Shared reborrow for the region closure; exclusivity came from `&mut`.
    let ws: &ParFtWorkspace<T> = ws;
    let btilde = &ws.btilde;

    // Raw C access: threads derive disjoint row-slice views.
    let c_ptr = SendPtr(c.as_mut_ptr());
    let ldc = c.ld();

    ctx.pool().run(|w| {
        // Capture the SendPtr wrapper itself, not its raw field (auto-capture
        // of `c_ptr.0` would capture the non-Send raw pointer).
        #[allow(clippy::redundant_locals)]
        let c_ptr = c_ptr;
        let rows = w.partition(m, p.mr);
        let (ms, mlen) = (rows.start, rows.len());

        // Thread-private A~ buffer from the workspace (paper: "each thread
        // requests a private memory buffer for A~").
        let mut atilde = ws.atilde[w.tid].lock();

        // beta scaling of the thread's row slice; at beta == 0 the first
        // depth panel stores over it instead.
        let store_first = beta == T::ZERO;
        if !store_first && mlen > 0 {
            // SAFETY: row slices are disjoint across threads.
            let mut c_slice = unsafe { MatMut::<T>::from_raw_parts(c_ptr.0.add(ms), mlen, n, ldc) };
            ftgemm_core::gemm::scale_c(&mut c_slice, beta);
        }
        w.barrier();

        let mut jc = 0;
        while jc < n {
            let nc_eff = p.nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc_eff = p.kc.min(k - pc);

                // Cooperative packing of B~ along N (NR-aligned chunks so
                // whole micro-panels stay within one thread).
                let cols = w.partition(nc_eff, p.nr);
                if !cols.is_empty() {
                    let b_block = b.submatrix(pc, jc + cols.start, kc_eff, cols.len());
                    // Panel q starts at offset q*nr*kc_eff in packed layout.
                    let off = (cols.start / p.nr) * p.nr * kc_eff;
                    let len = cols.len().div_ceil(p.nr) * p.nr * kc_eff;
                    // SAFETY: NR-aligned column chunks map to disjoint
                    // packed slabs.
                    let out = unsafe { btilde.slice_mut(off..off + len) };
                    pack::pack_b(&b_block, p.nr, out);
                }
                w.barrier();

                // Compute on the thread's own rows.
                if mlen > 0 {
                    // SAFETY: packing epoch ended at the barrier; this epoch
                    // only reads btilde.
                    let b_packed = unsafe { btilde.slice(0..b_len) };
                    let mut ic = 0;
                    while ic < mlen {
                        let mc_eff = p.mc.min(mlen - ic);
                        let a_block = a.submatrix(ms + ic, pc, mc_eff, kc_eff);
                        pack::pack_a(&a_block, alpha, p.mr, atilde.as_mut_slice());
                        // SAFETY: disjoint row slice of C.
                        let mut c_block = unsafe {
                            MatMut::<T>::from_raw_parts(
                                c_ptr.0.add(ms + ic + jc * ldc),
                                mc_eff,
                                nc_eff,
                                ldc,
                            )
                        };
                        macro_kernel(
                            &kernel,
                            kc_eff,
                            atilde.as_slice(),
                            b_packed,
                            &mut c_block,
                            None,
                            store_first && pc == 0,
                        );
                        ic += p.mc;
                    }
                }
                // B~ must not be overwritten while any thread still reads it.
                w.barrier();
                pc += p.kc;
            }
            jc += p.nc;
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::{IsaLevel, Matrix};

    fn check(threads: usize, m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        let a = Matrix::<f64>::random(m, k, 81);
        let b = Matrix::<f64>::random(k, n, 82);
        let mut c = Matrix::<f64>::random(m, n, 83);
        let mut c_ref = c.clone();
        par_gemm_with_ws(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            alpha,
            &a.as_ref(),
            &b.as_ref(),
            beta,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        let d = c.rel_max_diff(&c_ref);
        assert!(d < 1e-10, "diff {d} (t={threads}, {m}x{n}x{k})");
    }

    #[test]
    fn matches_reference_various_threads() {
        for threads in [1, 2, 3, 8] {
            check(threads, 64, 64, 64, 1.0, 1.0);
            check(threads, 130, 70, 50, 1.0, 0.0);
        }
    }

    #[test]
    fn ragged_sizes() {
        check(4, 17, 13, 9, 1.0, 1.0);
        check(4, 257, 129, 65, -0.5, 2.0);
        check(3, 1, 100, 100, 1.0, 1.0);
        check(3, 100, 1, 100, 1.0, 1.0);
    }

    #[test]
    fn more_threads_than_rows() {
        check(8, 5, 40, 30, 1.0, 1.0);
    }

    #[test]
    fn zero_k_scales_only() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let a = Matrix::<f64>::zeros(4, 0);
        let b = Matrix::<f64>::zeros(0, 4);
        let mut c = Matrix::<f64>::filled(4, 4, 2.0);
        par_gemm_with_ws(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.5,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn f32_parallel() {
        let ctx = ParGemmContext::<f32>::with_threads(4);
        let a = Matrix::<f32>::random(96, 64, 1);
        let b = Matrix::<f32>::random(64, 80, 2);
        let mut c = Matrix::<f32>::zeros(96, 80);
        let mut c_ref = c.clone();
        par_gemm_with_ws(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            1.0f32,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0f32, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-4);
    }

    #[test]
    fn portable_isa_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads_and_isa(4, IsaLevel::Portable);
        let a = Matrix::<f64>::random(70, 60, 3);
        let b = Matrix::<f64>::random(60, 50, 4);
        let mut c = Matrix::<f64>::zeros(70, 50);
        let mut c_ref = c.clone();
        par_gemm_with_ws(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn context_reuse() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        for s in [32usize, 100, 64] {
            let a = Matrix::<f64>::random(s, s, s as u64);
            let b = Matrix::<f64>::random(s, s, s as u64 + 9);
            let mut c = Matrix::<f64>::zeros(s, s);
            let mut c_ref = Matrix::<f64>::zeros(s, s);
            par_gemm_with_ws(
                &ctx,
                &mut ParFtWorkspace::for_plain(&ctx),
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                0.0,
                &mut c.as_mut(),
            )
            .unwrap();
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "size {s}");
        }
    }
}
