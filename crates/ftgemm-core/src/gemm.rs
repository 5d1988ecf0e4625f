//! Serial high-performance GEMM driver: `C = alpha * A * B + beta * C`.
//!
//! This is the paper's "FT-GEMM: Ori" code path — the five-loop GotoBLAS
//! structure (jc / pc / ic around the macro kernel) with packing, without
//! any fault-tolerance work. The fused-ABFT driver in `ftgemm-abft` reuses
//! the same packing/macro-kernel substrate with the checksum hooks engaged.

use crate::cpu::{CacheInfo, IsaLevel};
use crate::error::{CoreError, Result};
use crate::matrix::{MatMut, MatRef};
use crate::microkernel::{select_kernel, Kernel};
use crate::params::BlockingParams;
use crate::scalar::Scalar;
use crate::{aligned::Scratch, pack};

/// Reusable state for repeated GEMM calls: the selected micro-kernel,
/// blocking parameters, and the packing scratch buffers.
///
/// Creating a context is cheap but allocating packing buffers is not;
/// reuse one context across calls of similar size (as the benchmarks do).
#[derive(Debug)]
pub struct GemmContext<T: Scalar> {
    /// Selected micro-kernel.
    pub kernel: Kernel<T>,
    /// Blocking parameters (override for ablations via [`Self::set_params`]).
    pub params: BlockingParams,
    pub(crate) a_scratch: Scratch<T>,
    pub(crate) b_scratch: Scratch<T>,
}

impl<T: Scalar> GemmContext<T> {
    /// Context with the best ISA tier the CPU supports and cache-derived
    /// blocking parameters.
    pub fn new() -> Self {
        Self::with_isa(IsaLevel::detect())
    }

    /// Context pinned to a specific ISA tier (must be supported by the CPU;
    /// used by the baseline stand-ins and ablation benches).
    pub fn with_isa(isa: IsaLevel) -> Self {
        let kernel = select_kernel::<T>(isa);
        let params = BlockingParams::derive::<T>(&CacheInfo::detect(), kernel.mr, kernel.nr);
        Self {
            kernel,
            params,
            a_scratch: Scratch::new(),
            b_scratch: Scratch::new(),
        }
    }

    /// Borrows the two packing scratch buffers, grown to at least the given
    /// element counts. Used by the fault-tolerant and parallel drivers that
    /// share this context's buffer management.
    pub fn pack_buffers(&mut self, a_len: usize, b_len: usize) -> Result<(&mut [T], &mut [T])> {
        let a = self.a_scratch.get(a_len)?;
        let b = self.b_scratch.get(b_len)?;
        Ok((a, b))
    }

    /// Overrides the blocking parameters (validated).
    pub fn set_params(&mut self, params: BlockingParams) -> Result<()> {
        if params.mr != self.kernel.mr || params.nr != self.kernel.nr {
            return Err(CoreError::InvalidBlocking {
                context: format!(
                    "micro-tile {}x{} does not match kernel {}x{}",
                    params.mr, params.nr, self.kernel.mr, self.kernel.nr
                ),
            });
        }
        params.validate()?;
        self.params = params;
        Ok(())
    }
}

impl<T: Scalar> Default for GemmContext<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Validates GEMM operand shapes; shared by every driver in the workspace.
pub fn validate_shapes<T: Scalar>(
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    c: &MatMut<'_, T>,
) -> Result<(usize, usize, usize)> {
    let (m, ka) = (a.nrows(), a.ncols());
    let (kb, n) = (b.nrows(), b.ncols());
    let (mc_, nc_) = (c.nrows(), c.ncols());
    if ka != kb {
        return Err(CoreError::ShapeMismatch {
            context: format!("A is {m}x{ka} but B is {kb}x{n}"),
        });
    }
    if m != mc_ || n != nc_ {
        return Err(CoreError::ShapeMismatch {
            context: format!("C is {mc_}x{nc_} but A*B is {m}x{n}"),
        });
    }
    Ok((m, n, ka))
}

/// Scales `C *= beta` (`beta == 0` fills zeros, so NaN/Inf in uninitialized
/// output memory cannot leak through; `beta == 1` is a no-op).
///
/// No driver runs this ahead of a product at `beta == 0`: there the first
/// depth panel's micro-kernel *stores* its tile
/// ([`Kernel::store`](crate::microkernel::Kernel::store)) and `C` is written
/// once, never read. What is left for this pass is `beta` outside `{0, 1}`
/// and the `k == 0 || alpha == 0` early return, where `beta * C` is the whole
/// result.
pub fn scale_c<T: Scalar>(c: &mut MatMut<'_, T>, beta: T) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        c.fill(T::ZERO);
        return;
    }
    for j in 0..c.ncols() {
        for v in c.col_mut(j) {
            *v *= beta;
        }
    }
}

/// Serial GEMM: `C = alpha * A * B + beta * C` with context-held buffers.
pub fn gemm<T: Scalar>(
    ctx: &mut GemmContext<T>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> Result<()> {
    let (m, n, k) = validate_shapes(a, b, c)?;
    // Every `Err` below is returned with `C` as the caller left it.
    let p = ctx.params;
    p.validate()?;
    if m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        scale_c(c, beta);
        return Ok(());
    }
    let kernel = ctx.kernel;

    // Packing buffers sized for one block each; Scratch reuses allocations
    // across calls.
    let a_buf = ctx.a_scratch.get(p.packed_a_len())?;
    let b_buf = ctx.b_scratch.get(p.packed_b_len())?;

    // At `beta == 0` the first depth panel stores over `C` instead.
    let store_first = beta == T::ZERO;
    if !store_first {
        scale_c(c, beta);
    }

    let mut jc = 0;
    while jc < n {
        let nc_eff = p.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc_eff = p.kc.min(k - pc);
            let b_block = b.submatrix(pc, jc, kc_eff, nc_eff);
            pack::pack_b(&b_block, p.nr, b_buf);

            let mut ic = 0;
            while ic < m {
                let mc_eff = p.mc.min(m - ic);
                let a_block = a.submatrix(ic, pc, mc_eff, kc_eff);
                pack::pack_a(&a_block, alpha, p.mr, a_buf);

                let mut c_block = c.submatrix_mut(ic, jc, mc_eff, nc_eff);
                crate::macro_kernel::macro_kernel(
                    &kernel,
                    kc_eff,
                    a_buf,
                    b_buf,
                    &mut c_block,
                    None,
                    store_first && pc == 0,
                );
                ic += p.mc;
            }
            pc += p.kc;
        }
        jc += p.nc;
    }
    Ok(())
}

/// Serial GEMM with explicit blocking parameters (ablation entry point).
pub fn gemm_with_params<T: Scalar>(
    isa: IsaLevel,
    params: BlockingParams,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> Result<()> {
    let mut ctx = GemmContext::<T>::with_isa(isa);
    ctx.set_params(params)?;
    gemm(&mut ctx, alpha, a, b, beta, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference::naive_gemm;

    fn check_case<T: Scalar>(
        isa: IsaLevel,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        tol: f64,
    ) {
        if isa > IsaLevel::detect() {
            return;
        }
        let a = Matrix::<T>::random(m, k, 21);
        let b = Matrix::<T>::random(k, n, 22);
        let mut c = Matrix::<T>::random(m, n, 23);
        let mut c_ref = c.clone();

        let mut ctx = GemmContext::<T>::with_isa(isa);
        gemm(
            &mut ctx,
            T::from_f64(alpha),
            &a.as_ref(),
            &b.as_ref(),
            T::from_f64(beta),
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(
            T::from_f64(alpha),
            &a.as_ref(),
            &b.as_ref(),
            T::from_f64(beta),
            &mut c_ref.as_mut(),
        );
        let d = c.rel_max_diff(&c_ref);
        assert!(
            d < tol,
            "rel diff {d} for {m}x{n}x{k} alpha={alpha} beta={beta} isa={isa}"
        );
    }

    #[test]
    fn small_sizes_all_isas_f64() {
        for isa in IsaLevel::available() {
            for &(m, n, k) in &[
                (1usize, 1usize, 1usize),
                (2, 3, 4),
                (16, 8, 4),
                (17, 9, 5),
                (31, 33, 7),
                (64, 64, 64),
                (65, 63, 65),
            ] {
                check_case::<f64>(isa, m, n, k, 1.0, 1.0, 1e-10);
            }
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        for &(alpha, beta) in &[(0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (-1.0, 1.0), (0.5, -0.5)] {
            check_case::<f64>(IsaLevel::detect(), 33, 29, 17, alpha, beta, 1e-10);
        }
    }

    #[test]
    fn crosses_blocking_boundaries() {
        // Force tiny blocks so jc/pc/ic loops all iterate multiple times.
        let kernel = select_kernel::<f64>(IsaLevel::detect());
        let params = BlockingParams {
            mr: kernel.mr,
            nr: kernel.nr,
            mc: kernel.mr * 2,
            nc: kernel.nr * 3,
            kc: 8,
        };
        let (m, n, k) = (kernel.mr * 5 + 3, kernel.nr * 7 + 1, 37);
        let a = Matrix::<f64>::random(m, k, 31);
        let b = Matrix::<f64>::random(k, n, 32);
        let mut c = Matrix::<f64>::random(m, n, 33);
        let mut c_ref = c.clone();

        gemm_with_params(
            IsaLevel::detect(),
            params,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn f32_path() {
        for isa in IsaLevel::available() {
            check_case::<f32>(isa, 40, 24, 33, 1.0, 1.0, 1e-3);
        }
    }

    #[test]
    fn identity_multiplication() {
        let n = 50;
        let a = Matrix::<f64>::random(n, n, 44);
        let id = Matrix::<f64>::identity(n);
        let mut c = Matrix::<f64>::zeros(n, n);
        let mut ctx = GemmContext::<f64>::new();
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &id.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(a.max_abs_diff(&c) < 1e-12);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::<f64>::zeros(3, 4);
        let b = Matrix::<f64>::zeros(5, 6);
        let mut c = Matrix::<f64>::zeros(3, 6);
        let mut ctx = GemmContext::<f64>::new();
        let r = gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        );
        assert!(matches!(r, Err(CoreError::ShapeMismatch { .. })));
    }

    #[test]
    fn c_shape_mismatch_rejected() {
        let a = Matrix::<f64>::zeros(3, 4);
        let b = Matrix::<f64>::zeros(4, 6);
        let mut c = Matrix::<f64>::zeros(3, 5);
        let mut ctx = GemmContext::<f64>::new();
        assert!(gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut()
        )
        .is_err());
    }

    #[test]
    fn zero_dims_are_noops() {
        let a = Matrix::<f64>::zeros(0, 4);
        let b = Matrix::<f64>::zeros(4, 6);
        let mut c = Matrix::<f64>::zeros(0, 6);
        let mut ctx = GemmContext::<f64>::new();
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();

        // k == 0: C = beta*C only.
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::<f64>::filled(2, 2, 3.0);
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.5,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn context_reuse_many_sizes() {
        let mut ctx = GemmContext::<f64>::new();
        for &s in &[5usize, 64, 17, 130, 3] {
            let a = Matrix::<f64>::random(s, s, s as u64);
            let b = Matrix::<f64>::random(s, s, s as u64 + 1);
            let mut c = Matrix::<f64>::zeros(s, s);
            let mut c_ref = Matrix::<f64>::zeros(s, s);
            gemm(
                &mut ctx,
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

    #[test]
    fn strided_c_view() {
        // Write into a submatrix of a larger C to exercise non-trivial ldc.
        let (m, n, k) = (20, 12, 9);
        let a = Matrix::<f64>::random(m, k, 50);
        let b = Matrix::<f64>::random(k, n, 51);
        let mut big = Matrix::<f64>::filled(m + 8, n + 4, 9.0);
        {
            let mut cview = big.as_mut();
            let mut sub = cview.submatrix_mut(3, 2, m, n);
            let mut ctx = GemmContext::<f64>::new();
            gemm(&mut ctx, 1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut sub).unwrap();
        }
        // Border untouched.
        assert_eq!(big.get(0, 0), 9.0);
        assert_eq!(big.get(m + 7, n + 3), 9.0);
        // Interior correct.
        let mut c_ref = Matrix::<f64>::zeros(m, n);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        for j in 0..n {
            for i in 0..m {
                assert!((big.get(i + 3, j + 2) - c_ref.get(i, j)).abs() < 1e-10);
            }
        }
    }
}
