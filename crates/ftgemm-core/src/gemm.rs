//! What every GEMM entry shares below the loop nest: the reusable
//! [`GemmContext`] (kernel, blocking, packing scratch), operand shape
//! validation and the `C *= beta` pass.
//!
//! The loop nest itself — the five-loop GotoBLAS structure (jc / pc / ic
//! around the macro kernel), plain or with the ABFT operations engaged — is
//! `ftgemm_abft::nest`; `ftgemm_abft::gemm` is its plain serial entry on a
//! [`GemmContext`].

use crate::aligned::Scratch;
use crate::cpu::{CacheInfo, IsaLevel};
use crate::error::{CoreError, Result};
use crate::matrix::{MatMut, MatRef};
use crate::microkernel::{select_kernel, Kernel};
use crate::params::BlockingParams;
use crate::scalar::Scalar;

/// Reusable state for repeated plain serial GEMM calls: the selected
/// micro-kernel, blocking parameters, and the packing scratch buffers.
///
/// The scratch serves `ftgemm_abft::gemm`, the nest's plain serial entry,
/// alone; every other entry runs in an `ftgemm_abft::Workspace`, which
/// takes its kernel and blocking from a context like this one. Creating a
/// context is cheap but allocating packing buffers is not; reuse one
/// context across calls of similar size (as the benchmarks do).
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
    /// element counts — what a serial entry hands the loop nest.
    pub fn pack_buffers(&mut self, a_len: usize, b_len: usize) -> Result<(&mut [T], &mut [T])> {
        let a = self.a_scratch.get(a_len)?;
        let b = self.b_scratch.get(b_len)?;
        Ok((a, b))
    }

    /// Elements the `A~` and `B~` scratch buffers hold right now: the largest
    /// [`pack_buffers`](Self::pack_buffers) request so far, or more.
    pub fn pack_capacity(&self) -> (usize, usize) {
        (self.a_scratch.capacity(), self.b_scratch.capacity())
    }

    /// Overrides the blocking parameters (validated).
    pub fn set_params(&mut self, params: BlockingParams) -> Result<()> {
        params.validate_for(&self.kernel)?;
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
