//! What every GEMM entry shares below the loop nest: operand shape
//! validation and the `C *= beta` pass.
//!
//! The loop nest itself — the five-loop GotoBLAS structure (jc / pc / ic
//! around the macro kernel), plain or with the ABFT operations engaged — is
//! `ftgemm_abft::nest`, and the one owner of its packing buffers is
//! `ftgemm_abft::Workspace`; `ftgemm_abft::gemm` is the nest's plain serial
//! entry on one.

use crate::error::{CoreError, Result};
use crate::matrix::{MatMut, MatRef};
use crate::scalar::Scalar;

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
