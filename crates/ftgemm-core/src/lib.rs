//! # ftgemm-core
//!
//! Cache-blocked, SIMD-dispatched GEMM substrate for the FT-GEMM
//! reproduction (Wu et al., *FT-GEMM: A Fault Tolerant High Performance GEMM
//! Implementation on x86 CPUs*, HPDC '23).
//!
//! This crate implements the pieces of the paper's **baseline**
//! high-performance GEMM ("FT-GEMM: Ori"), a GotoBLAS-style algorithm:
//!
//! * packing of `A` into MR-row micro-panels and `B` into NR-column
//!   micro-panels ([`pack`]),
//! * a macro kernel iterating micro-kernels over an `MC x NC` block of `C`
//!   ([`macro_kernel`]),
//! * runtime-dispatched micro-kernels: portable (auto-vectorized), AVX2+FMA
//!   and AVX-512F `std::arch` implementations ([`microkernel`]),
//! * cache-driven blocking parameters `MC`, `NC`, `KC` ([`params`]).
//!
//! The micro-kernels optionally accumulate **register-level row/column sums
//! of the updated `C` tile**. This is the hook the fused ABFT layer
//! (`ftgemm-abft`) uses to obtain reference checksums "for free", which is
//! the core idea of the paper: the O(n^2) checksum traffic is fused into
//! memory traffic GEMM performs anyway.
//!
//! ## Quick start
//!
//! The loop nest that drives these pieces lives one crate up
//! (`ftgemm_abft::nest`), and so does the one owner of its packing buffers,
//! `ftgemm_abft::Workspace`; `ftgemm_abft::gemm` — `ftgemm::gemm` through
//! the facade — is its plain serial entry on one:
//!
//! ```text
//! let mut ws = Workspace::<f64>::new();
//! gemm(&mut ws, 1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut())?;
//! ```
//!
//! What this crate does on its own is a step of that nest, e.g. packing a
//! block of `A` into an `A~` buffer:
//!
//! ```
//! use ftgemm_core::{pack, select_kernel, IsaLevel, Matrix};
//!
//! let mr = select_kernel::<f64>(IsaLevel::detect()).mr;
//! let a = Matrix::<f64>::from_fn(mr, 4, |i, j| (i + 10 * j) as f64);
//! let mut a_buf = vec![0.0; mr * 4];
//! pack::pack_a(&a.as_ref(), 1.0, mr, &mut a_buf);
//! // An MR-row micro-panel is stored one column of the block after another.
//! assert_eq!(a_buf[mr + 2], a.get(2, 1));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod aligned;
pub mod cpu;
pub mod error;
pub mod gemm;
pub mod macro_kernel;
pub mod matrix;
pub mod microkernel;
pub mod pack;
pub mod params;
pub mod reference;
pub mod scalar;

pub use aligned::AlignedVec;
pub use cpu::{CacheInfo, IsaLevel};
pub use error::{CoreError, Result};
pub use matrix::{MatMut, MatRef, Matrix};
pub use microkernel::{select_kernel, Kernel};
pub use params::BlockingParams;
pub use scalar::Scalar;
