//! # ftgemm-core
//!
//! Cache-blocked, SIMD-dispatched GEMM substrate for the FT-GEMM
//! reproduction (Wu et al., *FT-GEMM: A Fault Tolerant High Performance GEMM
//! Implementation on x86 CPUs*, HPDC '23).
//!
//! This crate implements the paper's **baseline** high-performance GEMM
//! ("FT-GEMM: Ori"): a GotoBLAS-style algorithm with
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
//! ```
//! use ftgemm_core::{Matrix, gemm, GemmContext};
//!
//! let m = 64;
//! let a = Matrix::<f64>::from_fn(m, m, |i, j| (i + j) as f64);
//! let b = Matrix::<f64>::identity(m);
//! let mut c = Matrix::<f64>::zeros(m, m);
//!
//! let mut ctx = GemmContext::<f64>::new();
//! gemm(&mut ctx, 1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut());
//! assert_eq!(c.get(3, 5), a.get(3, 5));
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
pub use gemm::{gemm, gemm_with_params, GemmContext};
pub use matrix::{MatMut, MatRef, Matrix};
pub use microkernel::{select_kernel, Kernel};
pub use params::BlockingParams;
pub use scalar::Scalar;
