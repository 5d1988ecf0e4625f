//! # ftgemm-blas
//!
//! FT-BLAS companion routines: Level-1 and Level-2 BLAS with **DMR** (dual
//! modular redundancy) fault tolerance.
//!
//! FT-GEMM is built within the FT-BLAS framework (Zhai et al., ICS '21 —
//! reference \[4\] of the paper), which splits routines by arithmetic
//! intensity: compute-bound GEMM gets ABFT checksums (see `ftgemm-abft`),
//! while **memory-bound** Level-1/2 routines get DMR — every arithmetic
//! result is computed twice and compared, and a mismatch triggers a
//! recompute (a third vote). The paper's §3 measurements run "with fault
//! tolerant DMR and ABFT operating", so a faithful reproduction carries
//! both layers.
//!
//! FT-BLAS implements DMR at the instruction level inside assembly kernels
//! (duplicated registers); in safe-ish Rust we emulate it at **block**
//! granularity: each block of the vector is computed twice into independent
//! accumulators/temporaries, compared exactly (identical instruction
//! ordering makes clean duplicates bit-identical), and recomputed on
//! mismatch. The substitution preserves the detection/correction semantics
//! and the doubled-arithmetic cost profile; see the crate map in
//! `docs/ARCHITECTURE.md`.
//!
//! Fault injection hooks corrupt one copy of a duplicated block, exercising
//! the detection path deterministically.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dmr;
pub mod level1;
pub mod level1_ft;
pub mod level2;
pub mod level2_ft;
pub mod level3;

pub use dmr::{DmrConfig, DmrReport};
