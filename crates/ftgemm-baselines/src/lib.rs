//! # ftgemm-baselines
//!
//! Comparator GEMM implementations for the paper's evaluation.
//!
//! The paper benchmarks against Intel MKL 2020.2, OpenBLAS 0.3.13 and BLIS
//! 0.8.0. Those libraries are not linkable here (closed-source / external C
//! toolchains), so each is stood in by an in-repo packed/blocked GEMM pinned
//! to a distinct optimization tier, preserving the *relative* structure of
//! the comparison (the paper mapping in `docs/ARCHITECTURE.md`, "How this
//! follows the paper", points here):
//!
//! | paper library | stand-in | tier |
//! |---|---|---|
//! | BLIS (slowest of the three in the paper) | [`ReferenceGemm::blis`] | packed + blocked, portable auto-vectorized micro-kernel |
//! | OpenBLAS | [`ReferenceGemm::openblas`] | packed + blocked, AVX2+FMA micro-kernel |
//! | MKL (strongest comparator) | [`ReferenceGemm::mkl`] | packed + blocked, best SIMD tier (AVX-512 when available) |
//!
//! Names carry a `*` suffix in reports to mark them as stand-ins.
//!
//! Also provided:
//! * [`NaiveGemm`] — the triple-loop oracle (sanity floor);
//! * [`BlockedGemm`] — cache-blocked but unpacked/unvectorized (shows why
//!   packing matters).
//!
//! The "traditional" unfused-ABFT baseline of §2.2 is not a separate
//! implementation: it is the FT driver under `FusionConfig::UNFUSED`
//! (`ftgemm_abft::FtConfig::unfused()`), which is what `ftgemm-bench`'s
//! `paper` sweep runs.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod blocked;
mod naive;
mod tiers;

pub use blocked::BlockedGemm;
pub use naive::NaiveGemm;
pub use tiers::{ReferenceGemm, ReferenceParGemm, Tier};
