//! # ftgemm-parallel
//!
//! Cache-friendly multithreaded (FT-)GEMM — the paper's §2.3 / Fig. 1.
//!
//! ## Design (mirroring the paper on a persistent thread pool)
//!
//! * The `C` and `A` work is partitioned along the **M** dimension in
//!   `MR`-aligned static chunks; each thread owns its row slice for the
//!   whole call.
//! * The packed **`B~` buffer is shared** (it targets the shared L3) and is
//!   packed *cooperatively*: each depth panel's columns are split along N
//!   across threads.
//! * Each thread holds a **private packed `A~`** buffer (it targets the
//!   per-core L2), packed from the thread's own row slice.
//! * For FT: row checksums (`enc_row`/`ref_row`, the paper's C_c) live in
//!   the thread's row slice — fully local. Column checksums (the paper's
//!   C_r) need all rows, so per-thread partials go through a cross-thread
//!   **reduction** after a barrier, exactly like the paper's "extra stage of
//!   reduction … to compute the final column checksum B_c" (which this crate
//!   also performs for `bc`).
//! * After every depth panel all threads meet at a barrier and verification
//!   runs ("p-loop: verify"): each thread checks its own row checksums;
//!   thread 0 checks the reduced column checksums and performs correction.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod batch;
mod ctx;
mod par_ft_gemm;
mod par_gemm;
mod shared;
mod workspace;

pub use batch::{par_batch_ft_gemm_timed, BatchItem, BatchTiming, BatchWorkspace};
pub use ctx::ParGemmContext;
pub use par_ft_gemm::{par_ft_gemm_with_ws, run_parallel};
pub use par_gemm::par_gemm_with_ws;
pub use shared::SharedVec;
pub use workspace::ParFtWorkspace;
