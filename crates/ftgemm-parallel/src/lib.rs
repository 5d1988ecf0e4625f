//! # ftgemm-parallel
//!
//! Cache-friendly multithreaded (FT-)GEMM — the paper's §2.3 / Fig. 1.
//!
//! ## Design (mirroring the paper on a persistent thread pool)
//!
//! The loop nest is `ftgemm_abft::nest` — the one the serial entries run on
//! a team of one. This crate runs it on a pool region (`team.rs`: the
//! region's worker handle behind the nest's `Team` trait, and the view of a
//! [`ParFtWorkspace`] it works in), which gives the paper's scheme:
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
//!   runs ("p-loop: verify") on thread 0, which corrects in place and
//!   publishes continue / roll back / abort to the team; on a rollback
//!   every thread restores its own row slab and all replay the column
//!   block, so `DetectCorrect` means the same here as on one thread.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod batch;
mod ctx;
mod team;
mod workspace;

pub use batch::{par_batch_ft_gemm_timed, BatchItem, BatchTiming, BatchWorkspace};
pub use ctx::ParGemmContext;
pub use team::{par_ft_gemm_with_ws, par_gemm_with_ws, run_parallel};
pub use workspace::ParFtWorkspace;
