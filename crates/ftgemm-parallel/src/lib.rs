//! # ftgemm-parallel
//!
//! Cache-friendly multithreaded (FT-)GEMM — the paper's §2.3 / Fig. 1.
//!
//! ## Design (mirroring the paper on a persistent thread pool)
//!
//! The loop nest is `ftgemm_abft::nest` — the one the serial entries run on
//! a team of one — and the state it works in is an
//! [`ftgemm_abft::Workspace`], the one the serial entries use too. This
//! crate runs the nest on a pool region (`team.rs`: the region's worker
//! handle behind the nest's `Team` trait), as a team of the pool's size with
//! the pool context's kernel and blocking, which gives the paper's scheme:
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
//!
//! ## Batches
//!
//! [`par_batch_ft_gemm_timed`] distributes many small problems over the pool
//! instead, each item on the serial execute path in the `Workspace` of the
//! thread that takes it ([`BatchWorkspace`]: one per pool thread). A
//! protected item's call id is the batches' count of protected items at its
//! batch's start plus its rank among the batch's protected items, so a batch
//! replays on a fresh [`BatchWorkspace`] of any pool size. A served
//! request's id still depends on how the service batched it: replay by request
//! id needs a `BatchItem` that carries one.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod batch;
mod ctx;
mod team;

pub use batch::{par_batch_ft_gemm_timed, BatchItem, BatchTiming, BatchWorkspace};
pub use ctx::ParGemmContext;
pub use team::{par_ft_gemm_with_ws, par_gemm_with_ws, run_parallel, ParFtWorkspace};
