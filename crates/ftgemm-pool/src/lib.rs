//! # ftgemm-pool
//!
//! A persistent worker-thread pool with OpenMP-style **parallel regions**,
//! built for the parallel FT-GEMM of the paper (§2.3 / Fig. 1).
//!
//! The paper's threaded algorithm is structured as one `#pragma omp
//! parallel` region containing cooperative packing, barriers, and per-thread
//! private buffers. Rayon-style fork-join does not map cleanly onto that
//! (threads must meet at barriers *inside* one long-lived region, keeping
//! thread-private state across phases), so this crate provides the runtime
//! the C code gets from OpenMP:
//!
//! * [`ThreadPool::run`] — execute a closure on every thread of the pool
//!   simultaneously (the parallel region); returns when all threads finish;
//! * [`WorkerCtx::barrier`] — sense-reversing barrier across the region;
//! * [`partition_aligned`] — static loop partitioning with alignment (the
//!   `M`-dimension split must respect the micro-tile height `MR`).
//!
//! That is all of the paper's threaded runtime, and all this crate holds: a
//! pool knows nothing of memory domains, and no worker is pinned to a CPU.
//!
//! Workers park on a condvar between regions, so an idle pool costs nothing;
//! inside a region, barriers spin briefly and then yield.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod barrier;
mod partition;
mod pool;

pub use barrier::SenseBarrier;
pub use partition::{partition_aligned, partition_even};
pub use pool::{PoolStats, ThreadPool, WorkerCtx};
