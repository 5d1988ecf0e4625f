//! # ftgemm — facade crate
//!
//! Re-exports the full FT-GEMM workspace behind one dependency:
//!
//! * [`core`] — matrices, packing, micro-kernels, blocking
//! * [`abft`] — fused ABFT checksums, the GEMM loop nest and its serial
//!   entries, the shared [`FtPolicy`]
//! * [`parallel`] — multithreaded and batched (FT-)GEMM, and [`pool`], the
//!   persistent worker pool (OpenMP-style regions) they run on
//! * [`serve`] — batched GEMM serving: one request queue and dispatcher,
//!   per-request fault-tolerance policy
//! * [`net`] — TCP wire frontend: versioned binary protocol,
//!   server-resident operand handles, [`NetServer`]/[`NetClient`]
//! * [`faults`] — deterministic soft-error injection (`abft::faults`)
//! * [`baselines`] — comparator GEMMs: the library stand-in tiers (this
//!   crate's own module) beside `core::reference`'s oracles
//!
//! ## One-shot and planned calls — the [`api`] module
//!
//! [`GemmOp`] describes a problem; [`GemmOp::plan`] validates it once and
//! returns a [`GemmPlan`] whose [`run`](GemmPlan::run) executes it with
//! zero per-call allocation, serial or parallel:
//!
//! ```
//! use ftgemm::{Exec, FtPolicy, GemmOp, Matrix};
//!
//! let a = Matrix::<f64>::random(96, 64, 1);
//! let b = Matrix::<f64>::random(64, 80, 2);
//! let mut c = Matrix::<f64>::zeros(96, 80);
//! let mut plan = GemmOp::new(&a, &b)
//!     .ft(FtPolicy::DetectCorrect)
//!     .plan(Exec::Auto)
//!     .unwrap();
//! let report = plan.run(&mut c.as_mut()).unwrap();
//! assert_eq!(report.detected, 0);
//! ```
//!
//! Underneath, a plan holds one [`Workspace`] and runs the one execute
//! path on it, [`abft::execute`], as a team of one or as a team of the
//! pool's size — the same function [`GemmBatch`] items and
//! [`GemmService`] dispatchers call, on the same workspace type — and under
//! it one loop nest ([`abft::nest`]), so `DetectCorrect` rolls back and
//! recomputes on every path. [`gemm`](fn@gemm) is that nest's unprotected serial entry, on a
//! [`Workspace`] too: every packing buffer has that one owner.
//!
//! ## Serving many requests
//!
//! [`GemmService`] accepts concurrent [`GemmRequest`]s, coalesces small
//! problems into batched parallel regions, routes large ones to the
//! matrix-parallel driver, and applies the same per-request [`FtPolicy`]
//! the one-shot API uses. Build requests with [`GemmRequest::new`] and its
//! `with_*` setters (or [`GemmOp::to_request`]). Three submit
//! surfaces feed one queue and one dispatcher: blocking handles
//! ([`submit`](serve::GemmService::submit)), waker-based futures
//! ([`submit_async`](serve::GemmService::submit_async) — no parked thread
//! per request), and a completion-channel stream
//! ([`submit_streamed`](serve::GemmService::submit_streamed)). See
//! `examples/serving_throughput.rs` and `examples/async_serving.rs`.
//!
//! The dispatcher runs every request on one worker pool of
//! `ServiceConfig::threads` threads (`0` = one per available core), the
//! paper's one-pool shape: no thread is pinned and no page is bound.
//!
//! For the crate-by-crate map and the request lifecycle, read
//! `docs/ARCHITECTURE.md`.

pub use ftgemm_abft as abft;
pub use ftgemm_abft::faults;
pub use ftgemm_abft::parallel;
pub use ftgemm_abft::parallel::pool;
pub use ftgemm_core as core;
pub use ftgemm_net as net;
pub use ftgemm_obs as obs;
pub use ftgemm_serve as serve;

pub mod api;
pub mod baselines;

pub use api::{AsMatRef, Exec, GemmBatch, GemmOp, GemmPlan};
pub use ftgemm_abft::faults::FaultInjector;
pub use ftgemm_abft::parallel::{BatchItem, BatchWorkspace, ParFtWorkspace, ParGemmContext};
pub use ftgemm_abft::{gemm, FtConfig, FtPolicy, FtReport, FtResult, GemmContext, Workspace};
pub use ftgemm_core::{MatMut, MatRef, Matrix};
pub use ftgemm_net::{NetClient, NetServer, NetServerConfig, NetSubmit};
pub use ftgemm_serve::{
    GemmRequest, GemmResponse, GemmService, RoutePath, RoutingPolicy, ServiceConfig,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_mismatch_surfaces_at_plan_time() {
        let a = Matrix::<f64>::zeros(3, 4);
        let b = Matrix::<f64>::zeros(5, 6);
        assert!(matches!(
            GemmOp::new(&a, &b).plan(Exec::Serial),
            Err(ftgemm_abft::FtError::Core(
                ftgemm_core::CoreError::ShapeMismatch { .. }
            ))
        ));
    }
}
