//! The unified GEMM operation API: describe once, plan once, execute many.
//!
//! The driver crates expose context- and workspace-taking entry points
//! (`ft_gemm_with_ctx`, `par_ft_gemm_with_ws`, `par_batch_ft_gemm_timed`)
//! with two context types callers thread by hand. This module folds them
//! behind one typed builder in the spirit of faer-rs's operation builders:
//!
//! ```
//! use ftgemm::api::{Exec, GemmOp};
//! use ftgemm::{FtPolicy, Matrix};
//!
//! let a = Matrix::<f64>::random(64, 48, 1);
//! let b = Matrix::<f64>::random(48, 40, 2);
//! let mut c = Matrix::<f64>::zeros(64, 40);
//!
//! // Describe the problem, validate + preallocate once, run many times.
//! let mut plan = GemmOp::new(&a, &b)
//!     .alpha(1.0)
//!     .beta(0.0)
//!     .ft(FtPolicy::DetectCorrect)
//!     .plan(Exec::Auto)
//!     .unwrap();
//! for _ in 0..3 {
//!     let report = plan.run(&mut c.as_mut()).unwrap();
//!     assert_eq!(report.detected, 0);
//! }
//! ```
//!
//! * [`GemmOp`] — a problem description: operands, `alpha`/`beta`, and one
//!   [`FtPolicy`](crate::FtPolicy) shared with the serving layer.
//! * [`Exec`] — where it runs: [`Serial`](Exec::Serial),
//!   [`Parallel`](Exec::Parallel) on a caller's pool, or
//!   [`Auto`](Exec::Auto), which routes through the same flops cutoff
//!   [`GemmService`](crate::GemmService) uses.
//! * [`GemmPlan`] — shapes validated, blocking parameters fixed, checksum
//!   workspaces and thread context preallocated; repeated
//!   [`run`](GemmPlan::run) calls perform **zero heap allocation**.
//! * [`GemmBatch`] — the batched driver under the same roof: many small
//!   problems through one parallel region with reusable per-thread
//!   workspaces.

mod batch;
mod op;
mod plan;

pub use batch::GemmBatch;
pub use op::{AsMatRef, GemmOp};
pub use plan::{Exec, GemmPlan};
