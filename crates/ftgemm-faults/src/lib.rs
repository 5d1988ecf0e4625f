//! # ftgemm-faults
//!
//! Deterministic, source-level soft-error injection for the FT-GEMM
//! reproduction.
//!
//! The paper (§3.2) validates fault tolerance by injecting computing errors
//! *at the source-code level* into the GEMM kernels — external injection
//! tools slow the native program too much. This crate reproduces that
//! methodology:
//!
//! * an [`ErrorModel`] describes how a value is corrupted (bit flip,
//!   additive offset, scaling) — the fail-continue "soft errors" of §1;
//! * a [`Rate`] describes when errors fire (fixed count per call,
//!   probability per site, or errors-per-second wall-clock rates for the
//!   "hundreds of errors injected per minute" experiments);
//! * a [`FaultInjector`] owns the model, a seed, and global statistics;
//!   compute drivers open one [`SiteStream`] per call (or per thread) and
//!   poll it once per injection site (one site = one macro-kernel tile
//!   update);
//! * [`InjectionStats`] counts injected/detected/corrected/unrecoverable
//!   events across threads.
//!
//! Everything is deterministic given the seed and the site visit order (for
//! count/probability rates), so fault-tolerance tests can assert *exact*
//! correction.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod campaign;
mod injector;
mod model;
mod stats;

pub use campaign::{Campaign, CampaignOutcome, CampaignReport};
pub use injector::{FaultInjector, SiteStream};
pub use model::{ErrorEvent, ErrorModel, Rate};
pub use stats::InjectionStats;
