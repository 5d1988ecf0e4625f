//! Observability for the FT-GEMM serving stack: a lock-free metrics
//! registry, request-lifecycle tracing, and a Prometheus `/metrics`
//! endpoint served over [`std::net`].
//!
//! Three layers, each usable alone:
//!
//! * **Primitives** ([`Counter`], [`Gauge`], [`Histogram`]) — relaxed
//!   atomics only; recording a latency sample is three `fetch_add`s with
//!   no locks or allocation on the hot path.
//! * **Registry** ([`Registry`]) — names, help text, and label sets,
//!   rendered as one Prometheus text exposition ([`Exposition`]); a sample
//!   is a primitive the caller updates or a *read cell*
//!   ([`Registry::read_with`]) evaluated at render time. The
//!   process-wide [`Registry::global`] backs the one-line
//!   [`global_counter!`] / [`global_gauge!`] instrumentation macros;
//!   scoped registries (one per service) render into the same scrape.
//! * **Endpoint** ([`ObsServer`]) — a tiny HTTP/1.0 server thread bound
//!   to a configured address, answering `GET /metrics`, `/healthz`, and
//!   `/trace`. It sits on [`AcceptLoop`], the bind / accept-thread /
//!   stop-and-wake skeleton the wire server in `ftgemm-net` shares.
//!
//! Request lifecycles are traced into one ring buffer per service
//! ([`Tracelog`]): `admitted → queued → dispatched(path) → computed
//! → verified/corrected → completed | failed`, each stamped with
//! monotonic nanoseconds and dumpable at `/trace`.
//!
//! The crate also owns the workspace's single percentile definition
//! ([`percentile`] / [`nearest_rank`]); [`Histogram::quantile`] uses the
//! same nearest-rank rule, which pins the bucketed-vs-exact agreement
//! property the test suite checks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

mod accept;
mod expo;
mod metrics;
mod percentile;
mod registry;
mod server;
mod trace;

pub use accept::{AcceptLoop, StopHandle};
pub use expo::{Exposition, MetricKind};
pub use metrics::{bucket_bounds, Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use percentile::{nearest_rank, percentile};
pub use registry::Registry;
pub use server::{Handler, ObsRoutes, ObsServer};
pub use trace::{TraceEvent, TracePath, TraceRecord, Tracelog};
