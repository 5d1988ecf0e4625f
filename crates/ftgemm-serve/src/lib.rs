//! # ftgemm-serve
//!
//! A batched GEMM serving subsystem on top of the FT-GEMM stack: the layer
//! that turns single-call fault-tolerant GEMM into a service that can absorb
//! heavy concurrent traffic.
//!
//! ## Architecture
//!
//! ```text
//! submit() / submit_streamed()  x N threads
//!     │  two wrappers over one submit path (validate, admit, trace,
//!     │  push); the push never blocks: it counts the request and
//!     │  appends it to the one unbounded FIFO, or fails once closed
//!     ▼
//! Queue ──► the dispatcher thread ──► route by problem size
//!                                        │
//!                      small (≤ cutoff)  │  large (> cutoff)
//!                 ┌─────────────────────┐│┌──────────────────────┐
//!                 │ coalesce ≤ max_batch│││ execute on the pool  │
//!                 │ par_batch_ft_gemm_  │││ (matrix-parallel on  │
//!                 │ timed (batch-       │││  the service's one   │
//!                 │  parallel, per-     │││  workspace)          │
//!                 │  thread reused      ││└──────────────────────┘
//!                 │  packed workspaces) ││
//!                 └─────────────────────┘│   one persistent pool
//!                                        ▼
//!                       finish (the one completion site) → deliver
//!                       into the request's completion channel:
//!                       queue + condvar + fire waker
//!                                 │                    │
//!                    RequestHandle::wait     Completions::recv (blocking)
//!                       (blocking)           or .next().await (any executor)
//! ```
//!
//! * **Batching.** Small GEMMs cannot amortize a parallel region each; the
//!   scheduler coalesces up to `max_batch` of them and distributes the
//!   *batch* across the pool
//!   ([`ftgemm_abft::parallel::par_batch_ft_gemm_timed`]), each item
//!   running the serial execute path in that pool thread's
//!   reused [`ftgemm_abft::Workspace`]. Large GEMMs run
//!   [`ftgemm_abft::execute`] on the service's one workspace, grown to
//!   the largest request served. Coalesced batches run before the
//!   sweep's large requests so a small request never queues behind a long
//!   matrix-parallel run it arrived with.
//! * **One routing rule.** A request of at most the cutoff's multiply-adds
//!   takes the batched path, a larger one the matrix-parallel path. The
//!   cutoff is one constant fixed at construction ([`RoutingPolicy::Fixed`],
//!   default [`DEFAULT_SMALL_FLOPS_CUTOFF`]). Each path sums the nanoseconds
//!   and flops it serves; deadline admission control predicts a request's
//!   completion from its own path's `Σns/Σflops`.
//! * **Two submit surfaces, one rendezvous.** Every admitted request
//!   completes into a [`completion_channel`]. `submit_streamed` takes the
//!   caller's channel, drained blocking ([`Completions::recv`]) or async
//!   ([`Completions::next`]: the delivery fires the task's waker — zero
//!   parked threads per request, any executor; a one-request channel's
//!   `next()` is that request's future); `submit` builds a one-request
//!   channel and wraps its end in a blocking [`RequestHandle`]
//!   (`wait`/`try_wait`/`wait_timeout`), and `run` waits on it at once.
//! * **One queue, one dispatcher, one pool.** Every request lands in one
//!   FIFO queue; one dispatcher thread drains it onto one persistent
//!   worker pool of [`ServiceConfig::threads`] threads (`0` =
//!   [`std::thread::available_parallelism`]), the paper's §2.3 shape. No
//!   thread is pinned and no page is bound.
//! * **Blocked callers compute.** A caller blocked in
//!   [`Completions::recv`] (so [`RequestHandle::wait`] and
//!   [`GemmService::run`]) while the dispatcher is busy runs the small
//!   requests at the queue's front itself, one per turn, through the same
//!   batch driver, on its own thread; it stops at the first large request,
//!   so FIFO order holds. A caller whose result has arrived returns after
//!   at most one such turn. The async form and the timed waits only park.
//! * **Per-request fault tolerance.** Every request carries an [`FtPolicy`]
//!   (`Off` / `Detect` / `DetectCorrect`) mapped onto the paper's
//!   [`FtConfig`](ftgemm_abft::FtConfig); each response carries its own
//!   [`FtReport`](ftgemm_abft::FtReport). A request runs exactly the
//!   policy it asked for: the service never raises or lowers it, and an
//!   `Off` request verifies nothing and reports all zeros.
//! * **Deadlines.** A request may carry a relative deadline
//!   ([`GemmRequest::with_deadline`]). Admission predicts its completion
//!   from the queue's flops backlog at its path's measured ns/flop and
//!   turns an infeasible one away with [`ServeError::DeadlineExceeded`];
//!   the dispatcher sheds one that expires while queued with the same
//!   error. Deadlines never reorder the queue.
//! * **Observability.** [`GemmService::stats`] reports throughput, queue
//!   depth, batch occupancy, per-surface submission counts, per-thread
//!   batch busy time (occupancy imbalance),
//!   corrected-error counters, and worker-pool activity
//!   ([`ftgemm_abft::parallel::pool::PoolStats`]). Setting
//!   [`ServiceConfig::obs_addr`] additionally serves the same numbers as
//!   Prometheus text exposition at `GET /metrics` (a render of the
//!   service's one [`ftgemm_obs::Registry`], whose cells the snapshot
//!   reads too: family names and kinds are pinned by the `obs_endpoint`
//!   test, and a family's meaning is its `# HELP` line), records
//!   each request's lifecycle (`admitted → queued → dispatched → computed
//!   → verified/corrected → completed|failed`) into one bounded trace
//!   ring dumped at `/trace`, and answers `/healthz` — all from
//!   one `std::net` endpoint
//!   thread, with zero recording cost when the address is unset.
//!
//! ## Example
//!
//! ```
//! use ftgemm_core::Matrix;
//! use ftgemm_serve::{FtPolicy, GemmRequest, GemmService, ServiceConfig};
//!
//! let service = GemmService::<f64>::new(ServiceConfig {
//!     threads: 2,
//!     ..ServiceConfig::default()
//! });
//! let a = Matrix::<f64>::random(48, 32, 1);
//! let b = Matrix::<f64>::random(32, 40, 2);
//! let handle = service
//!     .submit(GemmRequest::new(a, b).with_policy(FtPolicy::DetectCorrect))
//!     .unwrap();
//! let resp = handle.wait().unwrap();
//! assert_eq!(resp.c.nrows(), 48);
//! assert_eq!(resp.report.detected, 0);
//! ```
//!
//! Draining a burst through a completion channel (no thread parked per
//! request; the same stream also has an async `next()`):
//!
//! ```
//! use ftgemm_core::Matrix;
//! use ftgemm_serve::{completion_channel, GemmRequest, GemmService, ServiceConfig};
//!
//! let service = GemmService::<f64>::new(ServiceConfig {
//!     threads: 2,
//!     ..ServiceConfig::default()
//! });
//! let (sink, mut completions) = completion_channel::<f64>();
//! for seed in 0..8 {
//!     let a = Matrix::<f64>::random(24, 16, seed);
//!     let b = Matrix::<f64>::random(16, 20, seed + 100);
//!     service.submit_streamed(GemmRequest::new(a, b), &sink).unwrap();
//! }
//! let mut done = 0;
//! while let Some(completion) = completions.recv() {
//!     assert!(completion.result.is_ok());
//!     done += 1;
//! }
//! assert_eq!(done, 8);
//! ```

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

mod handle;
mod queue;
mod request;
pub mod routing;
mod service;
mod stats;
mod stream;

/// The workspace-wide fault-tolerance policy (defined in
/// [`ftgemm_abft::policy`] so the one-shot drivers, the facade's
/// `GemmOp`/`GemmPlan` builder, and this serving layer all share one type).
pub use ftgemm_abft::FtPolicy;

pub use handle::RequestHandle;
pub use request::{GemmRequest, GemmResponse, Operand, ServeError};
pub use routing::{RoutePath, RoutingPolicy};
pub use service::{GemmService, ServiceConfig, DEFAULT_SMALL_FLOPS_CUTOFF};
pub use stats::StatsSnapshot;
pub use stream::{completion_channel, Completion, CompletionSink, Completions, Next};

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;

    fn tiny_service() -> GemmService<f64> {
        GemmService::new(ServiceConfig {
            threads: 2,
            max_batch: 4,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn single_request_round_trip() {
        let service = tiny_service();
        let a = Matrix::<f64>::random(20, 12, 1);
        let b = Matrix::<f64>::random(12, 16, 2);
        let mut expected = Matrix::<f64>::zeros(20, 16);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());

        let resp = service.run(GemmRequest::new(a, b)).unwrap();
        assert!(resp.c.rel_max_diff(&expected) < 1e-12);
        assert!(resp.batched);
        assert!(resp.report.verifications > 0);
    }

    #[test]
    fn shape_mismatch_rejected_at_submit() {
        let service = tiny_service();
        let req = GemmRequest {
            alpha: 1.0,
            a: Matrix::<f64>::zeros(4, 4).into(),
            b: Matrix::<f64>::zeros(3, 4).into(),
            beta: 0.0,
            c: Matrix::<f64>::zeros(4, 4),
            policy: FtPolicy::Off,
            injector: None,
            deadline: None,
        };
        assert!(matches!(service.submit(req), Err(ServeError::Shape(_))));
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let service = tiny_service();
        let stats = service.shutdown();
        assert_eq!(stats.submitted, stats.completed + stats.failed);
    }

    #[test]
    fn stats_reflect_traffic() {
        let service = tiny_service();
        let mut handles = Vec::new();
        for i in 0..10 {
            let a = Matrix::<f64>::random(16, 16, i);
            let b = Matrix::<f64>::random(16, 16, i + 100);
            handles.push(service.submit(GemmRequest::new(a, b)).unwrap());
        }
        for h in handles {
            h.wait().unwrap();
        }
        let snap = service.stats();
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.completed, 10);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.batched_requests, 10);
        assert!(snap.batches >= 3, "max_batch=4 over 10 requests: {snap:?}");
        assert!(snap.mean_batch_occupancy > 1.0);
        assert!(snap.requests_per_sec > 0.0);
        assert!(snap.pool.regions > 0);
    }

    #[test]
    fn large_requests_take_matrix_parallel_path() {
        let service = GemmService::<f64>::new(ServiceConfig {
            threads: 2,
            // Everything bigger than 8^3 is "large".
            routing: RoutingPolicy::Fixed(2 * 8 * 8 * 8),
            ..ServiceConfig::default()
        });
        let a = Matrix::<f64>::random(64, 32, 5);
        let b = Matrix::<f64>::random(32, 48, 6);
        let mut expected = Matrix::<f64>::zeros(64, 48);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
        let resp = service.run(GemmRequest::new(a, b)).unwrap();
        assert!(!resp.batched);
        assert!(resp.c.rel_max_diff(&expected) < 1e-10);
        assert_eq!(service.stats().direct_large, 1);
    }

    #[test]
    fn off_policy_reports_zero() {
        let service = tiny_service();
        let a = Matrix::<f64>::random(10, 10, 3);
        let b = Matrix::<f64>::random(10, 10, 4);
        let resp = service
            .run(GemmRequest::new(a, b).with_policy(FtPolicy::Off))
            .unwrap();
        assert_eq!(resp.report, Default::default());
    }

    #[test]
    fn one_request_channel_round_trip_matches_reference() {
        let service = tiny_service();
        let a = Matrix::<f64>::random(20, 12, 11);
        let b = Matrix::<f64>::random(12, 16, 12);
        let mut expected = Matrix::<f64>::zeros(20, 16);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());

        let (sink, mut completions) = completion_channel::<f64>();
        let id = service
            .submit_streamed(GemmRequest::new(a, b), &sink)
            .unwrap();
        assert_eq!(completions.in_flight(), 1);
        let done = completions.recv().unwrap();
        assert_eq!(done.id, id);
        assert!(done.result.unwrap().c.rel_max_diff(&expected) < 1e-12);
        assert_eq!(completions.in_flight(), 0);

        let snap = service.stats();
        assert_eq!(snap.submitted_streamed, 1);
        assert_eq!(snap.submitted_sync, 0);
    }

    #[test]
    fn dropped_channel_still_runs_request() {
        let service = tiny_service();
        let a = Matrix::<f64>::random(12, 12, 1);
        let b = Matrix::<f64>::random(12, 12, 2);
        let (sink, completions) = completion_channel::<f64>();
        service
            .submit_streamed(GemmRequest::new(a, b), &sink)
            .unwrap();
        drop((sink, completions));
        let stats = service.shutdown(); // drains the still-queued request
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn submit_surfaces_counted_separately() {
        let service = tiny_service();
        let (sink, mut completions) = completion_channel::<f64>();
        let mk = |s: u64| {
            (
                Matrix::<f64>::random(10, 10, s),
                Matrix::<f64>::random(10, 10, s + 50),
            )
        };
        let (a, b) = mk(1);
        let h = service.submit(GemmRequest::new(a, b)).unwrap();
        let (a, b) = mk(2);
        service
            .submit_streamed(GemmRequest::new(a, b), &sink)
            .unwrap();

        h.wait().unwrap();
        assert!(completions.recv().unwrap().result.is_ok());
        assert!(completions.recv().is_none());

        let snap = service.stats();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.submitted_sync, 1);
        assert_eq!(snap.submitted_streamed, 1);
    }

    #[test]
    fn streamed_submit_rejects_shape_error_without_registering() {
        let service = tiny_service();
        let bad = GemmRequest {
            alpha: 1.0f64,
            a: Matrix::zeros(4, 4).into(),
            b: Matrix::zeros(3, 4).into(), // k mismatch
            beta: 0.0,
            c: Matrix::zeros(4, 4),
            policy: FtPolicy::Off,
            injector: None,
            deadline: None,
        };
        let (sink, completions) = completion_channel::<f64>();
        assert!(matches!(
            service.submit_streamed(bad, &sink),
            Err(ServeError::Shape(_))
        ));
        assert_eq!(completions.in_flight(), 0);
        assert_eq!(service.stats().submitted_streamed, 0);
    }

    #[test]
    fn batch_busy_time_tracks_region_wall() {
        // One pool thread: the batch region runs inline, so the summed
        // per-thread busy time must account for most of the summed region
        // wall time (the remainder is region publish/join overhead).
        let service = GemmService::<f64>::new(ServiceConfig {
            threads: 1,
            max_batch: 8,
            ..ServiceConfig::default()
        });
        let mut handles = Vec::new();
        for i in 0..16u64 {
            let a = Matrix::<f64>::random(64, 64, i);
            let b = Matrix::<f64>::random(64, 64, i + 900);
            handles.push(service.submit(GemmRequest::new(a, b)).unwrap());
        }
        for h in handles {
            h.wait().unwrap();
        }
        let snap = service.stats();
        assert_eq!(snap.batch_busy_per_thread.len(), 1);
        let busy: std::time::Duration = snap.batch_busy_per_thread.iter().sum();
        assert!(busy > std::time::Duration::ZERO);
        assert!(
            busy <= snap.batch_wall,
            "busy {busy:?} > wall {:?}",
            snap.batch_wall
        );
        assert!(
            busy >= snap.batch_wall / 2,
            "busy {busy:?} vs wall {:?}",
            snap.batch_wall
        );
        assert!(snap.batch_thread_occupancy > 0.0 && snap.batch_thread_occupancy <= 1.0 + 1e-6);
    }
}
