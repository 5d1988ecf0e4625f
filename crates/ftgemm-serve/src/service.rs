//! The service: the submit path, the dispatcher thread, routing, batching,
//! and lifecycle.

// Concurrency contract (checked by `scripts/orderings.sh`):
// `abort` publishes service shutdown to the dispatcher and region
// threads — Release store in abort(), Acquire loads at the dispatch and
// batch boundaries.

use crate::handle::{AsyncRequestHandle, RequestHandle};
use crate::queue::{Envelope, PushError, Queue};
use crate::request::{GemmRequest, GemmResponse, ServeError};
use crate::routing::{Route, RoutePath, RoutingPolicy};
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::stream::{completion_channel, CompletionSink};
use ftgemm_abft::parallel::{par_batch_ft_gemm_timed, BatchItem, BatchWorkspace, ParGemmContext};
use ftgemm_abft::{execute, FtReport, FtResult, Workspace};
use ftgemm_core::{aligned, Scalar};
use ftgemm_obs::{
    Counter, Exposition, Histogram, MetricKind, ObsRoutes, ObsServer, Registry, TraceEvent,
    TracePath, Tracelog,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Default boundary between "small" (batched) and "large" (matrix-parallel)
/// problems, in multiply-adds (`2*m*n*k`): roughly where one GEMM starts
/// having enough row-panels to feed every core of a desktop part on its
/// own. Shared with the facade's `Exec::Auto` routing so a planned one-shot
/// call and a served request make the same serial-vs-parallel decision.
pub const DEFAULT_SMALL_FLOPS_CUTOFF: u64 = 2 * 192 * 192 * 192;

/// Tuning knobs for a [`GemmService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the compute pool (`0` =
    /// [`std::thread::available_parallelism`]).
    pub threads: usize,
    /// Maximum small requests coalesced into one batched parallel region.
    pub max_batch: usize,
    /// The batched-vs-matrix-parallel boundary: requests with at most the
    /// cutoff's multiply-adds (`2*m*n*k`) take the batched path, larger
    /// ones run matrix-parallel via `execute`. Fixed for the service's
    /// life; the default is [`DEFAULT_SMALL_FLOPS_CUTOFF`].
    pub routing: RoutingPolicy,
    /// Submission-queue depth bound (`0` =
    /// unbounded, the default). When set, blocking
    /// [`submit`](GemmService::submit) calls park until the dispatcher
    /// drains space, while the non-blocking async surfaces
    /// ([`submit_async`](GemmService::submit_async),
    /// [`submit_streamed`](GemmService::submit_streamed)) fail fast with
    /// [`ServeError::Overloaded`] so frontends can shed load. The bound is
    /// soft under concurrency (overshoot ≤ concurrent submitters).
    pub queue_capacity: usize,
    /// When set, the service records request-lifecycle traces and serves
    /// `GET /metrics` (Prometheus text exposition), `/healthz`, and
    /// `/trace` on this address from a dedicated endpoint thread (bind to
    /// port `0` to let the OS pick; [`GemmService::obs_addr`] reports the
    /// resolved address). `None` — the default — disables the endpoint
    /// *and* the per-request trace/histogram recording, keeping the hot
    /// paths at their uninstrumented cost.
    ///
    /// [`GemmService::new`] panics if the address cannot be bound (a
    /// config error worth failing loudly at construction, not at first
    /// scrape).
    pub obs_addr: Option<SocketAddr>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 0,
            max_batch: 32,
            routing: RoutingPolicy::default(),
            queue_capacity: 0,
            obs_addr: None,
        }
    }
}

/// The per-request recording state, created when
/// [`ServiceConfig::obs_addr`] is set: the request-lifecycle tracelog and
/// the live turnaround histogram, both registered in the service's
/// registry. `None` on obs-disabled services, which keeps their hot paths
/// free of even the relaxed-atomic recording cost.
struct ServiceObs {
    trace: Arc<Tracelog>,
    turnaround: Arc<Histogram>,
}

impl ServiceObs {
    /// Trace-ring capacity: enough to hold the full lifecycle of a few
    /// hundred requests without the ring dominating memory.
    const TRACE_CAPACITY: usize = 2048;

    fn new(registry: &Registry) -> Self {
        let trace = Arc::new(Tracelog::new(Self::TRACE_CAPACITY));
        registry.read_weak(
            "ftgemm_trace_dropped_total",
            MetricKind::Counter,
            "Trace records overwritten because the ring was full.",
            &[],
            &trace,
            |trace| trace.dropped() as f64,
        );
        ServiceObs {
            trace,
            turnaround: registry.histogram(
                "ftgemm_request_turnaround_seconds",
                "Submit-to-completion latency of served requests.",
            ),
        }
    }
}

struct Inner<T: Scalar> {
    queue: Queue<T>,
    stats: ServiceStats,
    config: ServiceConfig,
    route: Route,
    /// The pool, kernel and blocking every request runs on; its pool is
    /// entered only by the dispatcher.
    ctx: ParGemmContext<T>,
    /// When set, dispatchers stop computing queued work and fail it with
    /// [`ServeError::Closed`] instead
    /// ([`shutdown_now`](GemmService::shutdown_now)).
    abort: AtomicBool,
    /// Lifecycle tracing + latency histogram, present only when
    /// [`ServiceConfig::obs_addr`] is set (obs-disabled services skip all
    /// recording).
    obs: Option<ServiceObs>,
}

/// A batched GEMM server: accepts concurrent [`GemmRequest`]s, coalesces
/// small problems into batched parallel regions, routes large problems to
/// the matrix-parallel fused-ABFT driver, and honors a per-request
/// [`FtPolicy`](crate::FtPolicy).
///
/// Three submit surfaces feed one queue:
/// [`submit`](GemmService::submit) (blocking condvar handle),
/// [`submit_async`](GemmService::submit_async) (waker-based future — no
/// parked thread per request), and
/// [`submit_streamed`](GemmService::submit_streamed) (results forwarded
/// into a [`completion_channel`](crate::completion_channel)).
///
/// One dispatcher thread drains the queue onto one persistent worker pool.
/// Dropping the service (or calling [`shutdown`](GemmService::shutdown))
/// stops intake, drains every queued request, and joins the dispatcher —
/// outstanding handles always resolve.
/// [`shutdown_now`](GemmService::shutdown_now) instead *fails* still-queued
/// requests with [`ServeError::Closed`] so a frontend can stop without
/// paying for the backlog.
pub struct GemmService<T: Scalar> {
    inner: Arc<Inner<T>>,
    /// The dispatcher thread; taken and joined by shutdown/drop.
    dispatcher: Option<JoinHandle<()>>,
    /// The `/metrics` endpoint thread ([`ServiceConfig::obs_addr`]);
    /// stopped and joined by shutdown/drop.
    obs_server: Option<ObsServer>,
}

/// [`Queue::push`] or [`Queue::try_push`]; the last argument is the
/// admission accounting the queue runs once the push is certain.
type PushFn<T> = fn(&Queue<T>, Envelope<T>, &dyn Fn()) -> Result<(), PushError>;

impl<T: Scalar> GemmService<T> {
    /// Service with explicit configuration.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.max_batch >= 1, "need max_batch >= 1");
        let threads = match config.threads {
            0 => ftgemm_core::cpu::num_cpus(),
            n => n,
        };
        let stats = ServiceStats::new(threads);
        let inner = Arc::new(Inner {
            queue: Queue::new(config.queue_capacity),
            obs: config.obs_addr.map(|_| ServiceObs::new(&stats.registry)),
            stats,
            route: Route::new(config.routing),
            ctx: ParGemmContext::with_threads(threads),
            abort: AtomicBool::new(false),
            config,
        });
        register_live(&inner);
        // The dispatcher is the one thread that enters the pool (submit
        // surfaces and the metrics endpoint never run a region), so the
        // pool's one-region-at-a-time lock is never contended here and the
        // dispatcher owns its workspaces outright (`Compute`) without
        // sharing or locking them. Without it nothing would ever drain the
        // queue, so a failed spawn fails construction loudly.
        let dispatcher_inner = Arc::clone(&inner);
        #[expect(
            clippy::panic,
            reason = "a service without its dispatcher cannot serve"
        )]
        let dispatcher = std::thread::Builder::new()
            .name("ftgemm-serve-dispatch".to_string())
            .spawn(move || dispatcher_loop(&dispatcher_inner))
            .unwrap_or_else(|e| panic!("failed to spawn the dispatcher thread: {e}"));
        // The endpoint holds only a Weak ref: a scrape racing teardown
        // renders a tombstone instead of keeping the service alive.
        let obs_server = inner.config.obs_addr.map(|addr| {
            let metrics_inner = Arc::downgrade(&inner);
            let trace_inner = Arc::downgrade(&inner);
            let routes = ObsRoutes {
                metrics: Box::new(move || match metrics_inner.upgrade() {
                    Some(inner) => render_metrics_of(&inner),
                    None => "# ftgemm service shut down\n".to_string(),
                }),
                trace: Box::new(move || match trace_inner.upgrade() {
                    Some(inner) => match &inner.obs {
                        Some(obs) => obs.trace.render_text(TRACE_DUMP_RECORDS),
                        None => "# tracing disabled\n".to_string(),
                    },
                    None => "# ftgemm service shut down\n".to_string(),
                }),
            };
            #[expect(clippy::panic, reason = "an unbindable obs_addr is a config error")]
            ObsServer::bind(addr, routes)
                .unwrap_or_else(|e| panic!("failed to bind ServiceConfig::obs_addr {addr}: {e}"))
        });
        GemmService {
            inner,
            dispatcher: Some(dispatcher),
            obs_server,
        }
    }

    /// Deadline admission control: predicts the request's completion time
    /// as `(backlog + flops) × Σns/Σflops` — the queue's flops backlog plus
    /// the request's own flops, at the measured ns/flop of the
    /// path the cutoff sends the request to — and rejects the submit with
    /// [`ServeError::DeadlineExceeded`] when the deadline is infeasible,
    /// before the request is admitted or consumes queue capacity.
    ///
    /// No deadline, or no evidence yet on the request's path, admits: the
    /// check only turns requests away when it has a basis to predict they
    /// cannot make it. The queue is FIFO, so the backlog it counts is
    /// exactly the work ahead of the request.
    fn check_deadline(&self, req: &GemmRequest<T>) -> Result<(), ServeError> {
        let Some(deadline) = req.deadline else {
            return Ok(());
        };
        let flops = req.flops().max(1);
        let route = &self.inner.route;
        let Some(ns_per_flop) = route.ns_per_flop(route.path(flops)) else {
            return Ok(());
        };
        let backlog = self.inner.queue.pending_flops();
        let eta_ns = backlog.saturating_add(flops) as f64 * ns_per_flop;
        let deadline_ns = deadline.as_nanos().min(u64::MAX as u128) as f64;
        if eta_ns > deadline_ns {
            self.inner.stats.rejected_deadline.inc();
            return Err(ServeError::DeadlineExceeded(format!(
                "infeasible at admission: the queue holds {backlog} backlog flops, \
                 and at the measured {ns_per_flop:.3} ns/flop this {flops}-flop request \
                 would finish ~{:.0}us after submit, past its {:.0}us deadline",
                eta_ns / 1e3,
                deadline_ns / 1e3,
            )));
        }
        Ok(())
    }

    /// The one submit path every surface goes through: validate →
    /// deadline admission → register in `sink` → envelope → trace → push,
    /// which counts the admission from inside the enqueue — a push the
    /// queue turns away is counted only as a rejection, and unregistered
    /// from `sink` here. The surfaces differ only in `sink` (the caller's
    /// channel, or a one-request channel behind a handle), `surface` (which
    /// per-surface counter is bumped) and `push` (parking
    /// [`Queue::push`] or fail-fast [`Queue::try_push`]).
    /// Returns the request id.
    fn submit_with(
        &self,
        req: GemmRequest<T>,
        surface: &Counter,
        push: PushFn<T>,
        sink: &CompletionSink<T>,
    ) -> Result<u64, ServeError> {
        req.validate()?;
        let id = self.inner.queue.next_id();
        // Admission control runs before the request is counted or traced:
        // a deadline-infeasible submit never existed as far as `submitted`
        // and the lifecycle trace are concerned (only `rejected_deadline`
        // records it).
        self.check_deadline(&req)?;
        // The sink counts the request before it can possibly complete.
        sink.register();
        let submitted = Instant::now();
        let env = Envelope {
            deadline: req.deadline.map(|d| submitted + d),
            flops: req.flops(),
            req,
            sink: sink.clone(),
            id,
            submitted,
        };
        // Traced before the push: once the envelope is in the queue the
        // dispatcher may complete it at any moment, and a request's
        // `admitted` must never land after its `dispatched`. The counts
        // follow the same rule from inside the enqueue, so a snapshot
        // never sees `completed > submitted`.
        let stats = &self.inner.stats;
        if let Some(obs) = &self.inner.obs {
            obs.trace.record(id, TraceEvent::Admitted);
            obs.trace.record(id, TraceEvent::Queued);
        }
        push(&self.inner.queue, env, &|| stats.admit(surface)).map_err(|e| {
            sink.unregister();
            if let Some(obs) = &self.inner.obs {
                obs.trace.record(id, TraceEvent::Failed);
            }
            match e {
                PushError::Full => {
                    stats.rejected_overloaded.inc();
                    ServeError::Overloaded
                }
                PushError::Closed => {
                    stats.rejected_closed.inc();
                    ServeError::Closed
                }
            }
        })?;
        Ok(id)
    }

    /// Submits a request; returns a handle redeemable for the result.
    ///
    /// Shape errors are rejected here, synchronously; everything else is
    /// reported through the handle. With a bounded queue
    /// ([`ServiceConfig::queue_capacity`]), this call parks until space
    /// opens up — use [`submit_async`](GemmService::submit_async) or
    /// [`submit_streamed`](GemmService::submit_streamed) for surfaces that
    /// never block.
    pub fn submit(&self, req: GemmRequest<T>) -> Result<RequestHandle<T>, ServeError> {
        let (sink, rx) = completion_channel();
        let surface = &self.inner.stats.submitted_sync;
        let id = self.submit_with(req, surface, Queue::push, &sink)?;
        Ok(RequestHandle::new(id, rx))
    }

    /// Submits a request and returns a [`Future`](std::future::Future)
    /// resolving to its result — no thread is parked per in-flight request
    /// (the completion site fires the task's waker directly).
    ///
    /// Never blocks: with a bounded queue
    /// ([`ServiceConfig::queue_capacity`]) a full queue is reported
    /// immediately as [`ServeError::Overloaded`] instead of parking, so an
    /// async frontend can shed load or retry on its own schedule. Shape
    /// errors and shutdown are likewise rejected synchronously.
    ///
    /// The returned future is executor-agnostic; see
    /// `examples/async_serving.rs` for a hand-rolled `block_on` driving
    /// hundreds of these concurrently from one thread.
    pub fn submit_async(&self, req: GemmRequest<T>) -> Result<AsyncRequestHandle<T>, ServeError> {
        let (sink, rx) = completion_channel();
        let stats = &self.inner.stats;
        let id = self.submit_with(req, &stats.submitted_async, Queue::try_push, &sink)?;
        Ok(AsyncRequestHandle::new(
            id,
            rx,
            Arc::clone(&stats.in_flight_async),
        ))
    }

    /// Submits a request whose result is delivered into a completion
    /// channel ([`completion_channel`](crate::completion_channel)) instead
    /// of a per-request handle; returns the request id used to tag the
    /// completion. Like [`submit_async`](GemmService::submit_async) this
    /// never blocks — a full bounded queue is [`ServeError::Overloaded`].
    ///
    /// One channel can absorb completions from any number of submissions
    /// (across threads and even across services), which makes it the
    /// cheapest way to drain a large burst: one drain loop, zero parked
    /// threads per request.
    pub fn submit_streamed(
        &self,
        req: GemmRequest<T>,
        sink: &CompletionSink<T>,
    ) -> Result<u64, ServeError> {
        let surface = &self.inner.stats.submitted_streamed;
        self.submit_with(req, surface, Queue::try_push, sink)
    }

    /// Convenience: submit and block for the result.
    pub fn run(&self, req: GemmRequest<T>) -> Result<GemmResponse<T>, ServeError> {
        self.submit(req)?.wait()
    }

    /// Point-in-time service metrics.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot_of(&self.inner)
    }

    /// The observability endpoint's resolved bound address, when
    /// [`ServiceConfig::obs_addr`] was set (useful with port `0`).
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs_server.as_ref().map(|s| s.addr())
    }

    /// The same Prometheus text-exposition body `GET /metrics` serves —
    /// available on every service, endpoint or not (obs-disabled services
    /// just omit the turnaround histogram and trace families).
    pub fn render_metrics(&self) -> String {
        render_metrics_of(&self.inner)
    }

    /// The most recent lifecycle trace records as plaintext (the `/trace`
    /// body); a header-only string on obs-disabled services.
    pub fn render_trace(&self, n: usize) -> String {
        match &self.inner.obs {
            Some(obs) => obs.trace.render_text(n),
            None => "# tracing disabled\n".to_string(),
        }
    }

    /// Adds one timing observation to `path`'s totals, as if a region of
    /// `flops` multiply-adds on `path` had just completed in `elapsed_ns` —
    /// exactly what the dispatcher reports after real regions.
    ///
    /// This exists to *warm* a service's completion-time model: deadline
    /// admission control admits everything on a path until that path has
    /// evidence, so a frontend that already knows this machine's ns/flop (a
    /// previous run, a calibration loop) can seed it instead of letting the
    /// first wave of infeasible requests through. Tests use it to pin
    /// admission decisions without wall-clock dependence.
    pub fn seed_routing(&self, path: RoutePath, flops: u64, elapsed_ns: u64) {
        self.inner.route.observe(path, flops, elapsed_ns);
    }

    /// Threads in the compute pool.
    pub fn nthreads(&self) -> usize {
        self.inner.ctx.nthreads()
    }

    /// Stops intake, drains queued requests (computing each one), joins
    /// the dispatcher, and returns the final metrics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.close_and_join();
        self.stats()
    }

    /// Stops intake and **fails** every request still queued with
    /// [`ServeError::Closed`] instead of computing it — their handles,
    /// futures, and completion channels all resolve (nothing hangs), they
    /// just carry the shutdown error. Only regions already *computing*
    /// finish normally: the dispatcher re-checks the abort flag
    /// between batched regions and between large requests, so even an
    /// already-popped sweep is failed rather than paid for. Returns the
    /// final metrics.
    pub fn shutdown_now(mut self) -> StatsSnapshot {
        self.inner.abort.store(true, Ordering::Release);
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        // Stop the endpoint first: a scrape arriving mid-teardown would
        // render from a half-drained service, and the acceptor must not
        // outlive the Weak refs' target anyway.
        if let Some(mut server) = self.obs_server.take() {
            server.shutdown();
        }
        self.inner.queue.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// The number of trace records `/trace` dumps per request.
const TRACE_DUMP_RECORDS: usize = 512;

/// Point-in-time metrics from the shared service state (callable from the
/// endpoint thread, which holds only a `Weak<Inner>`).
fn snapshot_of<T: Scalar>(inner: &Inner<T>) -> StatsSnapshot {
    inner.stats.snapshot(
        inner.queue.depth(),
        inner.ctx.pool().stats(),
        inner.route.cutoff(),
    )
}

/// One service's complete `/metrics` body: its own registry, then the
/// process-wide one.
fn render_metrics_of<T: Scalar>(inner: &Inner<T>) -> String {
    let mut expo = Exposition::new();
    inner.stats.registry.render_into(&mut expo);
    Registry::global().render_into(&mut expo);
    expo.finish()
}

/// Registers the live half of the service's families in its registry:
/// values whose truth is state the service keeps anyway (queue depth, the
/// routing cutoff, the pool, the process's mapped and recycled buffers) or
/// a formula over the counted cells of [`ServiceStats`], read at scrape
/// time. Each cell holds a `Weak`, since
/// `inner` owns the registry.
fn register_live<T: Scalar>(inner: &Arc<Inner<T>>) {
    use MetricKind::{Counter, Gauge};
    let registry = &inner.stats.registry;
    let live = |name, kind, help, read: fn(&Inner<T>) -> f64| {
        registry.read_weak(name, kind, help, &[], inner, read);
    };
    live(
        "ftgemm_requests_submitted_total",
        Counter,
        "Requests accepted across all submit surfaces.",
        |i| i.stats.submitted() as f64,
    );
    live(
        "ftgemm_queue_depth",
        Gauge,
        "Envelopes waiting in the submission queue right now.",
        |i| i.queue.depth() as f64,
    );
    live(
        "ftgemm_uptime_seconds",
        Gauge,
        "Seconds since the service started.",
        |i| i.stats.uptime().as_secs_f64(),
    );
    live(
        "ftgemm_requests_per_second",
        Gauge,
        "Completed requests per second since the first submission.",
        |i| i.stats.requests_per_sec(i.stats.uptime()),
    );
    live(
        "ftgemm_routing_cutoff_flops",
        Gauge,
        "The flops cutoff the scheduler is routing by right now.",
        |i| i.route.cutoff() as f64,
    );
    live(
        "ftgemm_batch_occupancy_mean",
        Gauge,
        "Mean requests coalesced per batched region.",
        |i| i.stats.mean_batch_occupancy(),
    );
    live(
        "ftgemm_request_turnaround_seconds_mean",
        Gauge,
        "Mean submit-to-completion latency.",
        |i| i.stats.mean_turnaround().as_secs_f64(),
    );
    live(
        "ftgemm_batch_thread_occupancy",
        Gauge,
        "Mean fraction of batched-region time each thread spent busy.",
        |i| i.stats.batch_thread_occupancy(),
    );
    live(
        "ftgemm_service_pool_regions_total",
        Counter,
        "Parallel regions executed on this service's pool.",
        |i| i.ctx.pool().stats().regions as f64,
    );
    live(
        "ftgemm_service_pool_barrier_crossings_total",
        Counter,
        "Barrier crossings on this service's pool.",
        |i| i.ctx.pool().stats().barrier_crossings as f64,
    );
    live(
        "ftgemm_mapped_buffers_total",
        Counter,
        "Buffers of 256 KiB or more mapped fresh from the OS, process-wide (spares taken back are not counted).",
        |_| aligned::mapped_buffers() as f64,
    );
    live(
        "ftgemm_recycled_buffers_total",
        Counter,
        "Buffers of one page to 8 MiB, heap or mapped, taken back from a dropped buffer of the same length and placement, process-wide.",
        |_| aligned::recycled_buffers() as f64,
    );
    live(
        "ftgemm_spare_buffer_bytes",
        Gauge,
        "Bytes of dropped buffers of one page to 8 MiB held for reuse, process-wide (at most max(8 MiB, high-water minus live bytes of such buffers)).",
        |_| aligned::spare_bytes() as f64,
    );
}

impl<T: Scalar> Drop for GemmService<T> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl<T: Scalar> std::fmt::Debug for GemmService<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GemmService")
            .field("nthreads", &self.nthreads())
            .field("config", &self.inner.config)
            .field("queue_depth", &self.inner.queue.depth())
            .finish()
    }
}

/// What the dispatcher computes with: the service's context (pool, kernel,
/// blocking) and the [`Workspace`]s of both paths, reused across everything
/// the dispatcher ever runs; the paths differ only in the team. Only the
/// dispatcher ever touches them, so it owns them outright: no lock, no
/// sharing.
struct Compute<'a, T: Scalar> {
    ctx: &'a ParGemmContext<T>,
    /// The batched path: one workspace per pool thread, each a team of one.
    batch: BatchWorkspace<T>,
    /// The matrix-parallel path: one workspace, the pool as its team — the
    /// shared `B~`, per-thread `A~` and checksum state (paper §2.3:
    /// requested once, reused). Built by the first large request — a service
    /// that never sees one holds nothing — and grown by `execute` to
    /// the largest shape served.
    large: Option<Workspace<T>>,
}

impl<'a, T: Scalar> Compute<'a, T> {
    fn new(ctx: &'a ParGemmContext<T>) -> Self {
        Compute {
            ctx,
            batch: BatchWorkspace::new(ctx),
            large: None,
        }
    }
}

/// The dispatcher: drains the queue onto the pool until the queue is closed
/// and empty.
fn dispatcher_loop<T: Scalar>(inner: &Inner<T>) {
    let mut compute = Compute::new(&inner.ctx);
    // One sweep buffer for the dispatcher's life: `dispatch` drains it, the
    // next pop refills it.
    let mut sweep = Vec::new();
    loop {
        if inner.abort.load(Ordering::Acquire) {
            // Fast shutdown: fail everything still queued instead of
            // computing it.
            inner.queue.pop_into(usize::MAX, &mut sweep);
            for env in sweep.drain(..) {
                finish(inner, env, Ending::Closed);
            }
        } else if inner.queue.pop_into(4 * inner.config.max_batch, &mut sweep) > 0 {
            // Taking several batches' worth per sweep lets one sweep split
            // into large/small once instead of re-locking the queue per
            // region.
            dispatch(inner, &mut compute, &mut sweep);
            continue;
        }
        if !inner.queue.wait() {
            return; // closed and fully drained
        }
    }
}

/// Load-shedding sweep: sheds, in place, every envelope whose deadline has
/// already passed; the still-live remainder keeps its order. Reads the
/// clock once — and not at all when nothing in the sweep carries a
/// deadline, so deadline-free workloads keep their uninstrumented dispatch
/// cost.
fn shed_expired<T: Scalar>(inner: &Inner<T>, envelopes: &mut Vec<Envelope<T>>) {
    if envelopes.iter().all(|env| env.deadline.is_none()) {
        return;
    }
    let now = Instant::now();
    for env in envelopes.extract_if(.., |env| env.deadline.is_some_and(|d| now > d)) {
        finish(inner, env, Ending::Shed);
    }
}

/// Routes one drained sweep by the cutoff: small requests coalesced into
/// batched regions, large ones one-at-a-time through the matrix-parallel
/// driver.
///
/// The batched regions run *first*: a sweep can hold 100+ large requests,
/// and an early-arriving small request parked behind that loop would see
/// its latency multiplied for no benefit (the coalesced batches are the
/// cheap part of the sweep). Pinned by
/// `small_batches_complete_before_large_requests`.
fn dispatch<T: Scalar>(
    inner: &Inner<T>,
    compute: &mut Compute<'_, T>,
    envelopes: &mut Vec<Envelope<T>>,
) {
    // Shed already-expired requests before spending any compute on the
    // sweep; re-checked per region below, since earlier regions of the same
    // sweep can out-wait a later request's deadline.
    shed_expired(inner, envelopes);
    let (small, large): (Vec<_>, Vec<_>) = envelopes
        .drain(..)
        .partition(|env| inner.route.path(env.flops) == RoutePath::Batched);

    let mut small = small;
    let mut large = large;
    while !small.is_empty() {
        // Re-check the abort flag between regions: a popped sweep can hold
        // 4*max_batch requests, and shutdown_now's contract is that only
        // work already *computing* finishes — not a whole sweep.
        if inner.abort.load(Ordering::Acquire) {
            for env in small.drain(..).chain(large.drain(..)) {
                finish(inner, env, Ending::Closed);
            }
            return;
        }
        let take = small.len().min(inner.config.max_batch);
        let mut chunk: Vec<Envelope<T>> = small.drain(..take).collect();
        shed_expired(inner, &mut chunk);
        if !chunk.is_empty() {
            run_batch(inner, compute, chunk);
        }
    }

    let mut large = large.into_iter();
    while let Some(env) = large.next() {
        if inner.abort.load(Ordering::Acquire) {
            finish(inner, env, Ending::Closed);
            for env in large {
                finish(inner, env, Ending::Closed);
            }
            return;
        }
        if env.deadline.is_some_and(|d| Instant::now() > d) {
            finish(inner, env, Ending::Shed);
            continue;
        }
        inner.stats.direct_large.inc();
        run_large(inner, compute, env);
    }
}

fn run_large<T: Scalar>(inner: &Inner<T>, compute: &mut Compute<'_, T>, mut env: Envelope<T>) {
    if let Some(obs) = &inner.obs {
        obs.trace.record(
            env.id,
            TraceEvent::Dispatched {
                path: TracePath::Parallel,
            },
        );
    }
    let req = &mut env.req;
    let cfg = req.policy.to_config(req.injector.clone());
    let started = Instant::now();
    let ctx = compute.ctx;
    let ws = compute.large.get_or_insert_with(Workspace::new);
    let result = execute(
        Some(ctx),
        ws,
        cfg.as_ref(),
        req.alpha,
        &req.a.as_ref(),
        &req.b.as_ref(),
        req.beta,
        &mut req.c.as_mut(),
    );
    // The `m x nc` base snapshot of a `beta != 0` rollback is the one piece
    // that scales with the request's area; everything kept is bounded by
    // the blocking.
    ws.release_base();
    inner
        .stats
        .large_workspace_bytes
        .set(ws.retained_bytes() as f64);
    inner.route.observe(
        RoutePath::Parallel,
        env.flops,
        started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    );
    let ending = Ending::Served {
        batched: false,
        result,
    };
    finish(inner, env, ending);
}

fn run_batch<T: Scalar>(inner: &Inner<T>, compute: &Compute<'_, T>, mut envs: Vec<Envelope<T>>) {
    inner.stats.batches.inc();
    inner.stats.batched_requests.add(envs.len() as u64);
    if let Some(obs) = &inner.obs {
        for env in &envs {
            obs.trace.record(
                env.id,
                TraceEvent::Dispatched {
                    path: TracePath::Batched,
                },
            );
        }
    }

    // Per-request configs must outlive the borrowed batch items.
    let cfgs: Vec<_> = envs
        .iter()
        .map(|env| env.req.policy.to_config(env.req.injector.clone()))
        .collect();
    let mut items: Vec<BatchItem<'_, T>> = envs
        .iter_mut()
        .zip(cfgs.iter())
        .map(|(env, cfg)| {
            let req = &mut env.req;
            BatchItem {
                alpha: req.alpha,
                a: req.a.as_ref(),
                b: req.b.as_ref(),
                beta: req.beta,
                c: req.c.as_mut(),
                cfg: cfg.as_ref(),
            }
        })
        .collect();
    let (results, timing) = par_batch_ft_gemm_timed(compute.ctx, &compute.batch, &mut items);
    drop(items);
    inner.stats.absorb_batch_timing(&timing);

    // One observation per region: its wall time and its items' flops.
    inner.route.observe(
        RoutePath::Batched,
        envs.iter().map(|env| env.flops).sum(),
        timing.wall.as_nanos().min(u64::MAX as u128) as u64,
    );

    for (env, result) in envs.into_iter().zip(results) {
        let ending = Ending::Served {
            batched: true,
            result,
        };
        finish(inner, env, ending);
    }
}

/// How a request's life ended.
enum Ending {
    /// It ran; `result` is the driver's verdict.
    Served {
        batched: bool,
        result: FtResult<FtReport>,
    },
    /// Its deadline passed while it sat in the queue; no compute was spent.
    Shed,
    /// [`shutdown_now`](GemmService::shutdown_now) found it still unserved.
    Closed,
}

/// The one completion site: every admitted request ends here exactly once,
/// whatever the ending. Accounts the turnaround, `completed` or `failed`
/// (so `completed + failed <= submitted` holds — shed and closed requests
/// *were* admitted), the deadline tallies and the terminal trace event,
/// then delivers the outcome into the request's completion channel.
fn finish<T: Scalar>(inner: &Inner<T>, env: Envelope<T>, ending: Ending) {
    let Envelope {
        req,
        sink,
        id,
        submitted,
        deadline,
        ..
    } = env;
    let stats = &inner.stats;
    let finished = Instant::now();
    let turnaround_ns = finished
        .saturating_duration_since(submitted)
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    stats.turnaround_ns.add(turnaround_ns);
    let (counter, terminal) = match ending {
        Ending::Served { result: Ok(_), .. } => (&stats.completed, TraceEvent::Completed),
        Ending::Served { .. } | Ending::Shed | Ending::Closed => {
            (&stats.failed, TraceEvent::Failed)
        }
    };
    counter.inc();
    let outcome = match ending {
        Ending::Served { batched, result } => {
            if let Some(obs) = &inner.obs {
                obs.turnaround.record(turnaround_ns);
                obs.trace.record(id, TraceEvent::Computed);
            }
            result.map_err(ServeError::Ft).map(|report| {
                if let Some(obs) = &inner.obs {
                    if report.verifications > 0 {
                        let verifications = report.verifications as u64;
                        obs.trace.record(id, TraceEvent::Verified { verifications });
                    }
                    if report.corrected > 0 {
                        let corrected = report.corrected as u64;
                        obs.trace.record(id, TraceEvent::Corrected { corrected });
                    }
                }
                match deadline {
                    Some(d) if finished <= d => stats.deadline_met.inc(),
                    Some(_) => stats.deadline_missed.inc(),
                    None => {}
                }
                stats.absorb_report(&report);
                GemmResponse {
                    c: req.c,
                    report,
                    batched,
                }
            })
        }
        Ending::Shed => {
            stats.shed_deadline.inc();
            Err(ServeError::DeadlineExceeded(format!(
                "expired while queued: request {id} missed its deadline before dispatch"
            )))
        }
        Ending::Closed => Err(ServeError::Closed),
    };
    if let Some(obs) = &inner.obs {
        obs.trace.record(id, terminal);
    }
    sink.deliver(id, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::Matrix;

    fn test_inner(config: ServiceConfig) -> Inner<f64> {
        let threads = config.threads.max(1);
        Inner {
            queue: Queue::new(config.queue_capacity),
            stats: ServiceStats::new(threads),
            route: Route::new(config.routing),
            ctx: ParGemmContext::with_threads(threads),
            abort: AtomicBool::new(false),
            obs: None,
            config,
        }
    }

    /// `req` as the queue would hand it to a dispatcher, completing to `sink`.
    fn envelope(sink: &CompletionSink<f64>, id: u64, req: GemmRequest<f64>) -> Envelope<f64> {
        sink.register();
        Envelope {
            flops: req.flops(),
            req,
            sink: sink.clone(),
            id,
            submitted: Instant::now(),
            deadline: None,
        }
    }

    /// Head-of-line regression: a drained sweep must run its coalesced
    /// small batches before the large loop. Drives `dispatch` directly (no
    /// dispatcher thread) so the sweep's composition — four large requests
    /// that arrived *before* one small one — is exact and the completion
    /// order deterministic.
    #[test]
    fn small_batches_complete_before_large_requests() {
        let config = ServiceConfig {
            threads: 2,
            max_batch: 4,
            routing: RoutingPolicy::Fixed(2 * 32 * 32 * 32),
            ..ServiceConfig::default()
        };
        let inner = test_inner(config);
        let mut compute = Compute::new(&inner.ctx);
        let (sink, mut completions) = completion_channel::<f64>();

        let mk = |id: u64, dim: usize| {
            let req = GemmRequest::new(
                Matrix::<f64>::random(dim, dim, id),
                Matrix::<f64>::random(dim, dim, id + 100),
            );
            envelope(&sink, id, req)
        };
        // Ids 0..4: large (64^3 > the pinned cutoff); id 4: small (16^3).
        let mut envelopes: Vec<_> = (0..4u64).map(|id| mk(id, 64)).collect();
        envelopes.push(mk(4, 16));
        dispatch(&inner, &mut compute, &mut envelopes);
        drop(sink);

        let mut order = Vec::new();
        while let Some(c) = completions.recv() {
            c.result.unwrap();
            order.push(c.id);
        }
        assert_eq!(order.len(), 5);
        assert_eq!(
            order[0], 4,
            "small request waited behind the large loop: {order:?}"
        );
        assert_eq!(inner.stats.direct_large.get(), 4);
        assert_eq!(inner.stats.batched_requests.get(), 1);
    }

    /// One request through `dispatch` on `compute`, as a large one; returns
    /// the large workspace's `B~` address afterwards.
    fn run_one_large(
        inner: &Inner<f64>,
        compute: &mut Compute<'_, f64>,
        id: u64,
        req: GemmRequest<f64>,
    ) -> usize {
        let (sink, mut completions) = completion_channel::<f64>();
        dispatch(inner, compute, &mut vec![envelope(&sink, id, req)]);
        let done = completions.recv().expect("one completion");
        done.result.expect("request succeeds");
        compute.large.as_ref().expect("built by now").base_addr()
    }

    fn everything_is_large() -> Inner<f64> {
        test_inner(ServiceConfig {
            threads: 2,
            routing: RoutingPolicy::Fixed(0),
            ..ServiceConfig::default()
        })
    }

    /// The first large request builds the workspace — nothing is held
    /// before it — and from the second request of a warmed shape on the
    /// packed `B~` never moves, while shapes shrink and policies alternate;
    /// only a larger shape may move it. The gauge reports what is held.
    #[test]
    fn large_requests_reuse_the_large_workspace() {
        let inner = everything_is_large();
        let mut compute = Compute::new(&inner.ctx);
        assert!(
            compute.large.is_none(),
            "no workspace before a large request"
        );
        assert_eq!(inner.stats.large_workspace_bytes.get(), 0.0);

        let policies = [
            crate::FtPolicy::Off,
            crate::FtPolicy::Detect,
            crate::FtPolicy::DetectCorrect,
        ];
        let mut run = |id: u64, dim: usize, policy| {
            let req = GemmRequest::new(
                Matrix::<f64>::random(dim, dim, id),
                Matrix::<f64>::random(dim, dim, id + 100),
            );
            run_one_large(&inner, &mut compute, id, req.with_policy(policy))
        };
        let warm = run(0, 96, crate::FtPolicy::DetectCorrect);
        for (i, dim) in [96usize, 48, 96, 64, 96, 96].into_iter().enumerate() {
            let addr = run(1 + i as u64, dim, policies[i % 3]);
            assert_eq!(addr, warm, "request {i} ({dim}^3) reallocated B~");
        }
        // Growth is the one event that may move it.
        run(50, 128, crate::FtPolicy::Detect);
        let large = compute.large.as_ref().unwrap();
        assert!(large.fits(compute.ctx, [128; 3], true));
        assert_eq!(inner.stats.direct_large.get(), 8);
        assert_eq!(
            inner.stats.large_workspace_bytes.get(),
            large.retained_bytes() as f64
        );
    }

    /// The base snapshot of a `beta != 0` `DetectCorrect` request — the only
    /// O(m·n) piece of the workspace — goes back after the request: the
    /// service keeps what a `beta == 0` request of that shape keeps, which the
    /// blocking bounds.
    #[test]
    fn the_base_snapshot_does_not_outlive_its_request() {
        let inner = everything_is_large();
        let mut compute = Compute::new(&inner.ctx);
        let (m, n, k) = (512, 512, 48);
        let req = |id: u64, beta: f64| {
            GemmRequest::new(
                Matrix::<f64>::random(m, k, id),
                Matrix::<f64>::random(k, n, id + 100),
            )
            .with_c(beta, Matrix::<f64>::random(m, n, id + 200))
            .with_policy(crate::FtPolicy::DetectCorrect)
        };
        run_one_large(&inner, &mut compute, 0, req(0, 0.5));
        run_one_large(&inner, &mut compute, 1, req(1, 0.0));
        // A workspace that never saw `beta != 0`.
        let mut other = Compute::new(&inner.ctx);
        run_one_large(&inner, &mut other, 2, req(2, 0.0));

        let ctx = compute.ctx;
        let held = compute.large.as_ref().unwrap().retained_bytes();
        let without_base = other.large.as_ref().unwrap().retained_bytes();
        assert_eq!(held, without_base, "the {m}x{n} snapshot was kept");
        let p = ctx.params;
        let packed = p.packed_b_len() + ctx.nthreads() * p.packed_a_len();
        let checks = (2 + 3 * ctx.nthreads()) * (m + n + k);
        assert!(held <= (packed + checks) * std::mem::size_of::<f64>());
        assert_eq!(inner.stats.large_workspace_bytes.get(), held as f64);
    }

    /// A traced service with **no dispatcher**: whatever a submit pushes
    /// stays queued, so every outcome below is decided by the submit path
    /// alone — a bounded queue stays full, nothing completes behind the
    /// test's back.
    fn undrained_service(queue_capacity: usize) -> GemmService<f64> {
        let mut inner = test_inner(ServiceConfig {
            threads: 1,
            queue_capacity,
            ..ServiceConfig::default()
        });
        inner.obs = Some(ServiceObs::new(&inner.stats.registry));
        GemmService {
            inner: Arc::new(inner),
            dispatcher: None,
            obs_server: None,
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Surface {
        Sync,
        Async,
        Streamed,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Outcome {
        Accepted,
        Shape,
        DeadlineInfeasible,
        Closed,
        Overloaded,
    }

    /// Everything one submit changed, as deltas over the service's public
    /// counters plus the trace events and gauges it left behind.
    #[derive(Debug, PartialEq)]
    struct Effect {
        outcome: Outcome,
        submitted: u64,
        on_own_surface: u64,
        on_other_surfaces: u64,
        rejected_overloaded: u64,
        rejected_closed: u64,
        rejected_deadline: u64,
        trace: Vec<String>,
        /// The async in-flight gauge or the sink's registration count,
        /// whichever the surface owns (always 0 for `Sync`).
        in_flight: u64,
    }

    /// One submit surface must be indistinguishable from the others in
    /// what it counts, traces and releases: for each outcome a submit can
    /// have, all three surfaces produce the same [`Effect`] (the
    /// blocking surface never reports `Overloaded` — it parks — so that
    /// row covers the two try-push surfaces).
    #[test]
    fn submit_surfaces_agree_on_every_outcome() {
        let probe = |surface: Surface, outcome: Outcome| -> Effect {
            let service = undrained_service(usize::from(outcome == Outcome::Overloaded));
            let dim = 16usize;
            let flops = 2 * (dim as u64).pow(3);
            let mut req = GemmRequest::new(
                Matrix::<f64>::random(dim, dim, 1),
                Matrix::<f64>::random(dim, dim, 2),
            );
            match outcome {
                Outcome::Accepted => {}
                Outcome::Shape => req.b = Matrix::<f64>::zeros(dim + 1, dim).into(),
                Outcome::DeadlineInfeasible => {
                    for _ in 0..4 {
                        service.seed_routing(RoutePath::Batched, flops, flops * 100_000);
                    }
                    req = req.with_deadline(std::time::Duration::from_millis(1));
                }
                Outcome::Closed => service.inner.queue.close(),
                Outcome::Overloaded => {
                    // Fill the one-slot queue; nothing drains it.
                    let filler = GemmRequest::new(
                        Matrix::<f64>::random(dim, dim, 3),
                        Matrix::<f64>::random(dim, dim, 4),
                    );
                    service.submit(filler).unwrap();
                }
            }

            let before = service.stats();
            let trace_before = service.render_trace(64).lines().count();
            let (sink, completions) = completion_channel::<f64>();
            // Keep an accepted handle alive until the gauges are read.
            let (result, _held): (Result<(), ServeError>, Option<Box<dyn std::any::Any>>) =
                match surface {
                    Surface::Sync => match service.submit(req) {
                        Ok(h) => (Ok(()), Some(Box::new(h))),
                        Err(e) => (Err(e), None),
                    },
                    Surface::Async => match service.submit_async(req) {
                        Ok(h) => (Ok(()), Some(Box::new(h))),
                        Err(e) => (Err(e), None),
                    },
                    Surface::Streamed => (service.submit_streamed(req, &sink).map(|_| ()), None),
                };
            let after = service.stats();

            let surfaces = |snap: &StatsSnapshot| {
                [
                    snap.submitted_sync,
                    snap.submitted_async,
                    snap.submitted_streamed,
                ]
            };
            let own = surface as usize;
            let (b, a) = (surfaces(&before), surfaces(&after));
            Effect {
                outcome: match result {
                    Ok(()) => Outcome::Accepted,
                    Err(ServeError::Shape(_)) => Outcome::Shape,
                    Err(ServeError::DeadlineExceeded(_)) => Outcome::DeadlineInfeasible,
                    Err(ServeError::Closed) => Outcome::Closed,
                    Err(ServeError::Overloaded) => Outcome::Overloaded,
                    Err(other) => panic!("unexpected submit error: {other}"),
                },
                submitted: after.submitted - before.submitted,
                on_own_surface: a[own] - b[own],
                on_other_surfaces: (0..3).filter(|&i| i != own).map(|i| a[i] - b[i]).sum(),
                rejected_overloaded: after.rejected_overloaded - before.rejected_overloaded,
                rejected_closed: after.rejected_closed - before.rejected_closed,
                rejected_deadline: after.rejected_deadline - before.rejected_deadline,
                trace: service
                    .render_trace(64)
                    .lines()
                    .skip(trace_before)
                    .map(|line| line.rsplit(' ').next().unwrap_or_default().to_string())
                    .collect(),
                in_flight: match surface {
                    Surface::Sync => 0,
                    Surface::Async => after.in_flight_async,
                    Surface::Streamed => completions.in_flight() as u64,
                },
            }
        };

        let rejected = |outcome, trace: &[&str]| Effect {
            outcome,
            submitted: 0,
            on_own_surface: 0,
            on_other_surfaces: 0,
            rejected_overloaded: u64::from(outcome == Outcome::Overloaded),
            rejected_closed: u64::from(outcome == Outcome::Closed),
            rejected_deadline: u64::from(outcome == Outcome::DeadlineInfeasible),
            trace: trace.iter().map(|e| e.to_string()).collect(),
            in_flight: 0,
        };
        // A push the queue turned away was traced but never counted as
        // submitted; a submit turned away earlier left no trace at all.
        let pushed_then_rejected = ["admitted", "queued", "failed"];
        let table = [
            (Outcome::Shape, rejected(Outcome::Shape, &[])),
            (
                Outcome::DeadlineInfeasible,
                rejected(Outcome::DeadlineInfeasible, &[]),
            ),
            (
                Outcome::Closed,
                rejected(Outcome::Closed, &pushed_then_rejected),
            ),
            (
                Outcome::Overloaded,
                rejected(Outcome::Overloaded, &pushed_then_rejected),
            ),
        ];
        for surface in [Surface::Sync, Surface::Async, Surface::Streamed] {
            let accepted = probe(surface, Outcome::Accepted);
            assert_eq!(
                accepted,
                Effect {
                    outcome: Outcome::Accepted,
                    submitted: 1,
                    on_own_surface: 1,
                    on_other_surfaces: 0,
                    rejected_overloaded: 0,
                    rejected_closed: 0,
                    rejected_deadline: 0,
                    trace: vec!["admitted".to_string(), "queued".to_string()],
                    in_flight: u64::from(surface != Surface::Sync),
                },
                "{surface:?}"
            );
            for (outcome, expected) in &table {
                if surface == Surface::Sync && *outcome == Outcome::Overloaded {
                    continue; // the blocking surface parks instead
                }
                assert_eq!(&probe(surface, *outcome), expected, "{surface:?}");
            }
        }
    }

    /// `_total` families only go up. Two threads hammer `submit_async`
    /// against a one-slot queue — most pushes bounce — while a third
    /// snapshots: no admission count ever falls between two snapshots (a
    /// rejected push used to be counted and then taken back, which a
    /// scraper reads as a counter reset), no snapshot shows more requests
    /// finished than accepted, and in the end every attempt was counted
    /// exactly once, as accepted or as rejected.
    #[test]
    fn admission_counters_never_decrease() {
        const ATTEMPTS_PER_THREAD: u64 = 3_000;
        let service = GemmService::<f64>::new(ServiceConfig {
            threads: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let start = std::sync::Barrier::new(3);
        let hammering = std::sync::atomic::AtomicUsize::new(2);
        let assert_none_fell = |before: &StatsSnapshot, after: &StatsSnapshot| {
            let totals = |s: &StatsSnapshot| {
                [
                    s.submitted,
                    s.submitted_sync,
                    s.submitted_async,
                    s.submitted_streamed,
                ]
            };
            assert!(
                totals(before)
                    .iter()
                    .zip(totals(after))
                    .all(|(b, a)| *b <= a),
                "a submitted count fell: {before:?} -> {after:?}"
            );
        };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (service, start, hammering) = (&service, &start, &hammering);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..ATTEMPTS_PER_THREAD {
                        let req = GemmRequest::new(Matrix::zeros(4, 4), Matrix::zeros(4, 4));
                        match service.submit_async(req) {
                            Ok(_) | Err(ServeError::Overloaded) => {}
                            Err(other) => panic!("unexpected submit error: {other}"),
                        }
                    }
                    hammering.fetch_sub(1, Ordering::SeqCst);
                });
            }
            start.wait();
            let mut last = service.stats();
            while hammering.load(Ordering::SeqCst) > 0 {
                let snap = service.stats();
                assert!(
                    snap.completed + snap.failed <= snap.submitted,
                    "finished before accepted: {snap:?}"
                );
                assert_none_fell(&last, &snap);
                last = snap;
            }
        });
        let end = service.shutdown();
        assert_eq!(
            end.submitted + end.rejected_overloaded,
            2 * ATTEMPTS_PER_THREAD
        );
        assert_eq!(end.completed + end.failed, end.submitted);
        assert!(
            end.rejected_overloaded > 0,
            "the queue never bounced a push"
        );
    }

    /// The four ways an admitted request can end.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum End {
        ServedOk,
        FtError,
        Shed,
        Closed,
    }

    /// Every ending is [`finish`], whatever surface the request came in
    /// by: the request's channel receives exactly one result, the ending's,
    /// `completed + failed` rises by exactly one, the turnaround sum grows,
    /// and the deadline tallies and the terminal trace event say which
    /// ending it was. No dispatcher runs, so `finish` is called by the test alone.
    #[test]
    fn every_ending_resolves_once_and_accounts_once() {
        let dim = 16usize;
        for surface in [Surface::Sync, Surface::Async, Surface::Streamed] {
            for end in [End::ServedOk, End::FtError, End::Shed, End::Closed] {
                let case = format!("{surface:?} / {end:?}");
                let service = undrained_service(0);
                let req = GemmRequest::new(
                    Matrix::<f64>::random(dim, dim, 1),
                    Matrix::<f64>::random(dim, dim, 2),
                )
                .with_deadline(std::time::Duration::from_secs(3600));
                let (sink, mut completions) = completion_channel::<f64>();
                let (mut handle, mut future) = (None, None);
                match surface {
                    Surface::Sync => handle = Some(service.submit(req).unwrap()),
                    Surface::Async => future = Some(service.submit_async(req).unwrap()),
                    Surface::Streamed => drop(service.submit_streamed(req, &sink).unwrap()),
                }
                let mut popped = service.inner.queue.pop(usize::MAX);
                assert_eq!(popped.len(), 1, "{case}");
                let env = popped.remove(0);
                let id = env.id;

                let before = service.stats();
                let turnaround_before = service.inner.stats.turnaround_ns.get();
                let trace_before = service.render_trace(64).lines().count();
                let served = |result| Ending::Served {
                    batched: true,
                    result,
                };
                finish(
                    &service.inner,
                    env,
                    match end {
                        End::ServedOk => served(Ok(FtReport {
                            verifications: 2,
                            ..FtReport::default()
                        })),
                        End::FtError => served(Err(ftgemm_abft::FtError::Unrecoverable {
                            jc: 0,
                            pc: 0,
                            detail: "test".into(),
                        })),
                        End::Shed => Ending::Shed,
                        End::Closed => Ending::Closed,
                    },
                );
                let after = service.stats();

                // Resolved, and exactly once: the surface yields one result
                // and has nothing further in flight.
                let result = match surface {
                    Surface::Sync => handle.take().unwrap().try_wait().expect("resolved"),
                    Surface::Async => {
                        let result = crate::exec::block_on(future.take().unwrap());
                        assert_eq!(after.in_flight_async, 1, "{case}: gauge held until polled");
                        assert_eq!(service.stats().in_flight_async, 0, "{case}");
                        result
                    }
                    Surface::Streamed => {
                        let c = completions.try_next().expect("delivered");
                        assert_eq!(c.id, id, "{case}");
                        assert!(completions.recv().is_none(), "{case}: delivered twice");
                        c.result
                    }
                };
                match (end, &result) {
                    (End::ServedOk, Ok(resp)) => {
                        assert!(resp.batched, "{case}");
                        assert_eq!(resp.report.verifications, 2, "{case}");
                    }
                    (End::FtError, Err(ServeError::Ft(_)))
                    | (End::Shed, Err(ServeError::DeadlineExceeded(_)))
                    | (End::Closed, Err(ServeError::Closed)) => {}
                    other => panic!("{case}: wrong result {other:?}"),
                }

                let ok = u64::from(end == End::ServedOk);
                assert_eq!(after.completed - before.completed, ok, "{case}");
                assert_eq!(after.failed - before.failed, 1 - ok, "{case}");
                assert!(
                    service.inner.stats.turnaround_ns.get() > turnaround_before,
                    "{case}: turnaround not accumulated"
                );
                assert_eq!(after.deadline_met - before.deadline_met, ok, "{case}");
                assert_eq!(after.deadline_missed, before.deadline_missed, "{case}");
                assert_eq!(
                    after.shed_deadline - before.shed_deadline,
                    u64::from(end == End::Shed),
                    "{case}"
                );

                let trace: Vec<String> = service
                    .render_trace(64)
                    .lines()
                    .skip(trace_before)
                    .map(|line| line.rsplit(' ').next().unwrap_or_default().to_string())
                    .collect();
                let expected: &[&str] = match end {
                    End::ServedOk => &["computed", "verified(passes=2)", "completed"],
                    End::FtError => &["computed", "failed"],
                    End::Shed | End::Closed => &["failed"],
                };
                assert_eq!(trace, expected, "{case}");
            }
        }
    }

    /// `threads: 0` is one pool thread per available core, and `threads: n`
    /// is exactly `n` — never more, whatever `n` is.
    #[test]
    fn threads_is_a_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (threads, expected) in [(0, cores), (1, 1), (2, 2), (3, 3)] {
            let service = GemmService::<f64>::new(ServiceConfig {
                threads,
                ..ServiceConfig::default()
            });
            assert_eq!(service.nthreads(), expected, "threads: {threads}");
            let snap = service.stats();
            assert_eq!(snap.batch_busy_per_thread.len(), expected);
        }
    }
}
