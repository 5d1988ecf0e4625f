//! Service-level counters and derived metrics.
//!
//! Every counted event is a cell in the service's [`Registry`]: the
//! statement that registers it gives the number its Prometheus family,
//! kind, help text and storage at once, [`StatsSnapshot`] reads the same
//! cells, and `/metrics` is a render of that registry. Values that are
//! live state or a formula over cells are registered by `service.rs` as
//! read cells over the methods below, so each formula exists once.

// Concurrency contract (checked by `scripts/orderings.sh`):
// snapshot counters only — Relaxed, never a synchronization point.

use ftgemm_abft::parallel::pool::PoolStats;
use ftgemm_abft::parallel::BatchTiming;
use ftgemm_abft::FtReport;
use ftgemm_obs::{Counter, Gauge, MetricKind, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel for "no request has been submitted yet".
const NO_SUBMIT: u64 = u64::MAX;

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// A nanosecond tally whose family reads in seconds.
fn seconds_counter(
    registry: &Registry,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
) -> Arc<Counter> {
    let ns = Arc::new(Counter::new());
    let cell = Arc::clone(&ns);
    registry.read_with(name, MetricKind::Counter, help, labels, move || {
        Duration::from_nanos(cell.get()).as_secs_f64()
    });
    ns
}

/// The service's counted events, each a cell of [`registry`](Self::registry)
/// updated by the submit path and the dispatcher.
#[derive(Debug)]
pub(crate) struct ServiceStats {
    /// The service-scoped registry `/metrics` renders.
    pub registry: Registry,
    started: Instant,
    /// Nanoseconds after `started` of the first admitted submission
    /// ([`NO_SUBMIT`] until then); anchors `requests_per_sec` so idle
    /// warm-up time does not dilute the reported rate.
    first_submit_ns: AtomicU64,
    /// Requests accepted through the blocking `submit` surface.
    pub submitted_sync: Arc<Counter>,
    /// Requests accepted through `submit_streamed` (completion channel).
    pub submitted_streamed: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub failed: Arc<Counter>,
    /// Submits rejected because the service was shutting down.
    pub rejected_closed: Arc<Counter>,
    /// Submits rejected by deadline admission control (infeasible before
    /// they reached the queue, so never counted on a surface).
    pub rejected_deadline: Arc<Counter>,
    /// Admitted requests load-shed at dispatch because their deadline
    /// expired while queued (each one also counts in `failed`, preserving
    /// `completed + failed <= submitted`).
    pub shed_deadline: Arc<Counter>,
    /// Completed requests that carried a deadline and finished in time.
    pub deadline_met: Arc<Counter>,
    /// Completed requests that carried a deadline and finished late.
    pub deadline_missed: Arc<Counter>,
    /// Coalesced parallel regions executed on the batched path.
    pub batches: Arc<Counter>,
    /// Of `batches`, those a caller blocked in `recv` ran on its own
    /// thread instead of the dispatcher on the pool.
    pub helped_batches: Arc<Counter>,
    /// Requests that went through the batched path.
    pub batched_requests: Arc<Counter>,
    /// Requests routed straight to the matrix-parallel driver.
    pub direct_large: Arc<Counter>,
    detected: Arc<Counter>,
    corrected: Arc<Counter>,
    injected: Arc<Counter>,
    retried_panels: Arc<Counter>,
    /// Summed submit→completion latency, nanoseconds (no family of its
    /// own: it surfaces as the mean).
    pub turnaround_ns: Counter,
    /// Summed wall time of batched regions on the pool (not a helping
    /// caller's), nanoseconds.
    batch_wall_ns: Arc<Counter>,
    /// Summed per-pool-thread busy time inside batched regions, indexed by
    /// pool thread id. The spread across threads is the batch-path
    /// occupancy imbalance.
    batch_busy_ns: Vec<Arc<Counter>>,
    /// Bytes the matrix-parallel workspace holds (0 until the first large
    /// request builds it).
    pub large_workspace_bytes: Arc<Gauge>,
}

impl ServiceStats {
    /// `threads` is the pool's size.
    pub(crate) fn new(threads: usize) -> Self {
        let registry = Registry::new();
        let counter = |name, help| registry.counter(name, help);
        let rejected = |reason| {
            registry.counter_with(
                "ftgemm_requests_rejected_total",
                "Requests rejected at submit, by reason.",
                &[("reason", reason)],
            )
        };
        // `completed` and `failed` come first: a render reads cells in
        // registration order, so a scrape — like a snapshot — loads them
        // before the submitted cells and never shows more requests finished
        // than accepted.
        let completed = counter(
            "ftgemm_requests_completed_total",
            "Requests completed successfully.",
        );
        let failed = counter(
            "ftgemm_requests_failed_total",
            "Requests completed with an error.",
        );
        registry
            .gauge("ftgemm_threads", "Worker threads in the service's pool.")
            .set(threads as f64);
        ServiceStats {
            started: Instant::now(),
            first_submit_ns: AtomicU64::new(NO_SUBMIT),
            submitted_sync: counter(
                "ftgemm_requests_submitted_sync_total",
                "Requests accepted via the blocking submit surface.",
            ),
            submitted_streamed: counter(
                "ftgemm_requests_submitted_streamed_total",
                "Requests accepted via submit_streamed.",
            ),
            completed,
            failed,
            rejected_closed: rejected("closed"),
            rejected_deadline: rejected("deadline"),
            shed_deadline: counter(
                "ftgemm_requests_shed_deadline_total",
                "Admitted requests load-shed at dispatch after their deadline expired in queue.",
            ),
            deadline_met: counter(
                "ftgemm_requests_deadline_met_total",
                "Completed requests that carried a deadline and finished in time.",
            ),
            deadline_missed: counter(
                "ftgemm_requests_deadline_missed_total",
                "Completed requests that carried a deadline and finished late.",
            ),
            batches: counter(
                "ftgemm_batches_total",
                "Coalesced parallel regions executed on the batched path.",
            ),
            helped_batches: counter(
                "ftgemm_serve_helped_batches_total",
                "Of the batched regions, those run by a caller blocked in recv on its own thread instead of the dispatcher on the pool.",
            ),
            batched_requests: counter(
                "ftgemm_batched_requests_total",
                "Requests served via the batched path.",
            ),
            direct_large: counter(
                "ftgemm_direct_large_total",
                "Requests served via the matrix-parallel path.",
            ),
            detected: counter(
                "ftgemm_ft_detected_total",
                "Checksum discrepancies flagged as real errors, service-wide.",
            ),
            corrected: counter(
                "ftgemm_ft_corrected_total",
                "Elements corrected in place, service-wide.",
            ),
            injected: counter(
                "ftgemm_ft_injected_total",
                "Errors injected by request-attached injectors, service-wide.",
            ),
            retried_panels: counter(
                "ftgemm_ft_retried_panels_total",
                "Panels recomputed under DetectCorrect, service-wide.",
            ),
            turnaround_ns: Counter::new(),
            batch_wall_ns: seconds_counter(
                &registry,
                "ftgemm_batch_wall_seconds_total",
                "Summed wall time of batched regions on the pool (not those a helping caller ran).",
                &[],
            ),
            batch_busy_ns: (0..threads)
                .map(|thread| {
                    seconds_counter(
                        &registry,
                        "ftgemm_batch_thread_busy_seconds_total",
                        "Summed busy time per pool thread inside batched regions.",
                        &[("thread", thread.to_string().as_str())],
                    )
                })
                .collect(),
            large_workspace_bytes: registry.gauge(
                "ftgemm_large_workspace_bytes",
                "Heap held by the matrix-parallel workspace (packed B~, per-thread A~, checksum state); bounded by the blocking, 0 until the first large request.",
            ),
            registry,
        }
    }

    /// Counts an admission on `surface` and stamps the first-submission
    /// instant. [`Queue`](crate::queue) calls
    /// this from inside its enqueue, so a push the queue turns away is
    /// never counted and no `_total` is ever rolled back.
    pub(crate) fn admit(&self, surface: &Counter) {
        // Stamped once: after that, one relaxed load and no clock read.
        if self.first_submit_ns.load(Ordering::Relaxed) == NO_SUBMIT {
            let ns = nanos(self.started.elapsed()).min(NO_SUBMIT - 1);
            // First writer wins; later submissions leave the anchor alone.
            let _ = self.first_submit_ns.compare_exchange(
                NO_SUBMIT,
                ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        surface.inc();
    }

    /// Folds one request's FT report into the service counters.
    pub(crate) fn absorb_report(&self, report: &FtReport) {
        self.detected.add(report.detected as u64);
        self.corrected.add(report.corrected as u64);
        self.injected.add(report.injected as u64);
        self.retried_panels.add(report.retried_panels as u64);
    }

    /// Folds one batched region's occupancy measurements into the
    /// accumulated batch-path load metrics.
    pub(crate) fn absorb_batch_timing(&self, timing: &BatchTiming) {
        self.batch_wall_ns.add(nanos(timing.wall));
        for (slot, busy) in self.batch_busy_ns.iter().zip(&timing.thread_busy) {
            slot.add(nanos(*busy));
        }
    }

    /// Requests accepted across all submit surfaces.
    pub(crate) fn submitted(&self) -> u64 {
        self.submitted_sync.get() + self.submitted_streamed.get()
    }

    /// Time since the service started.
    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Completed requests per second over the window from the first
    /// submission to `uptime` — a service idle for an hour before its first
    /// request should not report a diluted rate. `0.0` while that window is
    /// empty.
    pub(crate) fn requests_per_sec(&self, uptime: Duration) -> f64 {
        let serving = match self.first_submit_ns.load(Ordering::Relaxed) {
            NO_SUBMIT => Duration::ZERO,
            ns => uptime.saturating_sub(Duration::from_nanos(ns)),
        };
        if serving.is_zero() {
            0.0
        } else {
            self.completed.get() as f64 / serving.as_secs_f64().max(1e-9)
        }
    }

    /// Mean requests coalesced per batched region.
    pub(crate) fn mean_batch_occupancy(&self) -> f64 {
        match self.batches.get() {
            0 => 0.0,
            batches => self.batched_requests.get() as f64 / batches as f64,
        }
    }

    /// Mean submit→completion latency.
    pub(crate) fn mean_turnaround(&self) -> Duration {
        self.turnaround_ns
            .get()
            .checked_div(self.completed.get() + self.failed.get())
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Summed wall time of batched regions.
    fn batch_wall(&self) -> Duration {
        Duration::from_nanos(self.batch_wall_ns.get())
    }

    /// Mean fraction of batched-region time each thread spent busy: summed
    /// busy time over wall × threads.
    pub(crate) fn batch_thread_occupancy(&self) -> f64 {
        let busy: u64 = self.batch_busy_ns.iter().map(|ns| ns.get()).sum();
        let available = self.batch_wall().as_secs_f64() * self.batch_busy_ns.len() as f64;
        if available <= 0.0 {
            0.0
        } else {
            Duration::from_nanos(busy).as_secs_f64() / available
        }
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        pool: PoolStats,
        current_cutoff: u64,
    ) -> StatsSnapshot {
        // Loaded before the submitted cells: a request is counted as
        // submitted before it can be popped, so reading in this order never
        // shows `completed + failed > submitted`.
        let completed = self.completed.get();
        let failed = self.failed.get();
        let uptime = self.uptime();
        StatsSnapshot {
            submitted: self.submitted(),
            submitted_sync: self.submitted_sync.get(),
            submitted_streamed: self.submitted_streamed.get(),
            completed,
            failed,
            rejected_closed: self.rejected_closed.get(),
            rejected_deadline: self.rejected_deadline.get(),
            shed_deadline: self.shed_deadline.get(),
            deadline_met: self.deadline_met.get(),
            deadline_missed: self.deadline_missed.get(),
            batches: self.batches.get(),
            helped_batches: self.helped_batches.get(),
            batched_requests: self.batched_requests.get(),
            direct_large: self.direct_large.get(),
            detected: self.detected.get(),
            corrected: self.corrected.get(),
            injected: self.injected.get(),
            retried_panels: self.retried_panels.get(),
            queue_depth,
            uptime,
            requests_per_sec: self.requests_per_sec(uptime),
            current_cutoff,
            mean_batch_occupancy: self.mean_batch_occupancy(),
            mean_turnaround: self.mean_turnaround(),
            batch_wall: self.batch_wall(),
            batch_busy_per_thread: self
                .batch_busy_ns
                .iter()
                .map(|ns| Duration::from_nanos(ns.get()))
                .collect(),
            batch_thread_occupancy: self.batch_thread_occupancy(),
            large_workspace_bytes: self.large_workspace_bytes.get() as u64,
            pool,
        }
    }
}

/// Point-in-time view of a service's activity.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Requests accepted across all submit surfaces.
    pub submitted: u64,
    /// Requests accepted via blocking [`submit`](crate::GemmService::submit).
    pub submitted_sync: u64,
    /// Requests accepted via
    /// [`submit_streamed`](crate::GemmService::submit_streamed).
    pub submitted_streamed: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error.
    pub failed: u64,
    /// Submits rejected with [`ServeError::Closed`](crate::ServeError)
    /// (service shutting down). Rejected requests are **not** counted in
    /// [`submitted`](Self::submitted).
    pub rejected_closed: u64,
    /// Submits rejected with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError) by admission
    /// control: the queue's flops backlog plus the request's flops, at the
    /// measured ns/flop of the path the cutoff sends the request to, would
    /// finish past the deadline. Not counted in
    /// [`submitted`](Self::submitted).
    pub rejected_deadline: u64,
    /// Admitted requests shed at dispatch because their deadline expired
    /// while queued. Each is also counted in [`failed`](Self::failed).
    pub shed_deadline: u64,
    /// Completed requests that carried a deadline and finished in time.
    pub deadline_met: u64,
    /// Completed requests that carried a deadline and finished late.
    pub deadline_missed: u64,
    /// Coalesced parallel regions executed on the batched path.
    pub batches: u64,
    /// Of [`batches`](Self::batches), those a caller blocked in
    /// [`Completions::recv`](crate::Completions::recv) ran on its own
    /// thread instead of the dispatcher on the pool.
    pub helped_batches: u64,
    /// Requests served via the batched path.
    pub batched_requests: u64,
    /// Requests served via the matrix-parallel path.
    pub direct_large: u64,
    /// Checksum discrepancies flagged as real errors, service-wide.
    pub detected: u64,
    /// Elements corrected in place, service-wide.
    pub corrected: u64,
    /// Errors injected by request-attached injectors, service-wide.
    pub injected: u64,
    /// Panels recomputed under `DetectCorrect`, service-wide.
    pub retried_panels: u64,
    /// Envelopes waiting in the queue right now.
    pub queue_depth: usize,
    /// Time since the service started.
    pub uptime: Duration,
    /// Completed requests per second, measured from the **first
    /// submission** (not service construction) to the snapshot instant, so
    /// an idle-then-busy service is not diluted toward zero by its warm-up
    /// gap. `0.0` before any request has been submitted.
    pub requests_per_sec: f64,
    /// The flops cutoff the scheduler routes by: the service's
    /// [`RoutingPolicy::Fixed`](crate::RoutingPolicy) value, constant for
    /// its life.
    pub current_cutoff: u64,
    /// Mean requests coalesced per batched region.
    pub mean_batch_occupancy: f64,
    /// Mean submit→completion latency.
    pub mean_turnaround: Duration,
    /// Summed wall time of all batched regions on the pool (the batches
    /// of [`helped_batches`](Self::helped_batches) add nothing here).
    pub batch_wall: Duration,
    /// Summed busy time per pool thread inside batched regions, indexed by
    /// pool thread id (one entry per thread). A wide spread means the
    /// dynamic item cursor is leaving threads idle behind long items.
    pub batch_busy_per_thread: Vec<Duration>,
    /// Mean fraction of batched-region time each thread spent busy:
    /// `sum(batch_busy_per_thread) / (batch_wall × threads)`, in `[0, 1]`
    /// up to timer noise; `0.0` before any batch has run.
    pub batch_thread_occupancy: f64,
    /// Bytes the matrix-parallel workspace holds: `0` until the first large
    /// request, then at most what the blocking allows (`kc·nc +
    /// threads·mc·kc` elements plus O(m + n + k) checksum state).
    pub large_workspace_bytes: u64,
    /// Worker-pool activity (regions, barrier crossings).
    pub pool: PoolStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_rates() {
        let s = ServiceStats::new(2);
        for _ in 0..10 {
            s.admit(&s.submitted_sync);
        }
        s.completed.add(8);
        s.batches.add(2);
        s.batched_requests.add(6);
        s.turnaround_ns.add(8_000_000);
        // Snapshots are taken strictly after the first admission, so the
        // serving window is non-empty and the rate is positive.
        std::thread::sleep(Duration::from_millis(2));
        let snap = s.snapshot(3, PoolStats::default(), 0);
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.submitted_sync, 10);
        assert_eq!(snap.queue_depth, 3);
        assert!(snap.requests_per_sec > 0.0);
        assert!((snap.mean_batch_occupancy - 3.0).abs() < 1e-12);
        assert_eq!(snap.mean_turnaround, Duration::from_nanos(1_000_000));
        assert_eq!(snap.batch_thread_occupancy, 0.0, "no timing absorbed yet");
    }

    #[test]
    fn requests_per_sec_measured_from_first_submission() {
        let s = ServiceStats::new(1);
        // Before any submission: no serving window, rate pinned to zero
        // (previously this divided completed work by construction uptime).
        let snap = s.snapshot(0, PoolStats::default(), 0);
        assert_eq!(snap.requests_per_sec, 0.0);

        // An idle gap before the first submission must not dilute the
        // rate: the serving window starts at `admit`, not at `new`, so the
        // reported rate is strictly above what the old construction-
        // anchored formula (completed / uptime) would give. Comparing
        // against that formula instead of a fixed rate keeps the test
        // immune to descheduling between admit and snapshot.
        std::thread::sleep(Duration::from_millis(30));
        s.admit(&s.submitted_sync);
        s.completed.add(1);
        std::thread::sleep(Duration::from_millis(2));
        let snap = s.snapshot(0, PoolStats::default(), 0);
        let construction_anchored = snap.completed as f64 / snap.uptime.as_secs_f64();
        assert!(
            snap.requests_per_sec > construction_anchored,
            "rate diluted by pre-submit idle time: {} vs {construction_anchored}",
            snap.requests_per_sec
        );
        assert!(snap.uptime >= Duration::from_millis(30), "uptime unchanged");
    }

    #[test]
    fn absorb_report_accumulates() {
        let s = ServiceStats::new(1);
        s.absorb_report(&FtReport {
            verifications: 4,
            detected: 2,
            corrected: 2,
            injected: 3,
            retried_panels: 1,
        });
        s.absorb_report(&FtReport::default());
        let snap = s.snapshot(0, PoolStats::default(), 0);
        assert_eq!(snap.detected, 2);
        assert_eq!(snap.corrected, 2);
        assert_eq!(snap.injected, 3);
        assert_eq!(snap.retried_panels, 1);
    }

    #[test]
    fn absorb_batch_timing_accumulates_per_thread() {
        let s = ServiceStats::new(2);
        s.absorb_batch_timing(&BatchTiming {
            wall: Duration::from_millis(10),
            thread_busy: vec![Duration::from_millis(9), Duration::from_millis(7)],
        });
        s.absorb_batch_timing(&BatchTiming {
            wall: Duration::from_millis(10),
            thread_busy: vec![Duration::from_millis(10), Duration::from_millis(6)],
        });
        let snap = s.snapshot(0, PoolStats::default(), 0);
        assert_eq!(snap.batch_wall, Duration::from_millis(20));
        assert_eq!(
            snap.batch_busy_per_thread,
            vec![Duration::from_millis(19), Duration::from_millis(13)]
        );
        // 32ms busy over 20ms * 2 threads = 0.8 occupancy.
        assert!((snap.batch_thread_occupancy - 0.8).abs() < 1e-9);
    }
}
