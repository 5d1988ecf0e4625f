//! End-to-end tests of the serving subsystem: concurrent mixed-size traffic
//! must be bit-identical to the serial reference per request, and injected
//! faults under `DetectCorrect` must be corrected and surfaced.

use ftgemm::core::reference::naive_gemm;
use ftgemm::serve::{
    completion_channel, FtPolicy, GemmRequest, GemmService, RoutePath, RoutingPolicy, ServeError,
    ServiceConfig,
};
use ftgemm::{FaultInjector, Matrix};
use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

fn service(threads: usize, max_batch: usize) -> GemmService<f64> {
    GemmService::new(ServiceConfig {
        threads,
        max_batch,
        // Pin the routing cutoff so the test's size mix deterministically
        // exercises both paths regardless of the config default.
        routing: RoutingPolicy::Fixed(2 * 96 * 96 * 96),
        ..ServiceConfig::default()
    })
}

/// (a) N concurrent mixed-size requests, submitted from several frontend
/// threads, each produce the same result as a serial naive GEMM.
#[test]
fn concurrent_mixed_sizes_match_serial_reference() {
    // Shapes straddle the small/large cutoff so both paths are exercised;
    // alpha/beta vary per request.
    let shapes = [
        (8usize, 8usize, 8usize),
        (33, 17, 25),
        (64, 64, 64),
        (1, 96, 40),
        (200, 160, 120), // above the pinned cutoff: matrix-parallel path
        (50, 3, 77),
        (128, 128, 96),  // above the pinned cutoff
        (240, 200, 100), // above the pinned cutoff
    ];
    let service = Arc::new(service(4, 4));

    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for (i, &(m, n, k)) in shapes.iter().enumerate() {
                    let seed = (t * 100 + i) as u64;
                    let a = Matrix::<f64>::random(m, k, seed);
                    let b = Matrix::<f64>::random(k, n, seed + 1);
                    let c0 = Matrix::<f64>::random(m, n, seed + 2);
                    let alpha = 1.0 + (i as f64) * 0.25;
                    let beta = if i % 2 == 0 { 0.5 } else { 0.0 };
                    let policy = match i % 3 {
                        0 => FtPolicy::Off,
                        1 => FtPolicy::Detect,
                        _ => FtPolicy::DetectCorrect,
                    };
                    let req = GemmRequest::new(a.clone(), b.clone())
                        .with_alpha(alpha)
                        .with_c(beta, c0.clone())
                        .with_policy(policy);
                    let handle = service.submit(req).unwrap();
                    out.push((a, b, c0, alpha, beta, handle));
                }
                // Wait for all of this thread's requests and check them.
                for (a, b, c0, alpha, beta, handle) in out {
                    let resp = handle.wait().unwrap();
                    let mut expected = c0;
                    naive_gemm(
                        alpha,
                        &a.as_ref(),
                        &b.as_ref(),
                        beta,
                        &mut expected.as_mut(),
                    );
                    let d = resp.c.rel_max_diff(&expected);
                    assert!(d < 1e-10, "diff {d} for {}x{}", a.nrows(), b.ncols());
                    assert_eq!(resp.report.detected, 0, "false positive");
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().unwrap();
    }

    let snap = service.stats();
    assert_eq!(snap.submitted, (4 * shapes.len()) as u64);
    assert_eq!(snap.completed, snap.submitted);
    assert_eq!(snap.failed, 0);
    // Both routing paths must have been used.
    assert!(snap.direct_large >= 8, "large path unused: {snap:?}");
    assert!(snap.batched_requests > 0, "batched path unused: {snap:?}");
}

/// (b) With a per-request `FaultInjector` and `DetectCorrect`, injected
/// errors are corrected (result matches the clean reference) and surfaced in
/// the request's own `FtReport`.
#[test]
fn injected_errors_corrected_and_surfaced() {
    let service = service(3, 8);
    let mut checks = Vec::new();
    for i in 0..6u64 {
        let (m, n, k) = (96, 80, 64);
        let a = Matrix::<f64>::random(m, k, 10 + i);
        let b = Matrix::<f64>::random(k, n, 20 + i);
        let inj = FaultInjector::counted(300 + i, 2);
        let req = GemmRequest::new(a.clone(), b.clone())
            .with_policy(FtPolicy::DetectCorrect)
            .with_injector(inj);
        checks.push((a, b, service.submit(req).unwrap()));
    }

    let mut total_injected = 0;
    for (a, b, handle) in checks {
        let resp = handle.wait().unwrap();
        let mut expected = Matrix::<f64>::zeros(a.nrows(), b.ncols());
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
        assert!(
            resp.c.rel_max_diff(&expected) < 1e-9,
            "corrupted result slipped through: diff {} report {:?}",
            resp.c.rel_max_diff(&expected),
            resp.report
        );
        // Surfaced per request: every injected error was corrected.
        assert!(
            resp.report.injected > 0,
            "injector never fired: {:?}",
            resp.report
        );
        assert_eq!(
            resp.report.corrected, resp.report.injected,
            "{:?}",
            resp.report
        );
        total_injected += resp.report.injected;
    }
    assert!(total_injected >= 6);

    // And service-wide counters aggregate the per-request reports.
    let snap = service.stats();
    assert_eq!(snap.injected, total_injected as u64);
    assert_eq!(snap.corrected, snap.injected);
}

/// Polls every future to completion on this thread, parking between
/// rounds. The waker unparks the thread, and a wake that lands mid-round
/// leaves its park token set, so the next park returns at once.
fn block_on_all<F: Future + Unpin>(mut futures: Vec<F>) -> Vec<F::Output> {
    struct Unpark(std::thread::Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut outputs: Vec<Option<F::Output>> = futures.iter().map(|_| None).collect();
    while outputs.iter().any(Option::is_none) {
        for (future, out) in futures.iter_mut().zip(&mut outputs) {
            if out.is_none() {
                if let Poll::Ready(v) = Pin::new(future).poll(&mut cx) {
                    *out = Some(v);
                }
            }
        }
        if outputs.iter().any(Option::is_none) {
            std::thread::park();
        }
    }
    outputs.into_iter().map(Option::unwrap).collect()
}

/// (d) 96 concurrent submissions across both routing paths, each into a
/// one-request completion channel whose `next()` is its future, all
/// driven by one executor thread; each matches the serial reference, every
/// channel ends drained, and per-surface counters balance.
#[test]
fn concurrent_async_requests_match_serial_reference() {
    let service = service(3, 8);
    let mut channels = Vec::new();
    let mut references = Vec::new();
    for i in 0..96u64 {
        // Every 8th request is above the pinned cutoff → matrix-parallel.
        let (m, n, k) = if i % 8 == 0 {
            (160, 128, 96)
        } else {
            (40, 32, 24)
        };
        let a = Matrix::<f64>::random(m, k, 700 + i);
        let b = Matrix::<f64>::random(k, n, 800 + i);
        let mut expected = Matrix::<f64>::zeros(m, n);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
        let (sink, completions) = completion_channel::<f64>();
        let id = service
            .submit_streamed(GemmRequest::new(a, b), &sink)
            .unwrap();
        channels.push((id, completions));
        references.push(expected);
    }

    let futures = channels.iter_mut().map(|(_, c)| c.next()).collect();
    let results = block_on_all(futures);
    for (i, (done, expected)) in results.into_iter().zip(&references).enumerate() {
        let done = done.expect("an admitted request always completes");
        assert_eq!(
            done.id, channels[i].0,
            "request {i}: another request's result"
        );
        let d = done.result.unwrap().c.rel_max_diff(expected);
        assert!(d < 1e-10, "request {i}: diff {d}");
    }
    assert!(
        channels
            .iter()
            .all(|(_, c)| c.in_flight() == 0 && c.ready_len() == 0),
        "a channel holds a second completion"
    );

    let snap = service.stats();
    assert_eq!(snap.submitted_streamed, 96);
    assert_eq!(snap.submitted_sync, 0);
    assert_eq!(snap.completed, 96);
    assert!(snap.direct_large >= 12, "large path unused: {snap:?}");
    assert!(snap.batched_requests > 0, "batched path unused: {snap:?}");
}

/// (e) The completion-channel bridge: submissions from several threads all
/// drain through one stream, tagged with the ids submit returned.
#[test]
fn streamed_completions_drain_from_many_submitters() {
    let service = Arc::new(service(2, 4));
    let (sink, mut completions) = completion_channel::<f64>();

    let mut expected_ids = Vec::new();
    let submitters: Vec<_> = (0..3)
        .map(|t| {
            let service = Arc::clone(&service);
            let sink = sink.clone();
            std::thread::spawn(move || {
                (0..16u64)
                    .map(|i| {
                        let seed = t * 1000 + i;
                        let a = Matrix::<f64>::random(20, 20, seed);
                        let b = Matrix::<f64>::random(20, 20, seed + 1);
                        service
                            .submit_streamed(GemmRequest::new(a, b), &sink)
                            .unwrap()
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    for s in submitters {
        expected_ids.extend(s.join().unwrap());
    }

    let mut got_ids = Vec::new();
    while let Some(completion) = completions.recv() {
        completion.result.unwrap();
        got_ids.push(completion.id);
    }
    expected_ids.sort_unstable();
    got_ids.sort_unstable();
    assert_eq!(got_ids, expected_ids);
    assert_eq!(service.stats().submitted_streamed, 48);
}

/// (f) Batch-path load metrics accumulate: after batched traffic the
/// per-thread busy times are populated, bounded by the summed region wall
/// time, and the derived occupancy is a sane fraction.
#[test]
fn batch_load_metrics_populated() {
    let service = service(2, 8);
    let mut handles = Vec::new();
    for i in 0..32u64 {
        let a = Matrix::<f64>::random(48, 48, i);
        let b = Matrix::<f64>::random(48, 48, i + 300);
        handles.push(service.submit(GemmRequest::new(a, b)).unwrap());
    }
    for h in handles {
        h.wait().unwrap();
    }
    let snap = service.stats();
    assert_eq!(snap.batch_busy_per_thread.len(), 2);
    assert!(snap.batch_wall > std::time::Duration::ZERO);
    let slack = std::time::Duration::from_millis(2);
    for (t, busy) in snap.batch_busy_per_thread.iter().enumerate() {
        assert!(
            *busy <= snap.batch_wall + slack,
            "thread {t} busy {busy:?} exceeds wall {:?}",
            snap.batch_wall
        );
    }
    assert!(snap.batch_thread_occupancy > 0.0);
    assert!(snap.batch_thread_occupancy <= 1.0 + 1e-6);
}

/// (h) Routing choice never changes numerical results: the same problems
/// through an all-batched service and an all-parallel service produce
/// bit-identical outputs. Both execution paths preserve each element's
/// accumulation order, so this is exact equality on the bits, not a
/// tolerance check.
#[test]
fn routing_choice_never_changes_results() {
    let mk_service = |routing| {
        GemmService::<f64>::new(ServiceConfig {
            threads: 3,
            max_batch: 4,
            routing,
            ..ServiceConfig::default()
        })
    };
    let all_batched = mk_service(RoutingPolicy::Fixed(u64::MAX));
    let all_parallel = mk_service(RoutingPolicy::Fixed(0));

    let shapes = [(48usize, 40usize, 32usize), (96, 80, 64), (130, 110, 70)];
    for round in 0..4u64 {
        for (i, &(m, n, k)) in shapes.iter().enumerate() {
            let seed = round * 100 + i as u64;
            let a = Matrix::<f64>::random(m, k, seed);
            let b = Matrix::<f64>::random(k, n, seed + 1);
            let c0 = Matrix::<f64>::random(m, n, seed + 2);
            let policy = if i % 2 == 0 {
                FtPolicy::DetectCorrect
            } else {
                FtPolicy::Off
            };
            let req = || {
                GemmRequest::new(a.clone(), b.clone())
                    .with_alpha(1.25)
                    .with_c(0.5, c0.clone())
                    .with_policy(policy)
            };
            let batched = all_batched.run(req()).unwrap();
            let parallel = all_parallel.run(req()).unwrap();
            assert!(batched.batched, "forced-batched service took large path");
            assert!(!parallel.batched, "forced-parallel service batched");

            let bits = |m: &Matrix<f64>| -> Vec<u64> {
                m.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(&batched.c),
                bits(&parallel.c),
                "paths disagree at {m}x{n}x{k} round {round}"
            );
        }
    }
}

/// Satellite regression (counter race): `submitted` is counted at
/// admission, so a snapshot racing the scheduler can never observe
/// `completed + failed > submitted`. Hammers tiny requests from several
/// submitter threads while a watcher thread validates every snapshot.
#[test]
fn snapshot_invariant_holds_under_concurrent_submit() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let service = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        max_batch: 8,
        ..ServiceConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut checked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = service.stats();
                assert!(
                    snap.completed + snap.failed <= snap.submitted,
                    "invariant violated: {snap:?}"
                );
                checked += 1;
            }
            checked
        })
    };

    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..64u64 {
                    let seed = t * 1_000 + i;
                    let a = Matrix::<f64>::random(8, 8, seed);
                    let b = Matrix::<f64>::random(8, 8, seed + 1);
                    // Tiny problems complete almost instantly, maximizing
                    // the submit/complete race window the fix closes.
                    service
                        .submit(GemmRequest::new(a, b))
                        .unwrap()
                        .wait()
                        .unwrap();
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    assert!(watcher.join().unwrap() > 0, "watcher never snapshotted");

    let snap = service.stats();
    assert_eq!(snap.submitted, 256);
    assert_eq!(snap.completed + snap.failed, 256);
}

/// Counter rollback: submissions rejected at admission must not inflate
/// `submitted`, so accepted == completed == submitted once drained. A
/// streamed submit that is turned away leaves its sink untouched too: the
/// sink counts exactly the accepted ones, and its stream ends after their
/// ids. Every other submit carries a deadline the seeded batched-path
/// evidence makes infeasible.
#[test]
fn rejected_submissions_do_not_inflate_counters() {
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 1,
        max_batch: 1,
        ..ServiceConfig::default()
    });
    let flops = 2 * 32 * 32 * 32;
    service.seed_routing(RoutePath::Batched, flops, flops * 1_000);
    let request = |i: u64| {
        let req = GemmRequest::new(
            Matrix::<f64>::random(32, 32, i),
            Matrix::<f64>::random(32, 32, i + 1),
        );
        if i % 2 == 1 {
            req.with_deadline(Duration::from_nanos(1))
        } else {
            req
        }
    };
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..64u64 {
        match service.submit(request(i)) {
            Ok(handle) => accepted.push(handle),
            Err(ServeError::DeadlineExceeded(_)) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let accepted_count = accepted.len() as u64;
    for handle in accepted {
        handle.wait().unwrap();
    }
    let snap = service.stats();
    assert_eq!((accepted_count, rejected), (32, 32));
    assert_eq!(
        snap.submitted, accepted_count,
        "rejections leaked into submitted"
    );
    assert_eq!(snap.submitted_sync, accepted_count);
    assert_eq!(snap.rejected_deadline, rejected);
    assert_eq!(snap.completed, accepted_count);

    // Occupy the one dispatcher with a large request, so nothing streamed
    // below completes before the sink's count is read.
    let n = if cfg!(debug_assertions) { 384 } else { 1024 };
    let blocker = service
        .submit(GemmRequest::new(
            Matrix::<f64>::random(n, n, 1),
            Matrix::<f64>::random(n, n, 2),
        ))
        .unwrap();
    let dispatched =
        |s: &ftgemm::serve::StatsSnapshot| -> u64 { s.batched_requests + s.direct_large };
    let deadline = Instant::now() + Duration::from_secs(60);
    while dispatched(&service.stats()) < accepted_count + 1 {
        assert!(Instant::now() < deadline, "the blocker never started");
        std::thread::yield_now();
    }
    let (sink, mut completions) = completion_channel::<f64>();
    let mut streamed = Vec::new();
    let mut streamed_rejected = 0u64;
    for i in 100..116u64 {
        match service.submit_streamed(request(i), &sink) {
            Ok(id) => streamed.push(id),
            Err(ServeError::DeadlineExceeded(_)) => streamed_rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(streamed_rejected, 8);
    assert_eq!(completions.in_flight(), streamed.len());
    assert_eq!(
        service.stats().completed,
        accepted_count,
        "the blocker finished before the sink was read"
    );
    drop(sink);
    blocker.wait().unwrap();
    let mut seen = Vec::new();
    while let Some(c) = completions.recv() {
        c.result.unwrap();
        seen.push(c.id);
    }
    seen.sort_unstable();
    assert_eq!(seen, streamed, "one completion per accepted id");
    assert_eq!(service.stats().submitted_streamed, streamed.len() as u64);
}

/// Handles outstanding at shutdown still resolve (drain-on-drop), and the
/// final stats balance.
#[test]
fn shutdown_drains_outstanding_requests() {
    let service = service(2, 4);
    let mut handles = Vec::new();
    for i in 0..32u64 {
        let a = Matrix::<f64>::random(24, 24, i);
        let b = Matrix::<f64>::random(24, 24, i + 1000);
        handles.push(service.submit(GemmRequest::new(a, b)).unwrap());
    }
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 32);
    assert_eq!(stats.completed + stats.failed, 32);
    for h in handles {
        h.wait().unwrap();
    }
}

/// (i) Two services share nothing — each has its own pool and its own
/// dispatcher — so they run matrix-parallel regions at the same
/// time without queueing on each other. Both are driven from their own
/// thread through a start barrier; a bounded wait turns a cross-service
/// deadlock into a failure instead of a hang.
#[test]
fn two_services_sharing_nothing_run_concurrently() {
    const REQUESTS: u64 = 12;
    let start = Arc::new(std::sync::Barrier::new(2));
    let drivers: Vec<_> = (0..2u64)
        .map(|s| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let service = GemmService::<f64>::new(ServiceConfig {
                    threads: 2,
                    // Everything takes the matrix-parallel path.
                    routing: RoutingPolicy::Fixed(0),
                    ..ServiceConfig::default()
                });
                start.wait();
                let pending: Vec<_> = (0..REQUESTS)
                    .map(|i| {
                        let seed = s * 10_000 + i;
                        let a = Matrix::<f64>::random(72, 56, seed);
                        let b = Matrix::<f64>::random(56, 64, seed + 1);
                        let handle = service
                            .submit(GemmRequest::new(a.clone(), b.clone()))
                            .unwrap();
                        (a, b, handle)
                    })
                    .collect();
                for (a, b, handle) in pending {
                    let resp = handle
                        .wait_timeout(std::time::Duration::from_secs(60))
                        .unwrap_or_else(|_| panic!("service {s} stalled"))
                        .unwrap();
                    assert!(!resp.batched);
                    let mut expected = Matrix::<f64>::zeros(72, 64);
                    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
                    assert!(resp.c.rel_max_diff(&expected) < 1e-10);
                }
                let snap = service.shutdown();
                assert_eq!(snap.direct_large, REQUESTS);
                assert_eq!(snap.completed, REQUESTS);
                // One region per large request on this service's own pool:
                // nothing of the other service's ran here.
                assert_eq!(snap.pool.regions, REQUESTS);
            })
        })
        .collect();
    for d in drivers {
        d.join().unwrap();
    }
}

/// Hammer: four frontend threads blast streamed requests into one default
/// service at once; no request is lost and none is delivered or
/// dispatched twice.
#[test]
fn hammer_no_request_lost_or_double_executed() {
    let service = Arc::new(GemmService::<f64>::new(ServiceConfig::default()));
    let (sink, mut completions) = completion_channel::<f64>();

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50;
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let sink = sink.clone();
            std::thread::spawn(move || {
                (0..PER_THREAD)
                    .map(|i| {
                        let seed = t * 10_000 + i;
                        let a = Matrix::<f64>::random(16, 16, seed);
                        let b = Matrix::<f64>::random(16, 16, seed + 1);
                        service
                            .submit_streamed(GemmRequest::new(a, b), &sink)
                            .unwrap()
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let mut expected_ids = Vec::new();
    for s in submitters {
        expected_ids.extend(s.join().unwrap());
    }
    drop(sink);

    let mut seen = HashSet::new();
    while let Some(c) = completions.recv() {
        c.result.unwrap();
        assert!(seen.insert(c.id), "request {} delivered twice", c.id);
    }
    let expected: HashSet<u64> = expected_ids.iter().copied().collect();
    assert_eq!(expected.len(), (THREADS * PER_THREAD) as usize);
    assert_eq!(seen, expected, "every submitted request completes once");

    let snap = service.stats();
    assert_eq!(snap.submitted, THREADS * PER_THREAD);
    assert_eq!(snap.completed, THREADS * PER_THREAD);
    assert_eq!(snap.failed, 0);
    assert_eq!(
        snap.batched_requests + snap.direct_large,
        THREADS * PER_THREAD,
        "each request dispatched exactly once: {snap:?}"
    );
}

/// A caller blocked in `recv` computes: a one-thread service's dispatcher
/// is held by one large request, and the small requests queued behind it
/// are run by the caller waiting for them, on its own thread, before the
/// large one completes.
#[test]
fn a_blocked_caller_runs_the_small_requests_queued_behind_a_large_one() {
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 1,
        routing: RoutingPolicy::Fixed(2 * 64 * 64 * 64),
        ..ServiceConfig::default()
    });
    let n = 768;
    let large = service
        .submit(GemmRequest::new(
            Matrix::<f64>::random(n, n, 1),
            Matrix::<f64>::random(n, n, 2),
        ))
        .unwrap();
    // The dispatcher has taken the large request once the queue is empty.
    while service.stats().queue_depth > 0 {
        std::thread::yield_now();
    }

    let (sink, mut completions) = completion_channel::<f64>();
    let mut small = Vec::new();
    for i in 0..3u64 {
        let a = Matrix::<f64>::random(16, 24, 10 + i);
        let b = Matrix::<f64>::random(24, 8, 20 + i);
        let mut expected = Matrix::<f64>::zeros(16, 8);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
        let id = service
            .submit_streamed(GemmRequest::new(a, b), &sink)
            .unwrap();
        small.push((id, expected));
    }
    for (id, expected) in &small {
        let done = completions.recv().expect("a small completion");
        assert_eq!(done.id, *id, "completions leave in queue order");
        let resp = done.result.unwrap();
        assert!(resp.batched);
        assert!(resp.c.rel_max_diff(expected) < 1e-12);
    }
    let snap = service.stats();
    assert_eq!(
        snap.completed, 3,
        "the large request finished first: {snap:?}"
    );
    assert_eq!(snap.helped_batches, 3, "{snap:?}");
    assert_eq!(snap.batches, 3, "{snap:?}");
    assert_eq!(
        snap.batch_wall,
        Duration::ZERO,
        "a small batch ran on the pool: {snap:?}"
    );

    large.wait().unwrap();
    let end = service.shutdown();
    assert_eq!(end.completed, 4);
    assert_eq!(end.direct_large, 1);
}

/// Eight submitters on every surface at once, each of them helping while
/// it waits: every id completes exactly once, bit-identical to a serial
/// reference, and the service's books close (`completed + failed ==
/// submitted`).
#[test]
fn eight_submitters_complete_every_id_exactly_once() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 24;
    let service = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 1,
        max_batch: 4,
        // 40^3 and up are large: both paths, and large requests at the
        // queue's front that helpers must leave to the dispatcher.
        routing: RoutingPolicy::Fixed(2 * 32 * 32 * 32),
        ..ServiceConfig::default()
    }));
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let (sink, mut completions) = completion_channel::<f64>();
                let mut ids = Vec::new();
                let mut streamed = std::collections::HashMap::new();
                for i in 0..PER_THREAD {
                    let seed = t * 1_000 + i;
                    let dim = [8, 16, 24, 40][(i % 4) as usize];
                    let a = Matrix::<f64>::random(dim, dim, seed);
                    let b = Matrix::<f64>::random(dim, dim, seed + 500);
                    let mut expected = Matrix::<f64>::zeros(dim, dim);
                    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
                    let req = GemmRequest::new(a, b).with_policy(FtPolicy::DetectCorrect);
                    if i % 2 == 0 {
                        let handle = service.submit(req).unwrap();
                        ids.push(handle.id());
                        let c = handle.wait().unwrap().c;
                        assert!(c.rel_max_diff(&expected) < 1e-12, "request {seed}");
                    } else {
                        let id = service.submit_streamed(req, &sink).unwrap();
                        ids.push(id);
                        streamed.insert(id, expected);
                    }
                }
                while let Some(done) = completions.recv() {
                    let expected = streamed.remove(&done.id).expect("an id of ours, once");
                    let c = done.result.unwrap().c;
                    assert!(c.rel_max_diff(&expected) < 1e-12, "request {}", done.id);
                }
                assert!(streamed.is_empty(), "undelivered: {:?}", streamed.keys());
                ids
            })
        })
        .collect();
    let mut seen = HashSet::new();
    for s in submitters {
        for id in s.join().unwrap() {
            assert!(seen.insert(id), "id {id} handed out twice");
        }
    }
    assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);
    let service = Arc::into_inner(service).expect("submitters are done");
    let end = service.shutdown();
    assert_eq!(end.submitted, THREADS * PER_THREAD);
    assert_eq!(end.completed + end.failed, end.submitted, "{end:?}");
    assert_eq!(end.failed, 0);
    assert_eq!(
        end.batched_requests + end.direct_large,
        end.submitted,
        "each request ran exactly once: {end:?}"
    );
}
