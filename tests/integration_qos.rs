//! Integration coverage for deadlines: model-driven admission control
//! (each routing path's measured ns/flop), feasible deadlines
//! completing on a default service, and load-shedding of
//! expired-while-queued requests across every submit surface.

use ftgemm::core::Matrix;
use ftgemm::serve::{
    completion_channel, GemmRequest, GemmService, RoutePath, RoutingPolicy, ServeError,
    ServiceConfig,
};
use std::time::Duration;

fn problem(seed: u64, dim: usize) -> GemmRequest<f64> {
    GemmRequest::new(
        Matrix::<f64>::random(dim, dim, seed),
        Matrix::<f64>::random(dim, dim, seed + 500),
    )
}

/// Admission control is each path's measured ns/flop: identical services
/// whose batched totals are seeded with a slow vs fast ns/flop flip the
/// *same* submit from rejected to admitted. The
/// decision reads only seeded evidence — no wall clock, no warm-up
/// requests — so the flip is deterministic.
#[test]
fn admission_decision_flips_with_seeded_ns_per_flop() {
    let dim = 64usize;
    let flops = 2 * (dim as u64).pow(3); // below the default cutoff: batched path
    let service_seeded = |ns_per_flop: u64| {
        let service = GemmService::<f64>::new(ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        });
        // Identical samples keep the batched path's Σns/Σflops exactly
        // `ns_per_flop`.
        for _ in 0..4 {
            service.seed_routing(RoutePath::Batched, flops, flops * ns_per_flop);
        }
        service
    };
    let deadline = Duration::from_millis(50);

    // Seeded at 100_000 ns/flop, this 524288-flop request predicts ~52s —
    // hopeless against a 50ms deadline.
    let slow = service_seeded(100_000);
    let err = slow
        .submit(problem(1, dim).with_deadline(deadline))
        .unwrap_err();
    match &err {
        ServeError::DeadlineExceeded(detail) => {
            assert!(detail.contains("infeasible at admission"), "{detail}");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // Rejected before admission: never submitted, counted under the
    // deadline reason.
    let snap = slow.shutdown();
    assert_eq!(snap.submitted, 0);
    assert_eq!(snap.rejected_deadline, 1);

    // Seeded at 1 ns/flop the same submit predicts ~0.5ms — admitted, and
    // it really does finish inside the deadline.
    let fast = service_seeded(1);
    let resp = fast
        .submit(problem(1, dim).with_deadline(deadline))
        .expect("fast-seeded service must admit the same deadline")
        .wait()
        .unwrap();
    assert_eq!(resp.c.nrows(), dim);
    let snap = fast.shutdown();
    assert_eq!(snap.submitted, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.rejected_deadline, 0);
}

/// Under an explicit fixed cutoff too, admission reads the measured ns/flop
/// of the path the cutoff sends the request to, and only that path's:
/// seeded slow on the batched path, a batched-size request with an
/// infeasible deadline is rejected; seeded slow on the matrix-parallel path
/// only, the same request is admitted and served, while a parallel-size one
/// is rejected.
#[test]
fn fixed_cutoff_admission_reads_only_the_routed_paths_evidence() {
    let cutoff = 2 * 96 * 96 * 96;
    let (small, large) = (64usize, 128usize);
    let flops = |dim: usize| 2 * (dim as u64).pow(3);
    assert!(flops(small) <= cutoff && flops(large) > cutoff);
    let service_seeded_slow = |path: RoutePath, dim: usize| {
        let service = GemmService::<f64>::new(ServiceConfig {
            threads: 1,
            routing: RoutingPolicy::Fixed(cutoff),
            ..ServiceConfig::default()
        });
        service.seed_routing(path, flops(dim), flops(dim) * 100_000);
        service
    };
    // Slow evidence predicts ~52s for the small request and ~7min for the
    // large one; an admitted request has ample time to reach a worker.
    let deadline = Duration::from_secs(10);
    let rejected = |service: &GemmService<f64>, dim: usize| match service
        .submit(problem(1, dim).with_deadline(deadline))
        .unwrap_err()
    {
        ServeError::DeadlineExceeded(detail) => {
            assert!(detail.contains("infeasible at admission"), "{detail}");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    };

    let slow_batched = service_seeded_slow(RoutePath::Batched, small);
    rejected(&slow_batched, small);
    let snap = slow_batched.shutdown();
    assert_eq!(snap.submitted, 0);
    assert_eq!(snap.rejected_deadline, 1);

    let slow_parallel = service_seeded_slow(RoutePath::Parallel, large);
    let resp = slow_parallel
        .submit(problem(1, small).with_deadline(deadline))
        .expect("parallel evidence must not judge a batched-size request")
        .wait()
        .unwrap();
    assert!(resp.batched);
    rejected(&slow_parallel, large);
    let snap = slow_parallel.shutdown();
    assert_eq!(snap.submitted, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.rejected_deadline, 1);
}

/// A feasible deadline on a default service (one pool thread per core) is
/// admitted, completes before its deadline, and lands in the deadline-met
/// tally.
#[test]
fn feasible_deadline_completes_on_synthetic_topology() {
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 0,
        ..ServiceConfig::default()
    });
    let dim = 48usize;
    let mut handles = Vec::new();
    for i in 0..6u64 {
        let req = problem(i, dim).with_deadline(Duration::from_secs(120));
        handles.push(service.submit(req).unwrap());
    }
    for h in handles {
        h.wait().unwrap();
    }
    let snap = service.shutdown();
    assert_eq!(snap.completed, 6);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.shed_deadline, 0);
    assert_eq!(snap.submitted, 6);
    assert_eq!(snap.deadline_met, 6);
    assert_eq!(snap.deadline_missed, 0);
}

/// Expired-while-queued requests are shed at dispatch with
/// `DeadlineExceeded` on **every** submit surface: the handle, a
/// one-request completion channel and a shared one all resolve (nothing
/// hangs), the shed
/// requests roll into `failed` (so `completed + failed == submitted`
/// still balances), and the shed counter matches. Routing is
/// pinned, and the service has served nothing yet, so no path has an
/// ns/flop model: admission control waves everything through and the
/// *dispatch-time* check is what fires.
#[test]
fn expired_requests_shed_at_dispatch_on_every_surface() {
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 1,
        max_batch: 4,
        routing: RoutingPolicy::Fixed(2 * 96 * 96 * 96),
        ..ServiceConfig::default()
    });

    // A 1ns deadline is always expired by the time the dispatcher pops the
    // envelope — deterministically shed, no sleeps needed. Admission lets
    // it through because a shed request adds no timing evidence, so the
    // batched path never gets a completion-time model.
    let dead = Duration::from_nanos(1);

    let handle = service
        .submit(problem(1, 24).with_deadline(dead))
        .expect("no path has evidence yet: admission must wave this through");
    let (one_sink, mut one) = completion_channel::<f64>();
    let one_id = service
        .submit_streamed(problem(2, 24).with_deadline(dead), &one_sink)
        .unwrap();
    let (sink, mut completions) = completion_channel::<f64>();
    let streamed_id = service
        .submit_streamed(problem(3, 24).with_deadline(dead), &sink)
        .unwrap();
    drop(sink);

    // Every surface resolves with the shed error (bounded waits — the
    // regression would be a hang or a silent drop).
    match handle
        .wait_timeout(Duration::from_secs(60))
        .expect("shed handle hung")
    {
        Err(ServeError::DeadlineExceeded(detail)) => {
            assert!(detail.contains("expired while queued"), "{detail}");
        }
        other => panic!("handle: expected shed, got {other:?}"),
    }
    let completion = one
        .recv()
        .expect("one-request channel must observe the shed");
    assert_eq!(completion.id, one_id);
    match completion.result {
        Err(ServeError::DeadlineExceeded(_)) => {}
        other => panic!("one-request channel: expected shed, got {other:?}"),
    }
    let completion = completions.recv().expect("channel must observe the shed");
    assert_eq!(completion.id, streamed_id);
    assert!(matches!(
        completion.result,
        Err(ServeError::DeadlineExceeded(_))
    ));
    assert!(completions.recv().is_none(), "exactly one streamed request");

    // Shed requests were admitted, so they stay in `submitted` and roll
    // into `failed` — the PR-4 accounting invariant holds under shedding.
    let snap = service.shutdown();
    assert_eq!(snap.submitted, 3);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.failed, 3);
    assert_eq!(snap.shed_deadline, 3);
    assert_eq!(snap.rejected_deadline, 0);
    assert_eq!(snap.completed + snap.failed, snap.submitted);
    assert_eq!(snap.deadline_met + snap.deadline_missed, 0);
}
