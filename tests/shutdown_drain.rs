//! Queue drop/shutdown regression coverage: a service going away with
//! requests still parked in its queue behind a busy dispatcher must
//! *resolve* every outstanding handle and completion-channel receiver
//! (shared or one request's own) — by computing the backlog (graceful [`shutdown`]) or failing
//! it with [`ServeError::Closed`] ([`shutdown_now`]) — never by leaving a
//! waiter hung on an envelope that silently vanished with the queue.

use ftgemm::serve::{
    completion_channel, FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServeError,
    ServiceConfig,
};
use ftgemm::Matrix;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// The order of the request that keeps the dispatcher busy: on a 2-vCPU
/// host it computes for about 30 ms in release builds and 0.8 s in debug
/// ones, against 0.5 and 1.5 ms to submit the backlog.
const BIG: usize = if cfg!(debug_assertions) { 512 } else { 1024 };

fn two_thread_service() -> GemmService<f64> {
    GemmService::new(ServiceConfig {
        threads: 2,
        max_batch: 4,
        routing: RoutingPolicy::Fixed(2 * 96 * 96 * 96),
        ..ServiceConfig::default()
    })
}

/// `shutdown_now` with requests parked behind the busy dispatcher: the
/// in-flight request completes, every parked request fails with `Closed`
/// (not a hang — every wait below is bounded), every one-request channel's
/// future is resolved by the time `shutdown_now` returns, the completion channel
/// observes the whole drain and then ends, and the counters balance.
#[test]
fn shutdown_now_fails_parked_requests_instead_of_hanging() {
    let service = two_thread_service();

    // Occupy the dispatcher with one large matrix-parallel request, so
    // everything submitted after it is still queued when shutdown_now
    // lands.
    let big = {
        let a = Matrix::<f64>::random(BIG, BIG, 1);
        let b = Matrix::<f64>::random(BIG, BIG, 3);
        let req = GemmRequest::new(a, b).with_policy(FtPolicy::DetectCorrect);
        service.submit(req).unwrap()
    };
    // Wait until the dispatcher has started the big request (counted at
    // execution) and not finished it.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = service.stats();
        assert_eq!(
            stats.completed, 0,
            "the big request finished before the backlog"
        );
        if stats.direct_large == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "the big request never started");
        std::thread::yield_now();
    }

    let parked: Vec<_> = (0..24u64)
        .map(|i| {
            let a = Matrix::<f64>::random(24, 24, 10 + i);
            let b = Matrix::<f64>::random(24, 24, 40 + i);
            service.submit(GemmRequest::new(a, b)).unwrap()
        })
        .collect();
    let (sink, mut completions) = completion_channel::<f64>();
    let streamed_ids: Vec<u64> = (0..16u64)
        .map(|i| {
            let a = Matrix::<f64>::random(24, 24, 100 + i);
            let b = Matrix::<f64>::random(24, 24, 140 + i);
            service
                .submit_streamed(GemmRequest::new(a, b), &sink)
                .unwrap()
        })
        .collect();
    drop(sink);
    let mut own_channels: Vec<_> = (0..8u64)
        .map(|i| {
            let a = Matrix::<f64>::random(24, 24, 200 + i);
            let b = Matrix::<f64>::random(24, 24, 240 + i);
            let (own_sink, own) = completion_channel::<f64>();
            let id = service
                .submit_streamed(GemmRequest::new(a, b), &own_sink)
                .unwrap();
            (id, own)
        })
        .collect();

    let stats = service.shutdown_now();

    // The dispatcher is joined, so every one-request channel has its
    // result: one poll of its `next()` resolves it, with no executor and
    // no waker ever firing, and leaves nothing in flight.
    let mut cx = Context::from_waker(Waker::noop());
    for (i, (id, own)) in own_channels.iter_mut().enumerate() {
        match Pin::new(&mut own.next()).poll(&mut cx) {
            Poll::Ready(Some(c)) => match c.result {
                Ok(_) | Err(ServeError::Closed) => assert_eq!(c.id, *id),
                Err(e) => panic!("parked future {i}: unexpected error {e}"),
            },
            Poll::Ready(None) => panic!("parked future {i} ended without its result"),
            Poll::Pending => panic!("parked future {i} unresolved after shutdown_now"),
        }
        assert_eq!(own.in_flight(), 0, "future {i} kept its registration");
    }

    // The request that was mid-compute still completed normally.
    let big_resp = big
        .wait_timeout(Duration::from_secs(60))
        .expect("big request hung across shutdown_now")
        .expect("in-flight request must complete normally");
    assert_eq!(big_resp.c.nrows(), BIG);

    // Every parked handle resolves (bounded wait — the regression is a
    // hang) and resolves to the shutdown error, not a silent drop.
    let mut parked_failed = 0;
    for (i, handle) in parked.into_iter().enumerate() {
        match handle
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("parked request {i} hung across shutdown_now"))
        {
            Err(ServeError::Closed) => parked_failed += 1,
            Ok(_) => {} // squeezed into the final pre-abort sweep
            Err(e) => panic!("parked request {i}: unexpected error {e}"),
        }
    }
    assert!(
        parked_failed > 0,
        "a 24-deep backlog behind a busy dispatcher must leave parked work to fail"
    );

    // The completion channel observes the full drain: one completion per
    // streamed submission (each Ok or Closed), then end-of-stream.
    let mut seen = Vec::new();
    while let Some(c) = completions.recv() {
        match c.result {
            Ok(_) | Err(ServeError::Closed) => seen.push(c.id),
            Err(e) => panic!("streamed completion {}: unexpected error {e}", c.id),
        }
    }
    seen.sort_unstable();
    let mut expected = streamed_ids.clone();
    expected.sort_unstable();
    assert_eq!(
        seen, expected,
        "channel must observe every streamed request"
    );

    // Counters balance: everything submitted either completed or failed,
    // and the queue is empty.
    assert_eq!(stats.submitted, 1 + 24 + 16 + 8);
    assert_eq!(stats.completed + stats.failed, stats.submitted);
    assert!(stats.failed as usize >= parked_failed);
    assert_eq!(stats.queue_depth, 0);
}

/// Graceful `shutdown` is the dual: the same parked-backlog shape drains
/// by *computing* — nothing fails, the channel sees every result Ok, and
/// handles redeem after the service object is gone.
#[test]
fn graceful_shutdown_computes_the_backlog() {
    let service = two_thread_service();
    let (sink, mut completions) = completion_channel::<f64>();
    let mut handles = Vec::new();
    for i in 0..20u64 {
        let a = Matrix::<f64>::random(32, 32, i);
        let b = Matrix::<f64>::random(32, 32, i + 700);
        if i % 2 == 0 {
            handles.push(service.submit(GemmRequest::new(a, b)).unwrap());
        } else {
            service
                .submit_streamed(GemmRequest::new(a, b), &sink)
                .unwrap();
        }
    }
    drop(sink);
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 20);
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.failed, 0);
    for h in handles {
        h.wait().unwrap();
    }
    let mut drained = 0;
    while let Some(c) = completions.recv() {
        c.result.unwrap();
        drained += 1;
    }
    assert_eq!(drained, 10);
}
