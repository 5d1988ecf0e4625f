//! Async serving walkthrough: drive hundreds of in-flight requests from a
//! single thread, with **zero dedicated waiter threads** and no async
//! runtime.
//!
//! A web-style frontend does not need one parked thread per outstanding
//! request: `GemmService::submit_streamed` delivers each result into a
//! completion channel, and `Completions::next()` is a plain `Future` whose
//! waker the service's completion site fires. Give each request a channel
//! of its own and `next()` is that request's future; any executor —
//! including the ~40-line hand-rolled `block_on_all` below — can multiplex
//! all of them on one thread. The same demo also drains a second burst
//! through one shared channel with the blocking `recv`, the simpler shape
//! when per-request futures are more structure than you need.
//!
//! ```sh
//! cargo run --release --example async_serving
//! ```

use ftgemm::core::reference::naive_gemm;
use ftgemm::serve::{completion_channel, FtPolicy, GemmRequest, GemmService, ServiceConfig};
use ftgemm::Matrix;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

/// Waker that unparks the executor thread. `Wake` (std, stable) turns an
/// `Arc<ParkWaker>` into a `Waker` without any unsafe vtable plumbing.
struct ParkWaker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ParkWaker {
    fn wake(self: Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Polls every future to completion on the calling thread, parking between
/// rounds of progress. One shared waker is enough: any completion unparks
/// the loop, which re-polls whatever is still pending (O(n) per wake — fine
/// for a demo executor; a real one would wake per-task).
fn block_on_all<F: Future + Unpin>(futures: Vec<F>) -> Vec<F::Output> {
    let parker = Arc::new(ParkWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);

    let mut pending: Vec<Option<F>> = futures.into_iter().map(Some).collect();
    let mut outputs: Vec<Option<F::Output>> = pending.iter().map(|_| None).collect();
    let mut remaining = pending.len();
    while remaining > 0 {
        for (slot, out) in pending.iter_mut().zip(outputs.iter_mut()) {
            if let Some(fut) = slot.as_mut() {
                if let Poll::Ready(v) = Pin::new(fut).poll(&mut cx) {
                    *out = Some(v);
                    *slot = None;
                    remaining -= 1;
                }
            }
        }
        if remaining > 0 {
            // Sleep until a completion's wake arrives; if one landed while
            // we were polling, the swap short-circuits and we re-poll.
            while !parker.notified.swap(false, Ordering::Acquire) {
                std::thread::park();
            }
        }
    }
    outputs.into_iter().map(Option::unwrap).collect()
}

fn main() {
    let service = GemmService::<f64>::new(ServiceConfig {
        max_batch: 32,
        ..ServiceConfig::default()
    });
    println!(
        "GemmService up: {} worker threads; frontend = this one thread\n",
        service.nthreads()
    );

    // ---- Burst 1: 128 concurrent futures, one executor thread. ----
    // Each request gets a one-request completion channel; awaiting its
    // `next()` is awaiting that request.
    let n_async = 128;
    let t0 = Instant::now();
    let mut channels = Vec::with_capacity(n_async);
    for i in 0..n_async as u64 {
        let a = Matrix::<f64>::random(64, 48, i);
        let b = Matrix::<f64>::random(48, 56, i + 1);
        let (sink, completions) = completion_channel::<f64>();
        service
            .submit_streamed(
                GemmRequest::new(a, b).with_policy(FtPolicy::DetectCorrect),
                &sink,
            )
            .expect("submit_streamed");
        channels.push(completions);
    }
    let in_flight: usize = channels.iter().map(|c| c.in_flight()).sum();
    println!(
        "submitted {n_async} requests in {:.2?}; {in_flight} still in flight, 0 waiter threads",
        t0.elapsed(),
    );

    let futures = channels.iter_mut().map(|c| c.next()).collect();
    let results: Vec<_> = block_on_all(futures)
        .into_iter()
        .map(|c| c.expect("an admitted request always completes").result)
        .collect();
    let wall_async = t0.elapsed();
    assert_eq!(results.len(), n_async);
    for r in &results {
        assert!(r.as_ref().expect("request failed").report.detected == 0);
    }
    // Spot-check one result against the serial reference.
    let a = Matrix::<f64>::random(64, 48, 0);
    let b = Matrix::<f64>::random(48, 56, 1);
    let mut expected = Matrix::<f64>::zeros(64, 56);
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
    let diff = results[0].as_ref().unwrap().c.rel_max_diff(&expected);
    println!(
        "all {n_async} futures resolved in {wall_async:.2?} (spot-check vs naive: {diff:.1e})\n"
    );

    // ---- Burst 2: one shared completion channel, one drain loop. ----
    let n_streamed = 128;
    let (sink, mut completions) = completion_channel::<f64>();
    let t1 = Instant::now();
    for i in 0..n_streamed as u64 {
        let a = Matrix::<f64>::random(56, 40, 1_000 + i);
        let b = Matrix::<f64>::random(40, 48, 2_000 + i);
        service
            .submit_streamed(GemmRequest::new(a, b), &sink)
            .expect("submit_streamed");
    }
    let mut drained = 0u32;
    while let Some(completion) = completions.recv() {
        completion.result.expect("request failed");
        drained += 1;
    }
    assert_eq!(drained, n_streamed);
    println!(
        "drained {n_streamed} streamed completions in {:.2?}",
        t1.elapsed()
    );

    let stats = service.shutdown();
    println!("\nservice totals:");
    println!(
        "  submitted            {} (sync {}, streamed {})",
        stats.submitted, stats.submitted_sync, stats.submitted_streamed
    );
    println!("  completed            {}", stats.completed);
    println!("  requests/sec         {:.0}", stats.requests_per_sec);
    println!("  batched regions      {}", stats.batches);
    println!("  mean batch occupancy {:.1}", stats.mean_batch_occupancy);
    println!("  batch wall time      {:.2?}", stats.batch_wall);
    println!("  batch thread busy    {:?}", stats.batch_busy_per_thread);
    println!(
        "  thread occupancy     {:.0}%",
        stats.batch_thread_occupancy * 100.0
    );
}
