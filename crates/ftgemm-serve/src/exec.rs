//! A minimal park-based executor for driving the async surfaces without an
//! async runtime.
//!
//! [`AsyncRequestHandle`](crate::AsyncRequestHandle) and
//! [`Completions::next`](crate::Completions::next) are executor-agnostic;
//! most frontends will poll them from tokio or similar. For benches, tests,
//! and plain binaries this module provides the smallest thing that works: a
//! single-thread executor whose waker unparks the calling thread. It is a
//! reference driver, not a production runtime — every wake re-polls all
//! still-pending futures (O(n) per wake), which is fine for the
//! drain-a-burst pattern these surfaces exist for.
//! `examples/async_serving.rs` hand-rolls the same ~40 lines to show there
//! is no magic in here.

// Concurrency contract (checked by `scripts/orderings.sh`):
// `notified` carries waker hand-off — Release store by the completing
// thread, Acquire swap by the polling thread.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Waker that unparks the executor thread.
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

impl ParkWaker {
    fn current() -> (Arc<Self>, Waker) {
        let parker = Arc::new(ParkWaker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&parker));
        (parker, waker)
    }

    /// Parks until a wake arrives; returns immediately if one already did.
    fn park_until_notified(&self) {
        while !self.notified.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

/// Polls one future to completion on the calling thread, parking between
/// polls.
pub fn block_on<F: Future + Unpin>(mut future: F) -> F::Output {
    let (parker, waker) = ParkWaker::current();
    let mut cx = Context::from_waker(&waker);
    loop {
        if let Poll::Ready(v) = Pin::new(&mut future).poll(&mut cx) {
            return v;
        }
        parker.park_until_notified();
    }
}

/// Polls every future to completion on the calling thread and returns their
/// outputs in input order. One shared waker is enough: any completion
/// unparks the loop, which re-polls whatever is still pending.
pub fn block_on_all<F: Future + Unpin>(futures: Vec<F>) -> Vec<F::Output> {
    let (parker, waker) = ParkWaker::current();
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
            // If a wake landed while we were polling, the swap inside
            // short-circuits and we re-poll without parking.
            parker.park_until_notified();
        }
    }
    outputs.into_iter().map(Option::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Future that is pending until an external thread wakes it.
    struct ReadyAfterWake {
        ready: Arc<AtomicBool>,
        polls: usize,
    }
    impl Future for ReadyAfterWake {
        type Output = usize;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
            self.polls += 1;
            if self.ready.load(Ordering::Acquire) {
                Poll::Ready(self.polls)
            } else {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(std::future::ready(7)), 7);
    }

    #[test]
    fn block_on_pending_then_woken() {
        let ready = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ready);
        let setter = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            r2.store(true, Ordering::Release);
        });
        let polls = block_on(ReadyAfterWake { ready, polls: 0 });
        assert!(polls >= 1);
        setter.join().unwrap();
    }

    #[test]
    fn block_on_all_preserves_order() {
        let futures: Vec<_> = (0..5).map(std::future::ready).collect();
        assert_eq!(block_on_all(futures), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn block_on_all_empty() {
        assert!(block_on_all(Vec::<std::future::Ready<()>>::new()).is_empty());
    }
}
