//! The caller-side handles: blocking and async.
//!
//! `submit` and `submit_async` each give their request a completion channel
//! of its own (see [`completion_channel`](crate::completion_channel)), the
//! one rendezvous every admitted request completes into; a handle is that
//! channel's consumer end with the request's id:
//!
//! * [`RequestHandle`] — synchronous: `wait` parks the calling thread in
//!   [`Completions::recv`]; `try_wait`/`wait_timeout` poll or bound the park.
//! * [`AsyncRequestHandle`] — a [`Future`]: `poll` is
//!   [`Completions::poll_next`], which stores the task's
//!   [`Waker`](std::task::Waker) for the delivery to fire, so no thread is
//!   parked per in-flight request.

use crate::request::{GemmResponse, ServeError};
use crate::stream::{Completion, Completions};
use ftgemm_core::Scalar;
use ftgemm_obs::Gauge;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

/// A one-request channel's completion as that request's result. A handle's
/// request stays in flight until delivered, so the channel cannot end
/// empty; if it did, the request is reported closed.
fn result_of<T: Scalar>(completion: Option<Completion<T>>) -> Result<GemmResponse<T>, ServeError> {
    completion.map_or(Err(ServeError::Closed), |c| c.result)
}

/// Handle returned by [`GemmService::submit`](crate::GemmService::submit);
/// redeem it with [`wait`](RequestHandle::wait) for the result.
///
/// Dropping the handle without waiting is allowed — the request still runs
/// (and its effects show up in the service stats); the response is simply
/// discarded.
pub struct RequestHandle<T: Scalar> {
    rx: Completions<T>,
    id: u64,
}

impl<T: Scalar> RequestHandle<T> {
    /// The handle of request `id`, which completes into `rx`'s channel.
    pub(crate) fn new(id: u64, rx: Completions<T>) -> Self {
        RequestHandle { rx, id }
    }

    /// Service-assigned request id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request completes and returns its result.
    pub fn wait(mut self) -> Result<GemmResponse<T>, ServeError> {
        result_of(self.rx.recv())
    }

    /// Non-blocking probe: the result if the request already completed.
    pub fn try_wait(mut self) -> Result<Result<GemmResponse<T>, ServeError>, Self> {
        self.rx.try_next().map(|c| c.result).ok_or(self)
    }

    /// Blocks for at most `timeout`; hands the handle back if the request is
    /// still in flight when the deadline passes (waiting again is allowed).
    /// A timeout too large to represent as a deadline (e.g. `Duration::MAX`)
    /// degrades to an untimed [`wait`](RequestHandle::wait).
    pub fn wait_timeout(
        mut self,
        timeout: Duration,
    ) -> Result<Result<GemmResponse<T>, ServeError>, Self> {
        self.rx.recv_timeout(timeout).map(|c| c.result).ok_or(self)
    }
}

impl<T: Scalar> std::fmt::Debug for RequestHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestHandle")
            .field("id", &self.id)
            .finish()
    }
}

/// Handle returned by
/// [`GemmService::submit_async`](crate::GemmService::submit_async): a
/// [`Future`] resolving to the request's result without parking any thread.
///
/// The future is executor-agnostic — `poll` stores the task's
/// [`Waker`](std::task::Waker) in the request's completion channel and the
/// delivery fires it, so it runs under any executor (including a
/// hand-rolled `block_on`; see `examples/async_serving.rs`). It resolves
/// exactly once; polling after completion panics, like most one-shot
/// futures. Dropping it mid-flight is
/// allowed — the request still runs, the response is discarded, and the
/// service's in-flight gauge is released.
pub struct AsyncRequestHandle<T: Scalar> {
    rx: Completions<T>,
    id: u64,
    /// Service-level gauge of live async futures; decremented exactly once,
    /// on resolution or drop.
    in_flight: Arc<Gauge>,
    done: bool,
}

impl<T: Scalar> AsyncRequestHandle<T> {
    /// The future of request `id`, which completes into `rx`'s channel;
    /// bumps the in-flight gauge.
    pub(crate) fn new(id: u64, rx: Completions<T>, in_flight: Arc<Gauge>) -> Self {
        in_flight.add(1.0);
        AsyncRequestHandle {
            rx,
            id,
            in_flight,
            done: false,
        }
    }

    /// Service-assigned request id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True once the future has resolved (after which polling panics).
    pub fn is_resolved(&self) -> bool {
        self.done
    }

    fn release_gauge(&mut self) {
        if !self.done {
            self.done = true;
            self.in_flight.add(-1.0);
        }
    }
}

impl<T: Scalar> Future for AsyncRequestHandle<T> {
    type Output = Result<GemmResponse<T>, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // All fields are Unpin, so projection through get_mut is safe.
        let this = self.get_mut();
        assert!(
            !this.done,
            "AsyncRequestHandle polled after it already resolved"
        );
        let completion = std::task::ready!(this.rx.poll_next(cx));
        this.release_gauge();
        Poll::Ready(result_of(completion))
    }
}

impl<T: Scalar> Drop for AsyncRequestHandle<T> {
    fn drop(&mut self) {
        self.release_gauge();
    }
}

impl<T: Scalar> std::fmt::Debug for AsyncRequestHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncRequestHandle")
            .field("id", &self.id)
            .field("resolved", &self.done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{completion_channel, CompletionSink};
    use ftgemm_abft::FtReport;
    use ftgemm_core::Matrix;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::{Wake, Waker};

    fn ok_response(v: f64) -> Result<GemmResponse<f64>, ServeError> {
        Ok(GemmResponse {
            c: Matrix::filled(1, 1, v),
            report: FtReport::default(),
            batched: true,
        })
    }

    /// A registered request's channel, as `submit` makes it: the sink the
    /// service delivers into and the consumer end a handle wraps.
    fn channel() -> (CompletionSink<f64>, Completions<f64>) {
        let (sink, rx) = completion_channel();
        sink.register();
        (sink, rx)
    }

    /// Waker that counts its wake() calls.
    struct CountingWaker(AtomicUsize);
    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, Waker) {
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        (counter, waker)
    }

    #[test]
    fn wait_blocks_until_fulfilled() {
        let (sink, rx) = channel();
        let handle = RequestHandle::new(7, rx);
        assert_eq!(handle.id(), 7);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            sink.deliver(7, ok_response(3.0));
        });
        let resp = handle.wait().unwrap();
        assert_eq!(resp.c.get(0, 0), 3.0);
        assert!(resp.batched);
        producer.join().unwrap();
    }

    #[test]
    fn try_wait_before_and_after() {
        let (sink, rx) = channel();
        let handle = RequestHandle::new(0, rx);
        let handle = handle.try_wait().unwrap_err(); // not ready yet
        sink.deliver(0, Err(ServeError::Closed));
        match handle.try_wait() {
            Ok(Err(ServeError::Closed)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let (sink, rx) = channel();
        let handle = RequestHandle::new(1, rx);
        let handle = handle.wait_timeout(Duration::from_millis(10)).unwrap_err(); // nothing produced yet
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            sink.deliver(1, ok_response(4.0));
        });
        let resp = handle
            .wait_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(resp.c.get(0, 0), 4.0);
        producer.join().unwrap();
    }

    #[test]
    fn async_poll_before_fulfill_fires_waker() {
        let gauge = Arc::new(Gauge::new());
        let (sink, rx) = channel();
        let mut fut = AsyncRequestHandle::new(3, rx, Arc::clone(&gauge));
        assert_eq!(gauge.get(), 1.0);

        let (counter, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);

        sink.deliver(3, ok_response(9.0));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "delivery fires waker");

        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(Ok(resp)) => assert_eq!(resp.c.get(0, 0), 9.0),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(gauge.get(), 0.0, "gauge released on resolve");
    }

    #[test]
    fn async_fulfill_before_poll_resolves_immediately() {
        let gauge = Arc::new(Gauge::new());
        let (sink, rx) = channel();
        let mut fut = AsyncRequestHandle::new(4, rx, Arc::clone(&gauge));
        sink.deliver(4, ok_response(2.5));

        let (counter, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(Ok(resp)) => assert_eq!(resp.c.get(0, 0), 2.5),
            other => panic!("unexpected: {other:?}"),
        }
        // Result was already there: no waker registration, no wake call.
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        assert_eq!(gauge.get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "polled after it already resolved")]
    fn async_resolves_exactly_once() {
        let gauge = Arc::new(Gauge::new());
        let (sink, rx) = channel();
        let mut fut = AsyncRequestHandle::new(5, rx, gauge);
        sink.deliver(5, ok_response(1.0));
        let (_c, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
        let _ = Pin::new(&mut fut).poll(&mut cx); // must panic
    }

    #[test]
    fn dropped_future_releases_gauge_and_accepts_its_delivery() {
        let gauge = Arc::new(Gauge::new());
        let (sink, rx) = channel();
        let mut fut = AsyncRequestHandle::new(6, rx, Arc::clone(&gauge));
        let (counter, waker) = counting_waker();
        assert!(Pin::new(&mut fut)
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        drop(fut);
        assert_eq!(gauge.get(), 0.0, "drop releases the gauge");
        assert_eq!(
            Arc::strong_count(&gauge),
            1,
            "nothing of the future is left"
        );
        // Delivering to a dropped future's channel must not panic, must not
        // touch the gauge again, and wakes only the task that polled it.
        sink.deliver(6, ok_response(0.0));
        assert_eq!(gauge.get(), 0.0);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn repolls_with_same_waker_do_not_reclone() {
        let gauge = Arc::new(Gauge::new());
        let (sink, rx) = channel();
        let mut fut = AsyncRequestHandle::new(8, rx, gauge);
        let (counter, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        sink.deliver(8, ok_response(1.0));
        // Exactly one wake even after repeated polls with the same waker.
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
    }
}
