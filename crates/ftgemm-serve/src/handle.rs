//! The caller-side futures: blocking, async, and forwarding completion.
//!
//! Every request is backed by one [`ResponseSlot`], the single rendezvous
//! point between the scheduler (producer) and the caller (consumer). The
//! slot supports three redemption surfaces over the same state:
//!
//! * [`RequestHandle`] — synchronous: `wait` parks the calling thread on a
//!   condvar; `try_wait`/`wait_timeout` poll or bound the park.
//! * [`AsyncRequestHandle`] — a [`Future`]: `poll` registers the task's
//!   [`Waker`] in the slot and the scheduler's fulfill path fires it, so no
//!   thread is parked per in-flight request.
//! * forwarding — the slot carries a [`CompletionSink`] and fulfill pushes
//!   the result straight into a completion channel (see
//!   [`completion_channel`](crate::completion_channel)); there is no
//!   per-request handle at all.

use crate::request::{GemmResponse, ServeError};
use crate::stream::CompletionSink;
use ftgemm_core::Scalar;
use ftgemm_obs::Gauge;
use parking_lot::{Condvar, Mutex};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Mutable rendezvous state: the result once produced, and the waker of the
/// async task (if any) to fire when it is.
struct SlotState<T: Scalar> {
    result: Option<Result<GemmResponse<T>, ServeError>>,
    waker: Option<Waker>,
}

/// One-shot rendezvous between the scheduler (producer) and the caller.
pub(crate) struct ResponseSlot<T: Scalar> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
    /// When set, fulfill bypasses the slot state entirely and forwards the
    /// result (tagged with the request id) into a completion channel.
    forward: Option<(CompletionSink<T>, u64)>,
}

impl<T: Scalar> ResponseSlot<T> {
    fn new(forward: Option<(CompletionSink<T>, u64)>) -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(SlotState {
                result: None,
                waker: None,
            }),
            ready: Condvar::new(),
            forward,
        })
    }

    /// Slot that forwards its result into a completion channel instead of
    /// storing it for a per-request handle.
    pub(crate) fn forwarding(id: u64, sink: CompletionSink<T>) -> Arc<Self> {
        Self::new(Some((sink, id)))
    }

    /// Delivers the result: wakes the blocking waiter and/or the registered
    /// async waker, or forwards into the completion channel.
    pub(crate) fn fulfill(&self, result: Result<GemmResponse<T>, ServeError>) {
        if let Some((sink, id)) = &self.forward {
            sink.deliver(*id, result);
            return;
        }
        let waker = {
            let mut state = self.state.lock();
            debug_assert!(state.result.is_none(), "response slot fulfilled twice");
            state.result = Some(result);
            self.ready.notify_all();
            state.waker.take()
        };
        // Fire the waker outside the lock: wake() may run arbitrary executor
        // code (or poll the future inline on some executors).
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// Handle returned by [`GemmService::submit`](crate::GemmService::submit);
/// redeem it with [`wait`](RequestHandle::wait) for the result.
///
/// Dropping the handle without waiting is allowed — the request still runs
/// (and its effects show up in the service stats); the response is simply
/// discarded.
pub struct RequestHandle<T: Scalar> {
    slot: Arc<ResponseSlot<T>>,
    id: u64,
}

impl<T: Scalar> RequestHandle<T> {
    /// Creates a connected (handle, slot) pair.
    pub(crate) fn pair(id: u64) -> (Self, Arc<ResponseSlot<T>>) {
        let slot = ResponseSlot::new(None);
        (
            RequestHandle {
                slot: Arc::clone(&slot),
                id,
            },
            slot,
        )
    }

    /// Service-assigned request id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request completes and returns its result.
    pub fn wait(self) -> Result<GemmResponse<T>, ServeError> {
        let mut state = self.slot.state.lock();
        loop {
            if let Some(result) = state.result.take() {
                return result;
            }
            self.slot.ready.wait(&mut state);
        }
    }

    /// Non-blocking probe: the result if the request already completed.
    pub fn try_wait(self) -> Result<Result<GemmResponse<T>, ServeError>, Self> {
        {
            let mut state = self.slot.state.lock();
            if let Some(result) = state.result.take() {
                return Ok(result);
            }
        }
        Err(self)
    }

    /// Blocks for at most `timeout`; hands the handle back if the request is
    /// still in flight when the deadline passes (waiting again is allowed).
    /// A timeout too large to represent as a deadline (e.g. `Duration::MAX`)
    /// degrades to an untimed [`wait`](RequestHandle::wait).
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<GemmResponse<T>, ServeError>, Self> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Ok(self.wait());
        };
        {
            let mut state = self.slot.state.lock();
            loop {
                if let Some(result) = state.result.take() {
                    return Ok(result);
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                self.slot.ready.wait_for(&mut state, deadline - now);
            }
        }
        Err(self)
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
/// The future is executor-agnostic — `poll` stores the task's [`Waker`] in
/// the response slot and the scheduler fires it on fulfill, so it runs under
/// any executor (including a hand-rolled `block_on`; see
/// `examples/async_serving.rs`). It resolves exactly once; polling after
/// completion panics, like most one-shot futures. Dropping it mid-flight is
/// allowed — the request still runs, the response is discarded, and the
/// service's in-flight gauge is released.
pub struct AsyncRequestHandle<T: Scalar> {
    slot: Arc<ResponseSlot<T>>,
    id: u64,
    /// Service-level gauge of live async futures; decremented exactly once,
    /// on resolution or drop.
    in_flight: Arc<Gauge>,
    done: bool,
}

impl<T: Scalar> AsyncRequestHandle<T> {
    /// Creates a connected (future, slot) pair and bumps the in-flight gauge.
    pub(crate) fn pair(id: u64, in_flight: Arc<Gauge>) -> (Self, Arc<ResponseSlot<T>>) {
        let slot = ResponseSlot::new(None);
        in_flight.add(1.0);
        (
            AsyncRequestHandle {
                slot: Arc::clone(&slot),
                id,
                in_flight,
                done: false,
            },
            slot,
        )
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
        let mut state = this.slot.state.lock();
        if let Some(result) = state.result.take() {
            drop(state);
            this.release_gauge();
            return Poll::Ready(result);
        }
        // Register (or refresh) the waker. `will_wake` skips the clone when
        // the executor re-polls with the same task.
        match &mut state.waker {
            Some(existing) if existing.will_wake(cx.waker()) => {}
            slot_waker => *slot_waker = Some(cx.waker().clone()),
        }
        Poll::Pending
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
    use ftgemm_abft::FtReport;
    use ftgemm_core::Matrix;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Wake;

    fn ok_response(v: f64) -> Result<GemmResponse<f64>, ServeError> {
        Ok(GemmResponse {
            c: Matrix::filled(1, 1, v),
            report: FtReport::default(),
            batched: true,
            affinity_node: 0,
            executed_node: 0,
        })
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
        let (handle, slot) = RequestHandle::<f64>::pair(7);
        assert_eq!(handle.id(), 7);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            slot.fulfill(ok_response(3.0));
        });
        let resp = handle.wait().unwrap();
        assert_eq!(resp.c.get(0, 0), 3.0);
        assert!(resp.batched);
        producer.join().unwrap();
    }

    #[test]
    fn try_wait_before_and_after() {
        let (handle, slot) = RequestHandle::<f64>::pair(0);
        let handle = handle.try_wait().unwrap_err(); // not ready yet
        slot.fulfill(Err(ServeError::Closed));
        match handle.try_wait() {
            Ok(Err(ServeError::Closed)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let (handle, slot) = RequestHandle::<f64>::pair(1);
        let handle = handle.wait_timeout(Duration::from_millis(10)).unwrap_err(); // nothing produced yet
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            slot.fulfill(ok_response(4.0));
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
        let (mut fut, slot) = AsyncRequestHandle::<f64>::pair(3, Arc::clone(&gauge));
        assert_eq!(gauge.get(), 1.0);

        let (counter, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);

        slot.fulfill(ok_response(9.0));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "fulfill fires waker");

        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(Ok(resp)) => assert_eq!(resp.c.get(0, 0), 9.0),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(gauge.get(), 0.0, "gauge released on resolve");
    }

    #[test]
    fn async_fulfill_before_poll_resolves_immediately() {
        let gauge = Arc::new(Gauge::new());
        let (mut fut, slot) = AsyncRequestHandle::<f64>::pair(4, Arc::clone(&gauge));
        slot.fulfill(ok_response(2.5));

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
        let (mut fut, slot) = AsyncRequestHandle::<f64>::pair(5, gauge);
        slot.fulfill(ok_response(1.0));
        let (_c, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
        let _ = Pin::new(&mut fut).poll(&mut cx); // must panic
    }

    #[test]
    fn dropped_future_releases_gauge_and_slot() {
        let gauge = Arc::new(Gauge::new());
        let (fut, slot) = AsyncRequestHandle::<f64>::pair(6, Arc::clone(&gauge));
        drop(fut);
        assert_eq!(gauge.get(), 0.0, "drop releases the gauge");
        // Fulfilling a dropped future's slot must not panic or wake anything.
        slot.fulfill(ok_response(0.0));
        // The scheduler-side Arc is the only one left: no slot leak.
        assert_eq!(Arc::strong_count(&slot), 1);
    }

    #[test]
    fn repolls_with_same_waker_do_not_reclone() {
        let gauge = Arc::new(Gauge::new());
        let (mut fut, slot) = AsyncRequestHandle::<f64>::pair(8, gauge);
        let (counter, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        slot.fulfill(ok_response(1.0));
        // Exactly one wake even after repeated polls with the same waker.
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
    }
}
