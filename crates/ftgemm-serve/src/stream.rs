//! Executor-agnostic completion channel: the one rendezvous every admitted
//! request completes into.
//!
//! [`completion_channel`] builds a `(sink, stream)` pair. The sink is handed
//! to [`GemmService::submit_streamed`](crate::GemmService::submit_streamed)
//! at submit time (`submit` builds a one-request channel of its own and
//! wraps its stream in a [`RequestHandle`](crate::RequestHandle)); the service's one
//! completion site pushes each finished request's result (tagged with its
//! id) into the channel. The [`Completions`] end is both a blocking
//! iterator ([`recv`](Completions::recv)) and an async stream
//! ([`poll_next`](Completions::poll_next) / [`next`](Completions::next)), so
//! the same frontend code works under a sync drain loop or any executor;
//! a one-request channel's `next()` is that request's future.
//!
//! End-of-stream is defined by in-flight accounting, not sender drops: the
//! channel knows how many submissions are outstanding, and `recv`/`next`
//! return `None` exactly when the queue is empty *and* nothing is in flight.
//!
//! A channel also remembers the service it last submitted to. A blocking
//! [`recv`](Completions::recv) with nothing to return lends its thread to
//! that service before it parks: it runs one turn of the service's queued
//! small requests and looks again. The async form and the timed waits only
//! park.

use crate::request::{GemmResponse, ServeError};
use ftgemm_core::Scalar;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// One finished request delivered through a completion channel.
#[derive(Debug)]
pub struct Completion<T: Scalar> {
    /// Service-assigned request id (returned by `submit_streamed`).
    pub id: u64,
    /// The request's result, exactly as a handle would have redeemed it.
    pub result: Result<GemmResponse<T>, ServeError>,
}

/// A service a caller blocked in [`Completions::recv`] can compute for.
pub(crate) trait Lend: Send + Sync {
    /// Runs one turn of the service's queued work on the calling thread;
    /// `false` when there was none to take.
    fn help(&self) -> bool;
}

struct ChannelState<T: Scalar> {
    queue: VecDeque<Completion<T>>,
    /// Submitted-but-not-yet-delivered count; defines end-of-stream.
    in_flight: usize,
    /// Waker of the async consumer blocked in `poll_next`, if any.
    waker: Option<Waker>,
    /// The service the last submission went to; weak, so a channel never
    /// keeps a shut-down service alive.
    lender: Option<Weak<dyn Lend>>,
}

struct Channel<T: Scalar> {
    state: Mutex<ChannelState<T>>,
    ready: Condvar,
}

/// Producer end of a completion channel; cloned into each submitted
/// request's queue envelope.
///
/// Created by [`completion_channel`]; its only user-facing role is being
/// passed to [`GemmService::submit_streamed`](crate::GemmService::submit_streamed).
pub struct CompletionSink<T: Scalar> {
    chan: Arc<Channel<T>>,
}

impl<T: Scalar> Clone for CompletionSink<T> {
    fn clone(&self) -> Self {
        CompletionSink {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T: Scalar> CompletionSink<T> {
    /// Records one accepted submission to `service` (before it can
    /// possibly complete); a blocked `recv` helps `service` from now on.
    pub(crate) fn register_for<S: Lend + 'static>(&self, service: &Arc<S>) {
        let mut state = self.chan.state.lock();
        state.in_flight += 1;
        let known = state
            .lender
            .as_ref()
            .is_some_and(|known| std::ptr::addr_eq(known.as_ptr(), Arc::as_ptr(service)));
        if !known {
            state.lender = Some(Arc::downgrade(service) as Weak<dyn Lend>);
        }
    }

    /// Rolls back `register` when the submission is rejected after all.
    /// Wakes consumers: dropping to zero in flight flips the end-of-stream
    /// predicate, and a consumer already blocked in `recv`/`poll_next` must
    /// observe that, not park forever.
    pub(crate) fn unregister(&self) {
        let waker = {
            let mut state = self.chan.state.lock();
            debug_assert!(state.in_flight > 0, "unregister without register");
            state.in_flight -= 1;
            if state.in_flight == 0 {
                self.chan.ready.notify_all();
                state.waker.take()
            } else {
                None
            }
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Delivers one finished request and wakes the consumer.
    pub(crate) fn deliver(&self, id: u64, result: Result<GemmResponse<T>, ServeError>) {
        let waker = {
            let mut state = self.chan.state.lock();
            debug_assert!(state.in_flight > 0, "delivery without registration");
            state.in_flight -= 1;
            state.queue.push_back(Completion { id, result });
            self.chan.ready.notify_all();
            state.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T: Scalar> std::fmt::Debug for CompletionSink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSink").finish_non_exhaustive()
    }
}

/// Consumer end of a completion channel (single consumer).
///
/// `None` from [`recv`](Completions::recv) / [`next`](Completions::next)
/// means "queue empty and nothing in flight" — it is a snapshot, not a
/// permanent close: submitting more requests afterwards makes the stream
/// yield again. The usual pattern is submit-then-drain (see the crate-level
/// example).
pub struct Completions<T: Scalar> {
    chan: Arc<Channel<T>>,
}

impl<T: Scalar> Completions<T> {
    /// Completions queued right now (cheap, approximate under concurrency).
    pub fn ready_len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    /// Submitted-but-undelivered requests right now.
    pub fn in_flight(&self) -> usize {
        self.chan.state.lock().in_flight
    }

    /// Non-blocking pop of the next completion, if one is queued.
    pub fn try_next(&mut self) -> Option<Completion<T>> {
        self.chan.state.lock().queue.pop_front()
    }

    /// Blocks for the next completion; `None` when the queue is empty and
    /// nothing is in flight.
    ///
    /// While nothing has arrived, the calling thread computes: while the
    /// dispatcher of the service this channel last submitted to is busy,
    /// it runs the small requests at the front of that service's queue,
    /// one turn at a time, through the same batch driver as the
    /// dispatcher, and parks only when there is none to take. A turn is
    /// one request, so a result that arrives meanwhile waits at most that
    /// long to be returned.
    pub fn recv(&mut self) -> Option<Completion<T>> {
        loop {
            let lender = {
                let mut state = self.chan.state.lock();
                if let Some(c) = state.queue.pop_front() {
                    return Some(c);
                }
                if state.in_flight == 0 {
                    return None;
                }
                state.lender.as_ref().and_then(Weak::upgrade)
            };
            if !lender.is_some_and(|service| service.help()) {
                return self.recv_until(None);
            }
        }
    }

    /// [`recv`](Self::recv) for at most `timeout`: also `None` when it
    /// passes first. A timeout too large to represent as a deadline (e.g.
    /// `Duration::MAX`) degrades to an untimed `recv`.
    pub(crate) fn recv_timeout(&mut self, timeout: Duration) -> Option<Completion<T>> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    fn recv_until(&mut self, deadline: Option<Instant>) -> Option<Completion<T>> {
        let mut state = self.chan.state.lock();
        loop {
            if let Some(c) = state.queue.pop_front() {
                return Some(c);
            }
            if state.in_flight == 0 {
                return None;
            }
            match deadline {
                None => self.chan.ready.wait(&mut state),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.chan.ready.wait_for(&mut state, left);
                }
            }
        }
    }

    /// Async pop: `Ready(Some)` when a completion is queued, `Ready(None)`
    /// when the stream is drained (empty and nothing in flight), `Pending`
    /// (with the waker registered) otherwise.
    pub fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<Completion<T>>> {
        let mut state = self.chan.state.lock();
        if let Some(c) = state.queue.pop_front() {
            return Poll::Ready(Some(c));
        }
        if state.in_flight == 0 {
            return Poll::Ready(None);
        }
        match &mut state.waker {
            Some(existing) if existing.will_wake(cx.waker()) => {}
            slot => *slot = Some(cx.waker().clone()),
        }
        Poll::Pending
    }

    /// Future resolving to the next completion (or `None` when drained).
    ///
    /// Named after the `futures::StreamExt::next` convention rather than
    /// `Iterator::next` (which clippy flags): this is the async pop.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Next<'_, T> {
        Next { stream: self }
    }
}

impl<T: Scalar> std::fmt::Debug for Completions<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.chan.state.lock();
        f.debug_struct("Completions")
            .field("ready", &state.queue.len())
            .field("in_flight", &state.in_flight)
            .finish()
    }
}

/// Future returned by [`Completions::next`].
pub struct Next<'a, T: Scalar> {
    stream: &'a mut Completions<T>,
}

impl<T: Scalar> Future for Next<'_, T> {
    type Output = Option<Completion<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().stream.poll_next(cx)
    }
}

/// Builds a connected `(sink, stream)` completion-channel pair.
///
/// Pass the sink to [`GemmService::submit_streamed`](crate::GemmService::submit_streamed)
/// (any number of times, from any thread — it is `Clone`); drain results
/// from the [`Completions`] end, blocking or async.
pub fn completion_channel<T: Scalar>() -> (CompletionSink<T>, Completions<T>) {
    let chan = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            in_flight: 0,
            waker: None,
            lender: None,
        }),
        ready: Condvar::new(),
    });
    (
        CompletionSink {
            chan: Arc::clone(&chan),
        },
        Completions { chan },
    )
}

#[cfg(test)]
impl<T: Scalar> CompletionSink<T> {
    /// Records one accepted submission from no service: a `recv` on it
    /// only parks.
    pub(crate) fn register(&self) {
        self.chan.state.lock().in_flight += 1;
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
        })
    }

    struct CountingWaker(AtomicUsize);
    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn empty_channel_is_immediately_drained() {
        let (_sink, mut stream) = completion_channel::<f64>();
        assert!(stream.try_next().is_none());
        assert!(stream.recv().is_none());
        assert_eq!(stream.in_flight(), 0);
    }

    #[test]
    fn delivers_in_order_then_ends() {
        let (sink, mut stream) = completion_channel::<f64>();
        for i in 0..3u64 {
            sink.register();
            sink.deliver(i, ok_response(i as f64));
        }
        assert_eq!(stream.ready_len(), 3);
        for i in 0..3u64 {
            let c = stream.recv().unwrap();
            assert_eq!(c.id, i);
            assert_eq!(c.result.unwrap().c.get(0, 0), i as f64);
        }
        assert!(stream.recv().is_none());
    }

    #[test]
    fn recv_blocks_while_in_flight() {
        let (sink, mut stream) = completion_channel::<f64>();
        sink.register();
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            sink.deliver(0, ok_response(1.0));
        });
        // Must block through the in-flight window, not return None early.
        assert_eq!(stream.recv().unwrap().id, 0);
        assert!(stream.recv().is_none());
        producer.join().unwrap();
    }

    #[test]
    fn unregister_rolls_back_end_of_stream() {
        let (sink, mut stream) = completion_channel::<f64>();
        sink.register();
        assert_eq!(stream.in_flight(), 1);
        sink.unregister();
        assert!(stream.recv().is_none());
    }

    #[test]
    fn unregister_wakes_blocked_consumer() {
        // A consumer already parked in recv() must observe the rejected
        // submission flipping in_flight to zero, not sleep forever.
        let (sink, mut stream) = completion_channel::<f64>();
        sink.register();
        let rejecter = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            sink.unregister(); // submission rejected (e.g. queue closed)
        });
        assert!(stream.recv().is_none(), "recv must unblock and end");
        rejecter.join().unwrap();
    }

    #[test]
    fn unregister_fires_async_waker() {
        let (sink, mut stream) = completion_channel::<f64>();
        sink.register();
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);
        assert!(stream.poll_next(&mut cx).is_pending());
        sink.unregister();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert!(matches!(stream.poll_next(&mut cx), Poll::Ready(None)));
    }

    #[test]
    fn poll_next_registers_waker_and_fires() {
        let (sink, mut stream) = completion_channel::<f64>();
        sink.register();

        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);

        assert!(stream.poll_next(&mut cx).is_pending());
        sink.deliver(7, ok_response(2.0));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        match stream.poll_next(&mut cx) {
            Poll::Ready(Some(c)) => assert_eq!(c.id, 7),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(stream.poll_next(&mut cx), Poll::Ready(None)));
    }

    /// A completion already queued resolves the first poll: no waker is
    /// stored and none fires.
    #[test]
    fn a_delivery_before_the_poll_resolves_without_a_wake() {
        let (sink, mut stream) = completion_channel::<f64>();
        sink.register();
        sink.deliver(4, ok_response(2.5));
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        match stream.poll_next(&mut Context::from_waker(&waker)) {
            Poll::Ready(Some(c)) => assert_eq!(c.result.unwrap().c.get(0, 0), 2.5),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    /// Polling again with the same waker keeps the stored one: the delivery
    /// wakes exactly once.
    #[test]
    fn repolls_with_same_waker_wake_once() {
        let (sink, mut stream) = completion_channel::<f64>();
        sink.register();
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);
        assert!(stream.poll_next(&mut cx).is_pending());
        assert!(stream.poll_next(&mut cx).is_pending());
        sink.deliver(8, ok_response(1.0));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert!(stream.poll_next(&mut cx).is_ready());
    }

    /// A service whose every turn of help is counted, and which delivers
    /// the channel's one request on turn `deliver_on`.
    struct Turns {
        sink: CompletionSink<f64>,
        turns: AtomicUsize,
        deliver_on: usize,
    }

    impl Lend for Turns {
        fn help(&self) -> bool {
            let turn = self.turns.fetch_add(1, Ordering::SeqCst) + 1;
            if turn == self.deliver_on {
                self.sink.deliver(9, ok_response(9.0));
            }
            true
        }
    }

    /// A blocked `recv` lends its thread, one turn at a time, until its
    /// own result has arrived, and then returns it without another turn.
    #[test]
    fn recv_helps_until_its_own_result_arrives() {
        let (sink, mut stream) = completion_channel::<f64>();
        let service = Arc::new(Turns {
            sink: sink.clone(),
            turns: AtomicUsize::new(0),
            deliver_on: 3,
        });
        sink.register_for(&service);
        assert_eq!(stream.recv().unwrap().id, 9);
        assert_eq!(service.turns.load(Ordering::SeqCst), 3);
        assert!(stream.recv().is_none());
        assert_eq!(
            service.turns.load(Ordering::SeqCst),
            3,
            "helped with nothing in flight"
        );
    }

    /// The timed wait and the async form never help, and a channel does
    /// not keep its service alive.
    #[test]
    fn only_the_untimed_recv_helps() {
        let (sink, mut stream) = completion_channel::<f64>();
        let service = Arc::new(Turns {
            sink: sink.clone(),
            turns: AtomicUsize::new(0),
            deliver_on: 1,
        });
        sink.register_for(&service);
        assert!(stream
            .recv_timeout(std::time::Duration::from_millis(5))
            .is_none());
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(counter);
        assert!(stream
            .poll_next(&mut Context::from_waker(&waker))
            .is_pending());
        assert_eq!(service.turns.load(Ordering::SeqCst), 0);

        drop(service);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            sink.deliver(4, ok_response(4.0));
        });
        assert_eq!(stream.recv().unwrap().id, 4, "a dropped service parks recv");
        producer.join().unwrap();
    }
}
