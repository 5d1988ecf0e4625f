//! The caller-side handle of [`GemmService::submit`](crate::GemmService::submit).
//!
//! `submit` gives its request a completion channel of its own (see
//! [`completion_channel`](crate::completion_channel)), the one rendezvous
//! every admitted request completes into; a [`RequestHandle`] is that
//! channel's consumer end with the request's id: `wait` blocks the calling
//! thread in [`Completions::recv`] (which runs queued small requests while
//! it waits), and `try_wait`/`wait_timeout` poll or bound a plain park. To await a request from a task instead, submit it with
//! [`submit_streamed`](crate::GemmService::submit_streamed) into a channel
//! of your own and await [`Completions::next`].

use crate::request::{GemmResponse, ServeError};
use crate::stream::Completions;
use ftgemm_core::Scalar;
use std::time::Duration;

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

    /// Blocks until the request completes and returns its result. The
    /// request stays in flight until delivered, so its channel cannot end
    /// empty; if it did, the request is reported closed.
    pub fn wait(mut self) -> Result<GemmResponse<T>, ServeError> {
        self.rx.recv().map_or(Err(ServeError::Closed), |c| c.result)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{completion_channel, CompletionSink};
    use ftgemm_abft::FtReport;
    use ftgemm_core::Matrix;

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
}
