//! The service's one MPMC submission queue: one FIFO behind one lock, one
//! dispatcher wakeup, one enqueue.
//!
//! A push takes the FIFO's lock and appends the envelope; the dispatcher
//! thread pops from the front under the same lock
//! ([`pop_into`](Queue::pop_into)) and parks on the queue's condvar
//! ([`wait`](Queue::wait)), and a caller helping from `recv` pops small
//! requests from the front the same way. One enqueue site
//! ([`push`](Queue::push)), one dequeue site (`pop_into`). A push never
//! blocks and fails only once the queue is closed: the queue is unbounded,
//! and a frontend bounds its own callers (the wire server caps each
//! connection's requests in flight).
//!
//! The dispatcher's park has a mutex of its own (`wake_lock`), taken by a
//! push only on the queue's empty→non-empty transition and never together
//! with the FIFO's, so a woken dispatcher and the submitter's next push do
//! not meet on one lock.
//!
//! Envelopes pop in submission order. The queue also integrates its
//! backlog in *flops* ([`pending_flops`](Queue::pending_flops)) — the load
//! measure deadline admission control reads.

// Concurrency contract (checked by `scripts/orderings.sh`): these
// cells publish queue state to threads that do not hold the FIFO's
// lock — `closed` gates submission against shutdown, `depth` gates the
// dispatcher's park, `pending_flops` feeds deadline admission. Release on
// write, Acquire on read, so a reader acting on a depth also sees the
// envelope that produced it. `next_id` is a plain Relaxed counter.

use crate::request::GemmRequest;
use crate::stream::CompletionSink;
use ftgemm_core::Scalar;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A queued request with the completion channel it completes into and its
/// submission metadata.
pub(crate) struct Envelope<T: Scalar> {
    pub req: GemmRequest<T>,
    /// The channel the request is registered in; `finish` delivers to it.
    pub sink: CompletionSink<T>,
    /// Submission-order id; mirrors the handle's id for tracing/tests.
    pub id: u64,
    pub submitted: Instant,
    /// Absolute deadline (`submitted + req.deadline`), if the request set
    /// one; the dispatcher sheds the request once this passes.
    pub deadline: Option<Instant>,
    /// Planned flops, cached at submit: the unit of the queue's backlog
    /// integral and of the routing decision.
    pub flops: u64,
}

/// A push was rejected because the queue no longer accepts work (the
/// service is shutting down). The envelope is dropped; the submit path
/// unregisters the request from its channel and reports the error
/// synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Closed;

pub(crate) struct Queue<T: Scalar> {
    /// Everything queued, in submission order: the one lock a push and a
    /// pop each take.
    fifo: Mutex<VecDeque<Envelope<T>>>,
    /// Queued envelopes (read without the lock by the dispatcher's wait
    /// predicate and the stats).
    depth: AtomicUsize,
    /// Queued *flops* (read by deadline admission control).
    pending_flops: AtomicU64,
    /// Monotonic request id source.
    next_id: AtomicU64,
    closed: AtomicBool,
    /// Wakeup for the dispatcher thread.
    wake_lock: Mutex<()>,
    wake: Condvar,
}

impl<T: Scalar> Queue<T> {
    pub(crate) fn new() -> Self {
        Queue {
            fifo: Mutex::new(VecDeque::new()),
            depth: AtomicUsize::new(0),
            pending_flops: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Fresh request id (submission order).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The one enqueue site: appends the envelope to the FIFO and wakes the
    /// dispatcher if the queue was empty. Never blocks; fails only when the
    /// queue is closed.
    ///
    /// `admitted` is the submit path's accounting. It runs here because
    /// this is where a push has become certain — one turned away never
    /// gets this far, so no count is ever taken back — and before the
    /// FIFO's lock is taken, so it orders before any pop of the
    /// envelope (no request can finish before it was counted) without
    /// lengthening the critical section the dispatcher contends on.
    pub(crate) fn push(&self, env: Envelope<T>, admitted: &dyn Fn()) -> Result<(), Closed> {
        if self.closed.load(Ordering::Acquire) {
            return Err(Closed);
        }
        let flops = env.flops;
        admitted();
        let prev_depth = {
            // Counters rise while the lock is held and only fall after a pop
            // has taken an envelope out under the same lock, so none can
            // transiently underflow.
            let mut fifo = self.fifo.lock();
            fifo.push_back(env);
            self.pending_flops.fetch_add(flops, Ordering::Release);
            self.depth.fetch_add(1, Ordering::Release)
        };
        // Wake the dispatcher on the empty→non-empty transition.
        // Lost-wakeup-free: the dispatcher only sleeps after observing
        // depth == 0 *under* wake_lock, and the transitioning producer takes
        // that lock before notifying.
        if prev_depth == 0 {
            let _g = self.wake_lock.lock();
            self.wake.notify_all();
        }
        Ok(())
    }

    /// The one dequeue site: pops up to `max` envelopes in submission order
    /// onto the end of `out`, stopping at the first one `take` refuses, and
    /// returns how many. The dispatcher takes everything and passes the
    /// same buffer every time, so a sweep allocates nothing; a caller
    /// helping in `recv` takes small requests only, so what it leaves at
    /// the front stays there, in order, for the dispatcher.
    pub(crate) fn pop_into(
        &self,
        max: usize,
        take: impl Fn(&Envelope<T>) -> bool,
        out: &mut Vec<Envelope<T>>,
    ) -> usize {
        let mut popped = 0;
        let mut fifo = self.fifo.lock();
        while popped < max {
            let Some(env) = fifo.pop_front_if(|env| take(env)) else {
                break;
            };
            self.depth.fetch_sub(1, Ordering::Release);
            self.pending_flops.fetch_sub(env.flops, Ordering::Release);
            out.push(env);
            popped += 1;
        }
        popped
    }

    /// Current queue depth (approximate under concurrency).
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Flops-integrated backlog (approximate under concurrency). One huge
    /// queued GEMM weighs what it costs, not "1" — this is the load measure
    /// deadline admission control reads.
    pub(crate) fn pending_flops(&self) -> u64 {
        self.pending_flops.load(Ordering::Acquire)
    }

    /// Whether [`close`](Self::close) has run.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Parks the dispatcher until the queue holds something. Returns
    /// `false` exactly when the queue is closed *and* empty (the dispatcher
    /// should exit); a closed queue with a remainder returns `true` at once
    /// so shutdown drains it.
    pub(crate) fn wait(&self) -> bool {
        let mut guard = self.wake_lock.lock();
        loop {
            if self.depth.load(Ordering::Acquire) > 0 {
                return true;
            }
            if self.closed.load(Ordering::Acquire) {
                return false;
            }
            self.wake.wait(&mut guard);
        }
    }

    /// Marks the queue closed and wakes the dispatcher. Envelopes already
    /// queued remain poppable so shutdown can drain them.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _g = self.wake_lock.lock();
        self.wake.notify_all();
    }

    /// [`pop_into`](Self::pop_into) a fresh vector.
    #[cfg(test)]
    pub(crate) fn pop(&self, max: usize) -> Vec<Envelope<T>> {
        let mut out = Vec::new();
        self.pop_into(max, |_| true, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::completion_channel;
    use ftgemm_core::Matrix;
    use std::sync::Arc;

    fn env(q: &Queue<f64>) -> Envelope<f64> {
        let req = GemmRequest::new(Matrix::zeros(2, 2), Matrix::zeros(2, 2));
        let (sink, _) = completion_channel();
        Envelope {
            flops: req.flops(),
            req,
            sink,
            id: q.next_id(),
            submitted: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn push_pop_preserves_count_and_order_ids() {
        let q = Queue::new();
        for _ in 0..10 {
            q.push(env(&q), &|| ()).unwrap();
        }
        assert_eq!(q.depth(), 10);
        let batch = q.pop(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(q.depth(), 6);
        let rest = q.pop(usize::MAX);
        assert_eq!(rest.len(), 6);
        assert_eq!(q.depth(), 0);
        let mut ids: Vec<u64> = batch.iter().chain(rest.iter()).map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn close_rejects_new_work_but_drains_old() {
        let q = Queue::new();
        q.push(env(&q), &|| ()).unwrap();
        q.close();
        assert!(q.is_closed());
        // Turned away before the admission accounting runs.
        let counted = std::cell::Cell::new(false);
        assert_eq!(q.push(env(&q), &|| counted.set(true)), Err(Closed));
        assert!(!counted.get(), "a closed push was counted");
        // Closed with a remainder: the dispatcher does not park, it drains.
        assert!(q.wait());
        assert_eq!(q.pop(8).len(), 1);
        assert!(!q.wait(), "closed and empty: the dispatcher exits");
    }

    #[test]
    fn wait_wakes_on_push() {
        let q = Arc::new(Queue::<f64>::new());
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(env(&q), &|| ()).unwrap();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn wait_wakes_on_close() {
        let q = Arc::new(Queue::<f64>::new());
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!waiter.join().unwrap());
    }

    #[test]
    fn pending_flops_tracks_the_backlog() {
        let q = Queue::new();
        // 2x2x2 → 16 flops each.
        for _ in 0..3 {
            q.push(env(&q), &|| ()).unwrap();
        }
        assert_eq!(q.pending_flops(), 48);
        // Partial pop: one envelope leaves, the others still count.
        assert_eq!(q.pop(1).len(), 1);
        assert_eq!(q.pending_flops(), 32);
        assert_eq!(q.pop(usize::MAX).len(), 2);
        assert_eq!(q.pending_flops(), 0);
    }

    #[test]
    fn deadlines_do_not_reorder_the_queue() {
        let q = Queue::new();
        let mut ids = Vec::new();
        for ms in [500, 5, 50] {
            let mut e = env(&q);
            e.deadline = Some(e.submitted + std::time::Duration::from_millis(ms));
            ids.push(e.id);
            q.push(e, &|| ()).unwrap();
        }
        let order: Vec<u64> = q.pop(usize::MAX).into_iter().map(|e| e.id).collect();
        assert_eq!(order, ids);
    }

    /// A pop that `take` refuses stops there: nothing behind the refused
    /// envelope leaves before it, and the queue keeps its order.
    #[test]
    fn a_refused_envelope_ends_the_pop() {
        let q = Queue::new();
        let mut ids = Vec::new();
        for dim in [2, 2, 8, 2] {
            let mut e = env(&q);
            e.flops = 2 * dim * dim * dim;
            ids.push(e.id);
            q.push(e, &|| ()).unwrap();
        }
        let mut out = Vec::new();
        let small = |e: &Envelope<f64>| e.flops <= 16;
        assert_eq!(q.pop_into(usize::MAX, small, &mut out), 2);
        assert_eq!(q.pop_into(usize::MAX, small, &mut out), 0);
        assert_eq!((q.depth(), q.pending_flops()), (2, 1024 + 16));
        let rest: Vec<u64> = q.pop(usize::MAX).into_iter().map(|e| e.id).collect();
        assert_eq!(rest, ids[2..]);
    }
}
