//! Node-sharded MPMC submission queue: one scheduler per NUMA node, one
//! dispatcher wakeup per node, optional bounded capacity.
//!
//! The queue is one **node group** per memory domain, and a group's data
//! is behind one lock: a mutex around the group's
//! [`DrrScheduler`](crate::qos::DrrScheduler). A request's placement policy
//! stamps a node affinity at submit time; the push takes that group's lock
//! and lands directly in the scheduler. Each node's dispatcher thread pops
//! its own group ([`pop_node_into`](ShardedQueue::pop_node_into)) under the same lock
//! and parks on the group's condvar
//! ([`wait_node`](ShardedQueue::wait_node)) — pushes wake only the affinity
//! node's dispatcher, so idle nodes stay parked. One enqueue site
//! (`insert`), one dequeue site (`pop_node_into`).
//!
//! The dispatcher's park has a mutex of its own (`wake_lock`), taken by a
//! push only on the group's empty→non-empty transition and never together
//! with the scheduler's, so a woken dispatcher and the submitter's next
//! push do not meet on one lock.
//!
//! **Steal wakeups.** A push that lifts a group's depth *past the steal
//! threshold* wakes every dispatcher: dry nodes then find the backlogged
//! group through [`steal_gate`](ShardedQueue::steal_gate) /
//! [`node_depth`](ShardedQueue::node_depth) and migrate a batch. Below the
//! threshold no cross-node wakeup ever fires, which is what makes
//! "balanced load steals nothing" a hard invariant rather than a
//! heuristic. After [`close`](ShardedQueue::close) the gate drops to zero
//! so any dispatcher can drain any group's remainder.
//!
//! Backpressure: when constructed with a capacity, the queue exposes both
//! park-on-full ([`push`](ShardedQueue::push), for synchronous submitters
//! that may block) and fail-fast ([`try_push`](ShardedQueue::try_push), for
//! async submitters that must never block — a full queue comes back as
//! [`PushError::Full`] so the frontend can shed or retry). The capacity is
//! a *global, soft* bound: concurrent producers that pass the admission
//! check together may overshoot it by at most the number of in-flight
//! `push` calls.
//!
//! **QoS ordering.** A group pops in flops-weighted deficit-round-robin
//! order across tenants (priority-then-EDF within each tenant's lane);
//! FIFO tie-breaks use the submission id. Every group also integrates its
//! backlog in *flops*
//! ([`node_pending_flops`](ShardedQueue::node_pending_flops)) — the load
//! measure flops-aware placement and deadline admission control consume.

// Concurrency contract (checked by `scripts/orderings.sh`): these
// cells publish queue state to threads that do not hold a group's lock —
// `closed` gates submission against shutdown, `depth`/`pending_flops`
// feed placement and steal decisions. Release on write, Acquire on read,
// so a reader acting on a depth also sees the envelope that produced it.
// `next_id`/`steal_wakeups` are plain Relaxed counters.

use crate::qos::{DrrScheduler, TenantTable, NO_DEADLINE};
use crate::request::GemmRequest;
use crate::stream::CompletionSink;
use ftgemm_core::Scalar;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A queued request with the completion channel it completes into and its
/// submission metadata.
pub(crate) struct Envelope<T: Scalar> {
    pub req: GemmRequest<T>,
    /// The channel the request is registered in; `finish` delivers to it.
    pub sink: CompletionSink<T>,
    /// Submission-order id; mirrors the handle's id for tracing/tests.
    /// Doubles as the scheduler's FIFO tie-break key.
    pub id: u64,
    /// Node affinity the placement policy stamped at submit time (selects
    /// the shard group; travels into the response for steal accounting).
    pub affinity: usize,
    pub submitted: Instant,
    /// Absolute deadline (`submitted + req.deadline`), if the request set
    /// one. Orders EDF within the priority class; the dispatcher sheds the
    /// request once this passes.
    pub deadline: Option<Instant>,
    /// Planned flops, cached at submit: the DRR cost and the unit of the
    /// group's backlog integral.
    pub flops: u64,
}

/// Why a push was rejected (the envelope is dropped — the submit path
/// unregisters the request from its channel and reports the error
/// synchronously).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue no longer accepts work (service shutting down).
    Closed,
    /// The queue is at capacity (only from [`ShardedQueue::try_push`]).
    Full,
}

/// One node's scheduler, its load counters and its dispatcher's parking
/// spot.
struct NodeGroup<T: Scalar> {
    /// Everything queued on this node, in DRR/EDF order: the one lock a
    /// push and a pop each take.
    sched: Mutex<DrrScheduler<Envelope<T>>>,
    /// Queued envelopes in this group (read without the lock by the steal
    /// heuristic and other nodes' wait predicates).
    depth: AtomicUsize,
    /// Queued *flops* in this group (read by `LeastLoaded` placement and
    /// deadline admission control).
    pending_flops: AtomicU64,
    /// Wakeup for this node's dispatcher thread.
    wake_lock: Mutex<()>,
    wake: Condvar,
}

pub(crate) struct ShardedQueue<T: Scalar> {
    groups: Vec<NodeGroup<T>>,
    /// Total queued envelopes across every group.
    depth: AtomicUsize,
    /// Soft global depth bound (`usize::MAX` = unbounded).
    capacity: usize,
    /// A group deeper than this is steal-eligible (and crossing it wakes
    /// every dispatcher).
    steal_threshold: usize,
    /// Monotonic request id source.
    next_id: AtomicU64,
    /// Cross-node wakeups fired by pushes that lifted a group past the
    /// steal threshold (observability; `0` under balanced load).
    steal_wakeups: AtomicU64,
    closed: AtomicBool,
    /// Wakeup for producers parked on a full queue.
    space_lock: Mutex<()>,
    space: Condvar,
    /// Reference instant for converting absolute deadlines into the
    /// scheduler's monotone u64 key space.
    epoch: Instant,
}

impl<T: Scalar> ShardedQueue<T> {
    /// One group per node; `capacity == 0` means unbounded. Groups deeper
    /// than `steal_threshold` become steal-eligible. `tenants` configures
    /// the DRR weights every group schedules by.
    pub(crate) fn new(
        nodes: usize,
        capacity: usize,
        steal_threshold: usize,
        tenants: TenantTable,
    ) -> Self {
        assert!(nodes >= 1, "queue needs at least one node group");
        ShardedQueue {
            groups: (0..nodes)
                .map(|_| NodeGroup {
                    sched: Mutex::new(DrrScheduler::new(tenants.clone())),
                    depth: AtomicUsize::new(0),
                    pending_flops: AtomicU64::new(0),
                    wake_lock: Mutex::new(()),
                    wake: Condvar::new(),
                })
                .collect(),
            depth: AtomicUsize::new(0),
            capacity: if capacity == 0 { usize::MAX } else { capacity },
            steal_threshold: steal_threshold.max(1),
            next_id: AtomicU64::new(0),
            steal_wakeups: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            space_lock: Mutex::new(()),
            space: Condvar::new(),
            epoch: Instant::now(),
        }
    }

    /// Fresh request id (submission order across all groups).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The live steal gate: a group must be deeper than this before a dry
    /// dispatcher may migrate its work. Zero once the queue is closed, so
    /// shutdown can drain every group through any dispatcher.
    pub(crate) fn steal_gate(&self) -> usize {
        if self.closed.load(Ordering::Acquire) {
            0
        } else {
            self.steal_threshold
        }
    }

    /// The one enqueue site: puts the envelope into its affinity node's
    /// scheduler and wakes the dispatchers that could serve it. Callers
    /// have already passed the closed/capacity admission checks.
    ///
    /// `admitted` is the submit path's accounting. It runs here because
    /// this is where a push has become certain — one turned away never
    /// gets this far, so no count is ever taken back — and before the
    /// group lock is taken, so it orders before any pop of the envelope
    /// (no request can finish before it was counted) without lengthening
    /// the critical section the dispatcher contends on.
    fn insert(&self, env: Envelope<T>, admitted: &dyn Fn()) {
        let node = env.affinity % self.groups.len();
        #[expect(clippy::indexing_slicing, reason = "node = affinity % groups.len()")]
        let group = &self.groups[node];
        let deadline_ns = env
            .deadline
            .map(|d| d.saturating_duration_since(self.epoch).as_nanos() as u64)
            .unwrap_or(NO_DEADLINE);
        let (tenant, class, cost, seq) = (env.req.tenant, env.req.priority, env.flops, env.id);
        admitted();
        let prev_group_depth = {
            // Counters rise while the group lock is held and only fall
            // after a pop has taken an envelope out under the same lock, so
            // none can transiently underflow.
            let mut sched = group.sched.lock();
            sched.push(tenant, class, deadline_ns, cost, seq, env);
            group.pending_flops.fetch_add(cost, Ordering::Release);
            self.depth.fetch_add(1, Ordering::Release);
            group.depth.fetch_add(1, Ordering::Release)
        };
        // Wake this node's dispatcher on the group's empty→non-empty
        // transition. Lost-wakeup-free: the dispatcher only sleeps after
        // observing its group depth == 0 *under* its wake_lock, and the
        // transitioning producer takes that lock before notifying.
        if prev_group_depth == 0 {
            let _g = group.wake_lock.lock();
            group.wake.notify_all();
        }
        // Crossing the steal threshold makes this group steal-eligible:
        // wake everyone so dry dispatchers can migrate batches. The same
        // lock discipline applies per dispatcher (a dry dispatcher checks
        // the gate predicate under its own wake_lock before sleeping).
        if prev_group_depth == self.steal_threshold {
            self.steal_wakeups.fetch_add(1, Ordering::Relaxed);
            self.notify_all_groups();
        }
    }

    /// Cross-node wakeups fired so far (see
    /// [`StatsSnapshot::steal_wakeups`](crate::StatsSnapshot)).
    pub(crate) fn steal_wakeups(&self) -> u64 {
        self.steal_wakeups.load(Ordering::Relaxed)
    }

    fn notify_all_groups(&self) {
        for group in &self.groups {
            let _g = group.wake_lock.lock();
            group.wake.notify_all();
        }
    }

    /// Enqueues an envelope, parking the caller while the queue is at
    /// capacity (synchronous submit surface). Fails only when closed.
    pub(crate) fn push(&self, env: Envelope<T>, admitted: &dyn Fn()) -> Result<(), PushError> {
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(PushError::Closed);
            }
            if self.depth.load(Ordering::Acquire) < self.capacity {
                self.insert(env, admitted);
                return Ok(());
            }
            // Park until a dispatcher drains something. Re-check the
            // predicate under space_lock: the pop paths notify under the
            // same lock after decrementing depth, so the wait cannot miss
            // it.
            let mut guard = self.space_lock.lock();
            if self.depth.load(Ordering::Acquire) >= self.capacity
                && !self.closed.load(Ordering::Acquire)
            {
                self.space.wait(&mut guard);
            }
        }
    }

    /// Non-blocking enqueue for async submitters: a full queue comes back
    /// immediately as [`PushError::Full`] instead of parking the caller.
    pub(crate) fn try_push(&self, env: Envelope<T>, admitted: &dyn Fn()) -> Result<(), PushError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed);
        }
        if self.depth.load(Ordering::Acquire) >= self.capacity {
            return Err(PushError::Full);
        }
        self.insert(env, admitted);
        Ok(())
    }

    /// The one dequeue site: pops up to `max` envelopes from one node's
    /// group in QoS order (per tenant weight / priority class / deadline)
    /// onto the end of `out`, and returns how many. A dispatcher passes the
    /// same buffer every time, so a sweep allocates nothing.
    pub(crate) fn pop_node_into(
        &self,
        node: usize,
        max: usize,
        out: &mut Vec<Envelope<T>>,
    ) -> usize {
        #[expect(clippy::indexing_slicing, reason = "node < groups.len()")]
        let group = &self.groups[node];
        let mut popped = 0;
        {
            let mut sched = group.sched.lock();
            while popped < max {
                let Some(s) = sched.pop() else { break };
                group.depth.fetch_sub(1, Ordering::Release);
                self.depth.fetch_sub(1, Ordering::Release);
                group
                    .pending_flops
                    .fetch_sub(s.cost_flops, Ordering::Release);
                out.push(s.payload);
                popped += 1;
            }
        }
        // Release producers parked on a full queue. (No dispatcher wakeup
        // is needed here: a dispatcher never parks on a closed queue —
        // [`wait_node`](Self::wait_node) returns immediately in drain mode
        // — and on an open queue only pushes change the wait predicate.)
        if popped > 0 && self.capacity != usize::MAX {
            let _g = self.space_lock.lock();
            self.space.notify_all();
        }
        popped
    }

    /// Pops up to `max` envelopes sweeping *all* node groups (shutdown
    /// drain).
    pub(crate) fn pop_batch(&self, max: usize) -> Vec<Envelope<T>> {
        let mut out = Vec::new();
        for node in 0..self.groups.len() {
            if out.len() >= max {
                break;
            }
            self.pop_node_into(node, max - out.len(), &mut out);
        }
        out
    }

    /// Current total queue depth (approximate under concurrency).
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Current depth of one node's group (approximate under concurrency).
    pub(crate) fn node_depth(&self, node: usize) -> usize {
        #[expect(clippy::indexing_slicing, reason = "nodes index groups")]
        self.groups[node].depth.load(Ordering::Acquire)
    }

    /// Flops-integrated backlog of one node's group (approximate under
    /// concurrency). One huge queued GEMM weighs what it
    /// costs, not "1" — this is the load measure flops-aware placement and
    /// deadline admission control read.
    pub(crate) fn node_pending_flops(&self, node: usize) -> u64 {
        #[expect(clippy::indexing_slicing, reason = "nodes index groups")]
        self.groups[node].pending_flops.load(Ordering::Acquire)
    }

    /// Parks `node`'s dispatcher until there is something for it to do:
    /// its own group is non-empty, some other group is past the steal
    /// gate, or — once closed — any group still holds a remainder to
    /// drain. Returns `false` exactly when the queue is closed *and*
    /// globally empty (the dispatcher should exit).
    pub(crate) fn wait_node(&self, node: usize) -> bool {
        #[expect(clippy::indexing_slicing, reason = "node < groups.len()")]
        let group = &self.groups[node];
        let mut guard = group.wake_lock.lock();
        loop {
            if group.depth.load(Ordering::Acquire) > 0 {
                return true;
            }
            let gate = self.steal_gate();
            #[expect(clippy::indexing_slicing, reason = "j ranges over the groups")]
            if (0..self.groups.len())
                .any(|j| j != node && self.groups[j].depth.load(Ordering::Acquire) > gate)
            {
                return true;
            }
            if self.closed.load(Ordering::Acquire) {
                // Closed: anything left anywhere is drainable by anyone
                // (gate is 0); nothing left means exit.
                return self.depth.load(Ordering::Acquire) > 0;
            }
            group.wake.wait(&mut guard);
        }
    }

    /// Marks the queue closed and wakes every dispatcher plus any parked
    /// producers. Envelopes already queued remain poppable so shutdown can
    /// drain them.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.notify_all_groups();
        let _g = self.space_lock.lock();
        self.space.notify_all();
    }

    /// [`pop_node_into`](Self::pop_node_into) a fresh vector.
    #[cfg(test)]
    pub(crate) fn pop_node(&self, node: usize, max: usize) -> Vec<Envelope<T>> {
        let mut out = Vec::new();
        self.pop_node_into(node, max, &mut out);
        out
    }

    #[cfg(test)]
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::Priority;
    use crate::stream::completion_channel;
    use ftgemm_core::Matrix;
    use std::sync::Arc;

    fn envelope_for(
        q: &ShardedQueue<f64>,
        affinity: usize,
        req: GemmRequest<f64>,
    ) -> Envelope<f64> {
        let id = q.next_id();
        let (sink, _) = completion_channel();
        let submitted = Instant::now();
        let deadline = req.deadline.map(|d| submitted + d);
        let flops = req.flops();
        Envelope {
            req,
            sink,
            id,
            affinity,
            submitted,
            deadline,
            flops,
        }
    }

    fn env_on(q: &ShardedQueue<f64>, affinity: usize) -> Envelope<f64> {
        envelope_for(
            q,
            affinity,
            GemmRequest::new(Matrix::zeros(2, 2), Matrix::zeros(2, 2)),
        )
    }

    fn env(q: &ShardedQueue<f64>) -> Envelope<f64> {
        env_on(q, 0)
    }

    fn queue(nodes: usize, capacity: usize, gate: usize) -> ShardedQueue<f64> {
        ShardedQueue::new(nodes, capacity, gate, TenantTable::default())
    }

    #[test]
    fn push_pop_preserves_count_and_order_ids() {
        let q = queue(1, 0, 8);
        for _ in 0..10 {
            q.push(env(&q), &|| ()).map_err(|_| ()).unwrap();
        }
        assert_eq!(q.depth(), 10);
        let batch = q.pop_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(q.depth(), 6);
        let rest = q.pop_batch(usize::MAX);
        assert_eq!(rest.len(), 6);
        assert_eq!(q.depth(), 0);
        let mut ids: Vec<u64> = batch.iter().chain(rest.iter()).map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn affinity_routes_to_node_groups() {
        let q = queue(3, 0, 8);
        for affinity in [0usize, 1, 1, 2, 2, 2] {
            q.push(env_on(&q, affinity), &|| ())
                .map_err(|_| ())
                .unwrap();
        }
        assert_eq!(q.node_depth(0), 1);
        assert_eq!(q.node_depth(1), 2);
        assert_eq!(q.node_depth(2), 3);
        assert_eq!(q.depth(), 6);

        // pop_node only touches its own group.
        let node1 = q.pop_node(1, usize::MAX);
        assert_eq!(node1.len(), 2);
        assert!(node1.iter().all(|e| e.affinity == 1));
        assert_eq!(q.node_depth(1), 0);
        assert_eq!(q.node_depth(2), 3);
        assert_eq!(q.depth(), 4);

        // pop_batch sweeps the remaining groups.
        assert_eq!(q.pop_batch(usize::MAX).len(), 4);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn out_of_range_affinity_wraps() {
        let q = queue(2, 0, 8);
        q.push(env_on(&q, 5), &|| ()).map_err(|_| ()).unwrap(); // 5 % 2 == 1
        assert_eq!(q.node_depth(1), 1);
        assert_eq!(q.pop_node(1, 8).len(), 1);
    }

    #[test]
    fn close_rejects_new_work_but_drains_old() {
        let q = queue(2, 0, 8);
        q.push(env_on(&q, 1), &|| ()).map_err(|_| ()).unwrap();
        q.close();
        assert!(q.is_closed());
        assert!(matches!(q.push(env(&q), &|| ()), Err(PushError::Closed)));
        assert!(matches!(
            q.try_push(env(&q), &|| ()),
            Err(PushError::Closed)
        ));
        // Closed: the remainder is visible to every dispatcher (gate 0).
        assert!(q.wait_node(0), "node 0 must see node 1's remainder");
        assert_eq!(q.steal_gate(), 0);
        assert_eq!(q.pop_batch(8).len(), 1);
        assert!(!q.wait_node(0));
        assert!(!q.wait_node(1));
    }

    #[test]
    fn wait_node_wakes_on_own_group_push() {
        let q = Arc::new(queue(2, 0, 8));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.wait_node(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(env_on(&q, 1), &|| ()).map_err(|_| ()).unwrap();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn below_threshold_pushes_do_not_wake_other_dispatchers() {
        let q = Arc::new(queue(2, 0, 4));
        let q2 = Arc::clone(&q);
        // Dispatcher 1 parks; its group stays empty.
        let waiter = std::thread::spawn(move || q2.wait_node(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Group 0 stays at the threshold: no cross-wake.
        for _ in 0..4 {
            q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "woke without a steal-eligible group");
        // The crossing push wakes it.
        q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        assert!(waiter.join().unwrap());
        assert!(q.node_depth(0) > q.steal_gate(), "group 0 steal-eligible");
    }

    #[test]
    fn steal_wakeups_counted_only_at_threshold_crossings() {
        let q = queue(2, 0, 3);
        for _ in 0..3 {
            q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        }
        assert_eq!(q.steal_wakeups(), 0, "at the threshold, not past it");
        q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap(); // crosses
        assert_eq!(q.steal_wakeups(), 1);
        q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap(); // already past: no re-fire
        assert_eq!(q.steal_wakeups(), 1);
        // Draining and re-crossing fires again.
        assert_eq!(q.pop_node(0, usize::MAX).len(), 5);
        for _ in 0..4 {
            q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        }
        assert_eq!(q.steal_wakeups(), 2);
    }

    #[test]
    fn wait_wakes_on_close() {
        let q = Arc::new(queue(1, 0, 8));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.wait_node(0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!waiter.join().unwrap());
    }

    #[test]
    fn closed_queue_drain_mode_never_parks_dispatchers() {
        let q = queue(2, 0, 8);
        q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        q.close();
        // Drain mode: every dispatcher sees node 0's remainder immediately
        // (closed gate is 0; wait_node returns without parking)...
        assert!(q.wait_node(0));
        assert!(q.wait_node(1));
        assert_eq!(q.pop_node(0, 8).len(), 1); // final pop on a closed queue
                                               // ...and observes the exit condition once it is gone.
        assert!(!q.wait_node(0));
        assert!(!q.wait_node(1));
    }

    #[test]
    fn try_push_fails_fast_at_capacity() {
        let q = queue(2, 2, 8);
        q.try_push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        q.try_push(env_on(&q, 1), &|| ()).map_err(|_| ()).unwrap();
        // Capacity is global across groups.
        assert!(matches!(
            q.try_push(env_on(&q, 1), &|| ()),
            Err(PushError::Full)
        ));
        // Draining any group reopens admission.
        assert_eq!(q.pop_node(0, 1).len(), 1);
        assert!(q.try_push(env_on(&q, 1), &|| ()).is_ok());
    }

    #[test]
    fn blocking_push_parks_until_drained() {
        let q = Arc::new(queue(1, 1, 8));
        q.push(env(&q), &|| ()).map_err(|_| ()).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let e = env(&q2);
            q2.push(e, &|| ()).map_err(|_| ()).unwrap(); // parks: queue is full
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.depth(), 1, "producer still parked");
        assert_eq!(q.pop_node(0, 1).len(), 1); // frees a slot, wakes producer
        producer.join().unwrap();
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn pending_flops_tracks_the_group_backlog() {
        let q = queue(2, 0, 8);
        // 2x2x2 → 16 flops each.
        q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        q.push(env_on(&q, 0), &|| ()).map_err(|_| ()).unwrap();
        q.push(env_on(&q, 1), &|| ()).map_err(|_| ()).unwrap();
        assert_eq!(q.node_pending_flops(0), 32);
        assert_eq!(q.node_pending_flops(1), 16);
        // Partial pop: one envelope leaves, the other still counts.
        assert_eq!(q.pop_node(0, 1).len(), 1);
        assert_eq!(q.node_pending_flops(0), 16);
        assert_eq!(q.pop_node(0, usize::MAX).len(), 1);
        assert_eq!(q.node_pending_flops(0), 0);
        assert_eq!(q.node_pending_flops(1), 16);
    }

    #[test]
    fn pop_node_orders_by_tenant_weight_and_priority() {
        // Weighted tenants: 3:1 over equal-cost requests, and within one
        // tenant's lane High precedes Normal regardless of arrival order.
        let table = TenantTable::default()
            .tenant(1, 3)
            .tenant(2, 1)
            .quantum_flops(16);
        let q = ShardedQueue::<f64>::new(1, 0, 8, table);
        let mk = |tenant, priority| {
            envelope_for(
                &q,
                0,
                GemmRequest::new(Matrix::zeros(2, 2), Matrix::zeros(2, 2))
                    .with_tenant(tenant)
                    .with_priority(priority),
            )
        };
        // Tenant 1: normal, normal, high (arrives last); tenant 2: 4x normal.
        q.push(mk(1, Priority::Normal), &|| ())
            .map_err(|_| ())
            .unwrap();
        q.push(mk(1, Priority::Normal), &|| ())
            .map_err(|_| ())
            .unwrap();
        for _ in 0..4 {
            q.push(mk(2, Priority::Normal), &|| ())
                .map_err(|_| ())
                .unwrap();
        }
        q.push(mk(1, Priority::High), &|| ())
            .map_err(|_| ())
            .unwrap();
        let order: Vec<(u32, Priority)> = q
            .pop_node(0, usize::MAX)
            .into_iter()
            .map(|e| (e.req.tenant, e.req.priority))
            .collect();
        // Round 1: tenant 1 gets 3 quanta (High first, then the two
        // Normals FIFO), tenant 2 gets 1; then tenant 2 drains alone.
        assert_eq!(
            order,
            vec![
                (1, Priority::High),
                (1, Priority::Normal),
                (1, Priority::Normal),
                (2, Priority::Normal),
                (2, Priority::Normal),
                (2, Priority::Normal),
                (2, Priority::Normal),
            ]
        );
    }

    #[test]
    fn pop_node_orders_edf_within_class() {
        // Deadline-bearing requests pop earliest-first, whatever order
        // they were pushed in.
        let q = queue(1, 0, 8);
        let mk = |deadline_ms| {
            envelope_for(
                &q,
                0,
                GemmRequest::new(Matrix::zeros(2, 2), Matrix::zeros(2, 2))
                    .with_deadline(std::time::Duration::from_millis(deadline_ms)),
            )
        };
        let (far, near, mid) = (mk(500), mk(5), mk(50));
        let (far_id, near_id, mid_id) = (far.id, near.id, mid.id);
        q.push(far, &|| ()).map_err(|_| ()).unwrap();
        q.push(near, &|| ()).map_err(|_| ()).unwrap();
        q.push(mid, &|| ()).map_err(|_| ()).unwrap();
        let order: Vec<u64> = q
            .pop_node(0, usize::MAX)
            .into_iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(order, vec![near_id, mid_id, far_id]);
    }

    #[test]
    fn close_unparks_blocked_producer() {
        let q = Arc::new(queue(1, 1, 8));
        q.push(env(&q), &|| ()).map_err(|_| ()).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let e = env(&q2);
            matches!(q2.push(e, &|| ()), Err(PushError::Closed))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(producer.join().unwrap());
    }
}
