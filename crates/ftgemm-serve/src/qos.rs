//! Multi-tenant quality-of-service primitives: tenant weights, priority
//! classes, and the flops-weighted deficit-round-robin (DRR) scheduler that
//! orders the service's queue.
//!
//! # Scheduling model
//!
//! Every request belongs to a *tenant* and carries a *priority class* and an
//! optional *deadline*. The scheduler composes three mechanisms, outermost
//! first:
//!
//! 1. **DRR across tenants** — each tenant owns a lane with a deficit counter
//!    measured in flops. When a lane is visited it is credited
//!    `quantum_flops * weight`; requests are served while the lane's deficit
//!    covers the head request's planned flops, then the lane rotates to the
//!    back of the active ring. Backlogged lanes carry their residual deficit
//!    to the next round; a lane that drains resets its deficit to zero so an
//!    idle tenant cannot bank credit. With `quantum_flops` at least as large
//!    as the biggest single request, a backlogged tenant's served-flops share
//!    over any window is within one max-request granularity of
//!    `weight / total_active_weight` — the classic Shreedhar-Varghese bound.
//! 2. **Priority classes within a lane** — `High` before `Normal` before
//!    `Low`. Classes are scoped to the lane on purpose: marking every request
//!    `High` lets a tenant reorder *its own* work but cannot grow its
//!    cross-tenant share, which is fixed by the DRR weight.
//! 3. **EDF within a class** — earliest deadline first; requests without a
//!    deadline sort last ([`NO_DEADLINE`]). Ties break FIFO by admission
//!    sequence number.
//!
//! The scheduler is purely mechanical: no clocks, no randomness. Time enters
//! only through the deadline keys the caller supplies, which is what makes
//! the [`SchedSim`] harness exact rather than statistical.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Identifies a tenant. Tenant `0` is the default for requests that do not
/// set one explicitly.
pub type TenantId = u32;

/// Tenant id assumed when a request does not name one.
pub const DEFAULT_TENANT: TenantId = 0;

/// Deadline key used for requests without a deadline: sorts after every real
/// deadline, so deadline-bearing work within the same class goes first.
pub const NO_DEADLINE: u64 = u64::MAX;

/// Default DRR quantum in flops. One 256^3 GEMM (2·256³ flops) per weight
/// unit per round: large enough to cover typical single requests (so the
/// one-max-request fairness bound holds) without making rounds coarse.
pub const DEFAULT_QUANTUM_FLOPS: u64 = 2 * 256 * 256 * 256;

/// Priority class of a request. Classes order work *within* a tenant's lane;
/// they do not affect the cross-tenant share (that is the DRR weight's job).
///
/// `High` sorts before `Normal` before `Low`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive work: served before everything else in the lane.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background work: served only when the lane has nothing more urgent.
    Low,
}

impl Priority {
    /// Number of priority classes.
    pub const CLASSES: usize = 3;

    /// Dense index for per-class tables: `High` is 0, `Low` is
    /// `CLASSES - 1`.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// All classes in service order.
    pub fn all() -> [Priority; Self::CLASSES] {
        [Priority::High, Priority::Normal, Priority::Low]
    }
}

/// Per-tenant scheduling weights the service's scheduler orders by.
///
/// Weights are relative: a tenant with weight 4 receives four times the
/// flops-share of a tenant with weight 1 while both are backlogged. Tenants
/// absent from the table get `default_weight`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantTable {
    tenants: Vec<(TenantId, u64)>,
    default_weight: u64,
    quantum_flops: u64,
}

impl Default for TenantTable {
    fn default() -> Self {
        TenantTable {
            tenants: Vec::new(),
            default_weight: 1,
            quantum_flops: DEFAULT_QUANTUM_FLOPS,
        }
    }
}

impl TenantTable {
    /// Empty table: every tenant gets weight 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) the weight for `tenant`.
    pub fn tenant(mut self, tenant: TenantId, weight: u64) -> Self {
        if let Some(slot) = self.tenants.iter_mut().find(|(t, _)| *t == tenant) {
            slot.1 = weight;
        } else {
            self.tenants.push((tenant, weight));
        }
        self
    }

    /// Weight applied to tenants not listed in the table.
    pub fn default_weight(mut self, weight: u64) -> Self {
        self.default_weight = weight;
        self
    }

    /// DRR quantum in flops credited per weight unit per round.
    pub fn quantum_flops(mut self, flops: u64) -> Self {
        self.quantum_flops = flops;
        self
    }

    /// Returns the configured weight for `tenant`.
    pub fn weight_of(&self, tenant: TenantId) -> u64 {
        self.tenants
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_weight)
    }

    /// Returns the configured quantum.
    pub fn quantum(&self) -> u64 {
        self.quantum_flops
    }

    /// Validates the table. Zero weights are rejected: a zero-weight lane
    /// would never accumulate deficit and its tenant would starve, which
    /// defeats the scheduler's no-starvation guarantee. Reject the config
    /// instead of silently wedging the tenant.
    pub fn validate(&self) -> Result<(), String> {
        if self.default_weight == 0 {
            return Err("tenant default_weight must be >= 1".into());
        }
        if self.quantum_flops == 0 {
            return Err("tenant quantum_flops must be >= 1".into());
        }
        for (tenant, weight) in &self.tenants {
            if *weight == 0 {
                return Err(format!(
                    "tenant {tenant} has weight 0; weights must be >= 1"
                ));
            }
        }
        let mut ids: Vec<TenantId> = self.tenants.iter().map(|(t, _)| *t).collect();
        ids.sort_unstable();
        #[expect(clippy::indexing_slicing, reason = "windows(2) yields pairs")]
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err("tenant table contains duplicate tenant ids".into());
        }
        Ok(())
    }
}

/// A request popped from the scheduler, with the keys it was ordered by.
#[derive(Debug)]
pub struct Scheduled<P> {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Priority class the request was queued under.
    pub class: Priority,
    /// Absolute deadline key supplied at push; [`NO_DEADLINE`] if none.
    pub deadline_ns: u64,
    /// Planned cost in flops, as charged against the tenant's deficit.
    pub cost_flops: u64,
    /// Admission sequence number (FIFO tie-break key).
    pub seq: u64,
    /// The caller's payload, returned unchanged.
    pub payload: P,
}

/// Heap entry: ordered by (deadline, seq) only; cost and payload ride along.
struct Item<P> {
    deadline_ns: u64,
    seq: u64,
    cost_flops: u64,
    payload: P,
}

impl<P> PartialEq for Item<P> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_ns == other.deadline_ns && self.seq == other.seq
    }
}
impl<P> Eq for Item<P> {}
impl<P> PartialOrd for Item<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Item<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline_ns, self.seq).cmp(&(other.deadline_ns, other.seq))
    }
}

struct Lane<P> {
    tenant: TenantId,
    /// Live weight. Read at replenishment time, so `set_weight` takes effect
    /// the next time the lane starts a round — never mid-visit.
    weight: u64,
    /// Deficit in flops. Kept signed so tests can assert it never dips below
    /// zero; the pop discipline only subtracts a cost it has verified the
    /// deficit covers.
    deficit: i64,
    classes: [BinaryHeap<Reverse<Item<P>>>; Priority::CLASSES],
    pending: usize,
}

impl<P> Lane<P> {
    fn new(tenant: TenantId, weight: u64) -> Self {
        Lane {
            tenant,
            weight,
            deficit: 0,
            classes: [BinaryHeap::new(), BinaryHeap::new(), BinaryHeap::new()],
            pending: 0,
        }
    }

    /// (class index, head cost) of the most urgent pending item, if any.
    fn head(&self) -> Option<(usize, u64)> {
        for (ci, heap) in self.classes.iter().enumerate() {
            if let Some(Reverse(item)) = heap.peek() {
                return Some((ci, item.cost_flops));
            }
        }
        None
    }
}

/// Flops-weighted deficit round-robin across tenants with priority-then-EDF
/// ordering inside each lane. Deterministic: identical push/pop sequences
/// produce identical service orders.
pub struct DrrScheduler<P> {
    table: TenantTable,
    lanes: Vec<Lane<P>>,
    /// tenant id -> lane index.
    index: BTreeMap<TenantId, usize>,
    /// Ring of backlogged lanes, in visit order.
    active: VecDeque<usize>,
    /// Lane currently being served within its visit, if any.
    current: Option<usize>,
    pending: usize,
    pending_flops: u64,
}

impl<P> DrrScheduler<P> {
    /// Scheduler over `table`'s tenants (lanes materialize on first push).
    /// Debug-asserts the table validates; services validate at config time.
    pub fn new(table: TenantTable) -> Self {
        debug_assert!(table.validate().is_ok(), "invalid tenant table");
        DrrScheduler {
            table,
            lanes: Vec::new(),
            index: BTreeMap::new(),
            active: VecDeque::new(),
            current: None,
            pending: 0,
            pending_flops: 0,
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total planned flops currently queued.
    pub fn pending_flops(&self) -> u64 {
        self.pending_flops
    }

    /// Current deficit of `tenant`'s lane, if the lane exists.
    pub fn deficit_of(&self, tenant: TenantId) -> Option<i64> {
        #[expect(clippy::indexing_slicing, reason = "index only names existing lanes")]
        self.index.get(&tenant).map(|&i| self.lanes[i].deficit)
    }

    /// Updates a tenant's weight. The new weight is read at the lane's next
    /// replenishment, i.e. it takes effect at the start of the lane's next
    /// round; a visit already in progress finishes under the old credit.
    pub fn set_weight(&mut self, tenant: TenantId, weight: u64) {
        assert!(weight >= 1, "tenant weight must be >= 1");
        self.table = std::mem::take(&mut self.table).tenant(tenant, weight);
        #[expect(clippy::indexing_slicing, reason = "index only names existing lanes")]
        if let Some(&i) = self.index.get(&tenant) {
            self.lanes[i].weight = weight;
        }
    }

    fn lane_of(&mut self, tenant: TenantId) -> usize {
        if let Some(&i) = self.index.get(&tenant) {
            return i;
        }
        let i = self.lanes.len();
        self.lanes
            .push(Lane::new(tenant, self.table.weight_of(tenant)));
        self.index.insert(tenant, i);
        i
    }

    /// Enqueues a request. `seq` is the FIFO tie-break key and must be
    /// monotone in admission order (the queue uses the request id; the
    /// simulator a local counter). `deadline_ns` is an absolute key on the
    /// caller's clock, [`NO_DEADLINE`] for none.
    pub fn push(
        &mut self,
        tenant: TenantId,
        class: Priority,
        deadline_ns: u64,
        cost_flops: u64,
        seq: u64,
        payload: P,
    ) {
        let li = self.lane_of(tenant);
        #[expect(clippy::indexing_slicing, reason = "lane_of returns a lane index")]
        let lane = &mut self.lanes[li];
        let was_idle = lane.pending == 0;
        #[expect(clippy::indexing_slicing, reason = "Priority::index is < CLASSES")]
        lane.classes[class.index()].push(Reverse(Item {
            deadline_ns,
            seq,
            cost_flops,
            payload,
        }));
        lane.pending += 1;
        self.pending += 1;
        self.pending_flops = self.pending_flops.saturating_add(cost_flops);
        // A lane re-entering the backlog joins the back of the ring and, per
        // DRR, starts from a zero deficit (reset when it drained).
        if was_idle && self.current != Some(li) {
            self.active.push_back(li);
        }
    }

    /// Pops the next request in DRR/priority/EDF order.
    pub fn pop(&mut self) -> Option<Scheduled<P>> {
        loop {
            if self.pending == 0 {
                return None;
            }
            let li = match self.current {
                Some(li) => li,
                None => {
                    let li = self.active.pop_front()?;
                    #[expect(clippy::indexing_slicing, reason = "active holds lane indices")]
                    let lane = &mut self.lanes[li];
                    let credit = lane.weight.saturating_mul(self.table.quantum());
                    let credit = i64::try_from(credit).unwrap_or(i64::MAX);
                    lane.deficit = lane.deficit.saturating_add(credit);
                    self.current = Some(li);
                    li
                }
            };
            #[expect(clippy::indexing_slicing, reason = "current holds a lane index")]
            let lane = &mut self.lanes[li];
            match lane.head() {
                None => {
                    // Drained while current (should not happen: pop clears
                    // `current` when a lane empties) — reset defensively.
                    lane.deficit = 0;
                    self.current = None;
                }
                Some((ci, cost)) if i64::try_from(cost).unwrap_or(i64::MAX) <= lane.deficit => {
                    lane.deficit -= i64::try_from(cost).unwrap_or(i64::MAX);
                    debug_assert!(lane.deficit >= 0);
                    #[expect(clippy::expect_used, reason = "head() found a non-empty class")]
                    #[expect(clippy::indexing_slicing, reason = "head() returns ci < CLASSES")]
                    let Reverse(item) = lane.classes[ci].pop().expect("head exists");
                    lane.pending -= 1;
                    self.pending -= 1;
                    self.pending_flops = self.pending_flops.saturating_sub(item.cost_flops);
                    let tenant = lane.tenant;
                    if lane.pending == 0 {
                        // Idle lanes do not bank credit.
                        lane.deficit = 0;
                        self.current = None;
                    }
                    return Some(Scheduled {
                        tenant,
                        #[expect(clippy::indexing_slicing, reason = "ci < CLASSES")]
                        class: Priority::all()[ci],
                        deadline_ns: item.deadline_ns,
                        cost_flops: item.cost_flops,
                        seq: item.seq,
                        payload: item.payload,
                    });
                }
                Some(_) => {
                    // Deficit does not cover the head request: rotate to the
                    // back of the ring, carrying the residual deficit.
                    self.active.push_back(li);
                    self.current = None;
                }
            }
        }
    }
}

/// Deterministic scheduler simulator: a [`DrrScheduler`] plus per-tenant
/// service tallies. Drives the exact decision functions the serving queue
/// uses, with no threads, sleeps, or clock — fairness properties checked
/// against it are exact.
pub struct SchedSim {
    sched: DrrScheduler<()>,
    next_seq: u64,
    served: BTreeMap<TenantId, Tally>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    count: u64,
    flops: u64,
}

/// One serviced request as observed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimServed {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Priority class the request was queued under.
    pub class: Priority,
    /// Admission sequence number.
    pub seq: u64,
    /// Planned cost in flops.
    pub cost_flops: u64,
    /// Deadline key; [`NO_DEADLINE`] if none was set.
    pub deadline_ns: u64,
}

impl SchedSim {
    /// New simulator over a fresh scheduler configured by `table`.
    pub fn new(table: TenantTable) -> Self {
        SchedSim {
            sched: DrrScheduler::new(table),
            next_seq: 0,
            served: BTreeMap::new(),
        }
    }

    /// Enqueues a request with deadline key `deadline_ns` (earlier keys
    /// pop first within a class). Returns the admission sequence number.
    pub fn arrive(
        &mut self,
        tenant: TenantId,
        class: Priority,
        deadline_ns: Option<u64>,
        cost_flops: u64,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let deadline_ns = deadline_ns.unwrap_or(NO_DEADLINE);
        self.sched
            .push(tenant, class, deadline_ns, cost_flops, seq, ());
        seq
    }

    /// Pops the next request per scheduler order and tallies it.
    pub fn pop(&mut self) -> Option<SimServed> {
        let s = self.sched.pop()?;
        let tally = self.served.entry(s.tenant).or_default();
        tally.count += 1;
        tally.flops = tally.flops.saturating_add(s.cost_flops);
        Some(SimServed {
            tenant: s.tenant,
            class: s.class,
            seq: s.seq,
            cost_flops: s.cost_flops,
            deadline_ns: s.deadline_ns,
        })
    }

    /// Total flops served for `tenant` so far.
    pub fn served_flops(&self, tenant: TenantId) -> u64 {
        self.served.get(&tenant).map(|t| t.flops).unwrap_or(0)
    }

    /// Requests served for `tenant` so far.
    pub fn served_count(&self, tenant: TenantId) -> u64 {
        self.served.get(&tenant).map(|t| t.count).unwrap_or(0)
    }

    /// Queued requests not yet served.
    pub fn backlog(&self) -> usize {
        self.sched.len()
    }

    /// Current deficit of a tenant's lane.
    pub fn deficit_of(&self, tenant: TenantId) -> Option<i64> {
        self.sched.deficit_of(tenant)
    }

    /// Re-weights a tenant mid-trace (effective at its next round).
    pub fn set_weight(&mut self, tenant: TenantId, weight: u64) {
        self.sched.set_weight(tenant, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2(w1: u64, w2: u64) -> TenantTable {
        TenantTable::new()
            .tenant(1, w1)
            .tenant(2, w2)
            .quantum_flops(100)
    }

    #[test]
    fn validate_rejects_zero_weight() {
        assert!(TenantTable::new().tenant(7, 0).validate().is_err());
        assert!(TenantTable::new().default_weight(0).validate().is_err());
        assert!(TenantTable::new().quantum_flops(0).validate().is_err());
        assert!(TenantTable::new().tenant(7, 3).validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_ids_built_externally() {
        // The builder replaces duplicates, so construct the degenerate case
        // is impossible through the API; the builder path must stay valid.
        let t = TenantTable::new().tenant(1, 2).tenant(1, 3);
        assert!(t.validate().is_ok());
        assert_eq!(t.weight_of(1), 3);
    }

    #[test]
    fn weights_split_flops_proportionally() {
        let mut sim = SchedSim::new(table2(3, 1));
        for _ in 0..40 {
            sim.arrive(1, Priority::Normal, None, 50);
            sim.arrive(2, Priority::Normal, None, 50);
        }
        // Serve 40 requests (half the backlog) while both stay backlogged.
        let mut flops = BTreeMap::new();
        for _ in 0..40 {
            let s = sim.pop().unwrap();
            *flops.entry(s.tenant).or_insert(0u64) += s.cost_flops;
        }
        let f1 = flops[&1] as f64;
        let f2 = flops[&2] as f64;
        // 3:1 within one quantum*weight of slack.
        assert!((f1 / f2 - 3.0).abs() <= 1.0, "share {f1}:{f2}");
    }

    #[test]
    fn deficit_never_negative_and_resets_on_drain() {
        let mut sim = SchedSim::new(table2(2, 1));
        sim.arrive(1, Priority::Normal, None, 150);
        sim.arrive(1, Priority::Normal, None, 150);
        sim.arrive(2, Priority::Normal, None, 40);
        while sim.pop().is_some() {
            for t in [1, 2] {
                if let Some(d) = sim.deficit_of(t) {
                    assert!(d >= 0, "tenant {t} deficit {d} went negative");
                }
            }
        }
        // Drained lanes bank nothing.
        assert_eq!(sim.deficit_of(1), Some(0));
        assert_eq!(sim.deficit_of(2), Some(0));
    }

    #[test]
    fn edf_orders_within_class_and_ties_break_fifo() {
        let mut sim = SchedSim::new(TenantTable::new().quantum_flops(1000));
        let late = sim.arrive(1, Priority::Normal, Some(900), 10);
        let early = sim.arrive(1, Priority::Normal, Some(100), 10);
        let tie_a = sim.arrive(1, Priority::Normal, Some(500), 10);
        let tie_b = sim.arrive(1, Priority::Normal, Some(500), 10);
        let none = sim.arrive(1, Priority::Normal, None, 10);
        let order: Vec<u64> = std::iter::from_fn(|| sim.pop()).map(|s| s.seq).collect();
        assert_eq!(order, vec![early, tie_a, tie_b, late, none]);
    }

    #[test]
    fn priority_classes_serve_high_first_within_a_lane() {
        let mut sim = SchedSim::new(TenantTable::new().quantum_flops(1000));
        let low = sim.arrive(1, Priority::Low, Some(10), 10);
        let normal = sim.arrive(1, Priority::Normal, Some(999), 10);
        let high = sim.arrive(1, Priority::High, None, 10);
        let order: Vec<u64> = std::iter::from_fn(|| sim.pop()).map(|s| s.seq).collect();
        // Class dominates deadline inside a lane.
        assert_eq!(order, vec![high, normal, low]);
    }

    #[test]
    fn weight_change_takes_effect_next_round() {
        let mut sim = SchedSim::new(table2(1, 1));
        for _ in 0..12 {
            sim.arrive(1, Priority::Normal, None, 100);
            sim.arrive(2, Priority::Normal, None, 100);
        }
        // Round 1: equal weights alternate 1, 2.
        assert_eq!(sim.pop().unwrap().tenant, 1);
        assert_eq!(sim.pop().unwrap().tenant, 2);
        // Re-weight tenant 1 to 3 mid-trace: next visits credit 3 quanta.
        sim.set_weight(1, 3);
        let mut next: Vec<TenantId> = Vec::new();
        for _ in 0..8 {
            next.push(sim.pop().unwrap().tenant);
        }
        // Tenant 1 now takes 3 of every 4 slots.
        assert_eq!(next, vec![1, 1, 1, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn background_tenant_not_starved() {
        // Foreground floods large requests; background weight 1 still gets
        // served within one round.
        let table = TenantTable::new()
            .tenant(1, 8)
            .tenant(2, 1)
            .quantum_flops(100);
        let mut sim = SchedSim::new(table);
        for _ in 0..200 {
            sim.arrive(1, Priority::High, Some(1), 100);
        }
        sim.arrive(2, Priority::Low, None, 100);
        let mut served_background_after = None;
        for i in 0..64 {
            let s = sim.pop().unwrap();
            if s.tenant == 2 {
                served_background_after = Some(i);
                break;
            }
        }
        // Weight 8 tenant serves at most 8 requests (8 quanta) per round;
        // the background lane must be visited in round 1.
        let waited = served_background_after.expect("background tenant starved");
        assert!(waited <= 8, "background waited {waited} pops");
    }

    #[test]
    fn determinism_identical_traces_identical_orders() {
        let run = || {
            let mut sim = SchedSim::new(table2(2, 3));
            for i in 0..30u64 {
                sim.arrive(
                    (i % 2) as TenantId + 1,
                    Priority::Normal,
                    Some(1000 - i),
                    10 + i,
                );
            }
            std::iter::from_fn(move || sim.pop())
                .map(|s| (s.tenant, s.seq))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
