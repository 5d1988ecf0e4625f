//! Online-learned routing: where the batched-vs-matrix-parallel cutoff
//! comes from.
//!
//! The scheduler routes every request by its multiply-add count
//! (`2*m*n*k`): at most the cutoff → coalesced into a batched parallel
//! region, above it → the matrix-parallel driver. The paper's central
//! observation (fused-ABFT overhead depends sharply on problem size) is
//! exactly why the crossover matters — and why a constant eyeballed on one
//! machine ([`DEFAULT_SMALL_FLOPS_CUTOFF`](crate::DEFAULT_SMALL_FLOPS_CUTOFF))
//! is wrong on every other one.
//!
//! [`RoutingPolicy`] picks between a pinned constant
//! ([`RoutingPolicy::Fixed`]) and an online learner
//! ([`RoutingPolicy::Adaptive`]). The learner, [`CutoffLearner`], consumes
//! the timings the service already measures (batched region wall time,
//! per-request matrix-parallel wall time), buckets them by `log2(flops)`,
//! keeps an EWMA of observed ns/flop per path per bucket, and publishes its
//! current crossover estimate through an `AtomicU64` the scheduler reads
//! lock-free when partitioning each sweep.
//!
//! The decision math is pure: [`CutoffLearner::observe`] takes `(path,
//! flops, elapsed_ns)` values — the learner never reads a clock — so the
//! same observation sequence always produces the same cutoff, which is what
//! makes the learner unit-testable with synthetic timings.
//!
//! One semantic caveat worth stating plainly: the learned value is the
//! break-even **under the observed workload**, not a load-independent
//! machine constant. A batched region's wall time is attributed to its
//! items by flops share, so a full batch makes the batched path look (and
//! genuinely be) cheaper per request than an occupancy-1 batch does — the
//! amortization is the thing being measured. Likewise, once traffic goes
//! one-sided, the starved path's per-bucket estimates go stale rather than
//! decaying; the cutoff keeps steering by the last evidence it has until
//! traffic crosses the boundary again. For workloads whose mix shifts
//! violently, pin the boundary with
//! [`RoutingPolicy::Fixed`] or re-seed via [`AdaptiveConfig::seed_cutoff`].

// Concurrency contract (checked by `scripts/orderings.sh`): the
// observation counters are plain Relaxed tallies, but `cutoff` is a
// publication cell — the learner Release-stores it under the model lock
// and the scheduler Acquire-loads it lock-free, so a reader that routes by
// a new cutoff also sees every model write that preceded its publication.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// How the service decides which execution path a request takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingPolicy {
    /// Pin the batched-vs-matrix-parallel boundary to a constant
    /// multiply-add count. Deterministic routing; the right choice for
    /// tests and for deployments that have measured their crossover
    /// offline.
    Fixed(u64),
    /// Learn the boundary online from observed per-path timings (see
    /// [`CutoffLearner`]). Routing starts at
    /// [`AdaptiveConfig::seed_cutoff`] and converges toward this machine's
    /// real break-even while serving. The learner is conservative: the
    /// cutoff never moves until *both* paths have produced enough
    /// observations to compare.
    Adaptive(AdaptiveConfig),
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        RoutingPolicy::Adaptive(AdaptiveConfig::default())
    }
}

/// Tuning knobs for [`RoutingPolicy::Adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Cutoff published before the learner has evidence (default:
    /// [`DEFAULT_SMALL_FLOPS_CUTOFF`](crate::DEFAULT_SMALL_FLOPS_CUTOFF)).
    pub seed_cutoff: u64,
    /// Weight of a new observation in the per-bucket EWMA, in `(0, 1]`
    /// (default `0.25`; higher reacts faster, lower smooths more).
    pub ewma_weight: f64,
    /// Observations a `(path, bucket)` cell needs before it participates in
    /// the crossover estimate (default `4`).
    pub min_observations: u64,
    /// Re-estimate the crossover every this many observations (default
    /// `16`). The estimate itself is cheap (a scan over 64 buckets) but
    /// re-running it per observation would just chase noise.
    pub update_interval: u64,
    /// Lower clamp on the published cutoff (default `2·16³`).
    pub min_cutoff: u64,
    /// Upper clamp on the published cutoff (default `2·2048³`).
    pub max_cutoff: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            seed_cutoff: crate::DEFAULT_SMALL_FLOPS_CUTOFF,
            ewma_weight: 0.25,
            min_observations: 4,
            update_interval: 16,
            min_cutoff: 2 * 16 * 16 * 16,
            max_cutoff: 2 * 2048 * 2048 * 2048,
        }
    }
}

/// Which execution path produced a timing observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePath {
    /// Coalesced into a batched parallel region (serial driver per item).
    Batched,
    /// Ran alone through the matrix-parallel driver.
    Parallel,
}

/// Point-in-time routing metrics, folded into
/// [`StatsSnapshot`](crate::StatsSnapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutingSnapshot {
    /// The cutoff the scheduler is routing by right now.
    pub current_cutoff: u64,
    /// Timing observations absorbed from the batched path.
    pub batched_observations: u64,
    /// Timing observations absorbed from the matrix-parallel path.
    pub parallel_observations: u64,
    /// Times the published cutoff actually changed.
    pub cutoff_updates: u64,
}

/// Number of `log2(flops)` buckets — one per possible bit position of a
/// `u64` multiply-add count.
const BUCKETS: usize = 64;

/// EWMA cell for one `(path, bucket)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct PathCell {
    /// EWMA of observed nanoseconds per multiply-add.
    ewma_ns_per_flop: f64,
    /// Observations folded into the EWMA.
    count: u64,
}

/// Mutable learner state, guarded by one mutex (observations arrive from
/// the single scheduler thread, so the lock is uncontended in the service;
/// it exists so the learner is usable — and testable — standalone).
#[derive(Debug)]
struct LearnerState {
    batched: [PathCell; BUCKETS],
    parallel: [PathCell; BUCKETS],
    /// Total observations, used to pace re-estimation.
    observations: u64,
}

/// Online estimator of the batched-vs-matrix-parallel crossover.
///
/// Feed it completed-region timings with [`observe`](Self::observe); read
/// the current estimate lock-free with [`current`](Self::current). The
/// estimate moves by at most one octave (×2 / ÷2) per update so sparse
/// early evidence cannot fling the boundary across the whole size range.
///
/// ## Decision math
///
/// Every [`AdaptiveConfig::update_interval`] observations the learner
/// re-estimates: for each bucket it predicts each path's ns/flop from the
/// nearest bucket with at least [`AdaptiveConfig::min_observations`]
/// samples for that path (ties prefer the smaller bucket), then publishes
/// a cutoff just below the first bucket where the matrix-parallel
/// prediction beats the batched one (so that whole bucket routes
/// parallel). No clock is consulted anywhere in this path — identical
/// observation sequences yield identical cutoffs.
#[derive(Debug)]
pub struct CutoffLearner {
    cfg: AdaptiveConfig,
    /// Published crossover estimate, read lock-free by the scheduler.
    cutoff: AtomicU64,
    state: Mutex<LearnerState>,
    batched_observations: AtomicU64,
    parallel_observations: AtomicU64,
    cutoff_updates: AtomicU64,
}

impl CutoffLearner {
    /// A learner seeded at `cfg.seed_cutoff` (clamped into
    /// `[min_cutoff, max_cutoff]`) with no evidence.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(
            cfg.ewma_weight > 0.0 && cfg.ewma_weight <= 1.0,
            "ewma_weight must be in (0, 1]"
        );
        assert!(cfg.min_cutoff <= cfg.max_cutoff, "empty cutoff range");
        assert!(cfg.update_interval >= 1, "update_interval must be >= 1");
        let seed = cfg.seed_cutoff.clamp(cfg.min_cutoff, cfg.max_cutoff);
        CutoffLearner {
            cfg,
            cutoff: AtomicU64::new(seed),
            state: Mutex::new(LearnerState {
                batched: [PathCell::default(); BUCKETS],
                parallel: [PathCell::default(); BUCKETS],
                observations: 0,
            }),
            batched_observations: AtomicU64::new(0),
            parallel_observations: AtomicU64::new(0),
            cutoff_updates: AtomicU64::new(0),
        }
    }

    /// The crossover estimate the scheduler should route by right now.
    pub fn current(&self) -> u64 {
        self.cutoff.load(Ordering::Acquire)
    }

    /// Folds one completed region into the model: `path` served a problem
    /// of `flops` multiply-adds in `elapsed_ns` nanoseconds. Zero-flop
    /// observations are ignored (nothing to normalize by).
    pub fn observe(&self, path: RoutePath, flops: u64, elapsed_ns: u64) {
        if flops == 0 {
            return;
        }
        match path {
            RoutePath::Batched => &self.batched_observations,
            RoutePath::Parallel => &self.parallel_observations,
        }
        .fetch_add(1, Ordering::Relaxed);

        let bucket = bucket_of(flops);
        let ns_per_flop = elapsed_ns as f64 / flops as f64;
        let mut state = self.state.lock();
        let cell = match path {
            #[expect(clippy::indexing_slicing, reason = "bucket_of is < 64 = BUCKETS")]
            RoutePath::Batched => &mut state.batched[bucket],
            #[expect(clippy::indexing_slicing, reason = "bucket_of is < 64 = BUCKETS")]
            RoutePath::Parallel => &mut state.parallel[bucket],
        };
        cell.ewma_ns_per_flop = if cell.count == 0 {
            ns_per_flop
        } else {
            self.cfg.ewma_weight * ns_per_flop
                + (1.0 - self.cfg.ewma_weight) * cell.ewma_ns_per_flop
        };
        cell.count += 1;
        state.observations += 1;
        if state.observations % self.cfg.update_interval == 0 {
            // Re-estimate while still holding the lock so concurrent
            // observers cannot interleave between model update and publish
            // (determinism under a single observer, sanity under many).
            if let Some(new_cutoff) = self.reestimate(&state) {
                self.cutoff.store(new_cutoff, Ordering::Release);
                self.cutoff_updates.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Crossover estimate from the current model, stepped at most one
    /// octave from the published cutoff and clamped; `None` when the
    /// evidence is one-sided or the estimate equals the published value.
    fn reestimate(&self, state: &LearnerState) -> Option<u64> {
        let min_obs = self.cfg.min_observations;
        // Without evidence from both paths there is nothing to compare —
        // and a freshly seeded service sees exactly that (all traffic on
        // one side of the seed), so "no movement" is the safe answer.
        let any_eligible = |cells: &[PathCell; BUCKETS]| cells.iter().any(|c| c.count >= min_obs);
        if !any_eligible(&state.batched) || !any_eligible(&state.parallel) {
            return None;
        }

        // First bucket where the matrix-parallel prediction beats the
        // batched one. The cutoff lands one below that bucket's lower edge
        // (`2^b - 1`): routing is `flops <= cutoff → batched`, so a problem
        // of exactly `2^b` flops — squarely in the bucket parallel just
        // won — must route parallel, not batched.
        let mut crossover = None;
        for b in 0..BUCKETS {
            let batched = nearest_estimate(&state.batched, min_obs, b);
            let parallel = nearest_estimate(&state.parallel, min_obs, b);
            if parallel < batched {
                crossover = Some(b);
                break;
            }
        }
        let target = match crossover {
            Some(0) => self.cfg.min_cutoff, // parallel wins even the smallest problems
            Some(b) => (1u64 << b) - 1,
            None => self.cfg.max_cutoff, // batched wins everywhere observed
        };

        let current = self.cutoff.load(Ordering::Acquire);
        let stepped = target.clamp(current / 2, current.saturating_mul(2));
        let clamped = stepped.clamp(self.cfg.min_cutoff, self.cfg.max_cutoff);
        (clamped != current).then_some(clamped)
    }

    /// Predicted nanoseconds per multiply-add for a problem of `flops`
    /// multiply-adds, evaluated on the path the current cutoff would route
    /// it to and taken from the nearest `log2(flops)` bucket with at least
    /// [`AdaptiveConfig::min_observations`] samples (ties prefer the
    /// smaller bucket, same as the crossover estimate). `None` until that
    /// path has any eligible bucket — deadline admission control treats "no
    /// evidence" as "admit", so a cold learner never rejects.
    ///
    /// Like every other learner read, this consults no clock: identical
    /// observation histories give identical estimates.
    pub fn estimate_ns_per_flop(&self, flops: u64) -> Option<f64> {
        if flops == 0 {
            return None;
        }
        let path = if flops <= self.current() {
            RoutePath::Batched
        } else {
            RoutePath::Parallel
        };
        let state = self.state.lock();
        let cells = match path {
            RoutePath::Batched => &state.batched,
            RoutePath::Parallel => &state.parallel,
        };
        let min_obs = self.cfg.min_observations;
        if !cells.iter().any(|c| c.count >= min_obs) {
            return None;
        }
        Some(nearest_estimate(cells, min_obs, bucket_of(flops)))
    }

    /// Routing metrics for [`StatsSnapshot`](crate::StatsSnapshot).
    pub fn snapshot(&self) -> RoutingSnapshot {
        RoutingSnapshot {
            current_cutoff: self.current(),
            batched_observations: self.batched_observations.load(Ordering::Relaxed),
            parallel_observations: self.parallel_observations.load(Ordering::Relaxed),
            cutoff_updates: self.cutoff_updates.load(Ordering::Relaxed),
        }
    }
}

/// `floor(log2(flops))` — the bucket index of a multiply-add count.
fn bucket_of(flops: u64) -> usize {
    debug_assert!(flops > 0);
    (63 - flops.leading_zeros()) as usize
}

/// Predicted ns/flop for bucket `b`: the EWMA of the nearest bucket with
/// enough samples (ties prefer the smaller bucket). Callers have verified
/// at least one eligible bucket exists.
fn nearest_estimate(cells: &[PathCell; BUCKETS], min_obs: u64, b: usize) -> f64 {
    for d in 0..BUCKETS {
        #[expect(clippy::indexing_slicing, reason = "b - d <= b < BUCKETS")]
        if b >= d && cells[b - d].count >= min_obs {
            #[expect(clippy::indexing_slicing, reason = "b - d <= b < BUCKETS")]
            return cells[b - d].ewma_ns_per_flop;
        }
        let up = b + d;
        #[expect(clippy::indexing_slicing, reason = "up < BUCKETS is checked first")]
        if up < BUCKETS && cells[up].count >= min_obs {
            #[expect(clippy::indexing_slicing, reason = "up < BUCKETS")]
            return cells[up].ewma_ns_per_flop;
        }
    }
    unreachable!("caller checked an eligible bucket exists");
}

/// The resolved routing state a service holds: either a constant or a live
/// learner (boxed — the learner's bucket tables dwarf the constant).
#[derive(Debug)]
pub(crate) enum RouteState {
    Fixed(u64),
    Adaptive(Box<CutoffLearner>),
}

impl RouteState {
    pub(crate) fn new(policy: RoutingPolicy) -> Self {
        match policy {
            RoutingPolicy::Fixed(cutoff) => RouteState::Fixed(cutoff),
            RoutingPolicy::Adaptive(cfg) => RouteState::Adaptive(Box::new(CutoffLearner::new(cfg))),
        }
    }

    /// The cutoff to partition the next sweep by (lock-free).
    pub(crate) fn cutoff(&self) -> u64 {
        match self {
            RouteState::Fixed(cutoff) => *cutoff,
            RouteState::Adaptive(learner) => learner.current(),
        }
    }

    /// Feeds a completed region's timing to the learner (no-op when fixed).
    pub(crate) fn observe(&self, path: RoutePath, flops: u64, elapsed_ns: u64) {
        if let RouteState::Adaptive(learner) = self {
            learner.observe(path, flops, elapsed_ns);
        }
    }

    /// Learned ns/flop prediction for a problem of `flops` multiply-adds
    /// (deadline admission control's completion-time model). `None` under a
    /// fixed policy — a pinned cutoff carries no timing model, so admission
    /// control stays permissive — or before the learner has evidence.
    pub(crate) fn estimate_ns_per_flop(&self, flops: u64) -> Option<f64> {
        match self {
            RouteState::Fixed(_) => None,
            RouteState::Adaptive(learner) => learner.estimate_ns_per_flop(flops),
        }
    }

    pub(crate) fn snapshot(&self) -> RoutingSnapshot {
        match self {
            RouteState::Fixed(cutoff) => RoutingSnapshot {
                current_cutoff: *cutoff,
                ..RoutingSnapshot::default()
            },
            RouteState::Adaptive(learner) => learner.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config with a fast update cadence so tests need few observations.
    fn test_cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            seed_cutoff: 1 << 20,
            min_observations: 2,
            update_interval: 4,
            min_cutoff: 1 << 10,
            max_cutoff: 1 << 40,
            ..AdaptiveConfig::default()
        }
    }

    /// Feeds `n` observations of a constant ns/flop at a fixed size.
    fn feed(l: &CutoffLearner, path: RoutePath, flops: u64, ns_per_flop: f64, n: usize) {
        for _ in 0..n {
            l.observe(path, flops, (flops as f64 * ns_per_flop) as u64);
        }
    }

    #[test]
    fn seeded_cutoff_until_both_paths_observed() {
        let l = CutoffLearner::new(test_cfg());
        assert_eq!(l.current(), 1 << 20);
        // One-sided evidence (only batched): the cutoff must not move, no
        // matter how much of it arrives.
        feed(&l, RoutePath::Batched, 1 << 12, 1.0, 64);
        assert_eq!(l.current(), 1 << 20, "one-sided evidence moved cutoff");
        assert_eq!(l.snapshot().cutoff_updates, 0);
        assert_eq!(l.snapshot().batched_observations, 64);
    }

    #[test]
    fn deterministic_same_observations_same_cutoff() {
        let run = || {
            let l = CutoffLearner::new(test_cfg());
            // An arbitrary but fixed interleaving across sizes and paths.
            for i in 0..200u64 {
                let flops = 1u64 << (10 + (i % 14));
                let (path, npf) = if i % 3 == 0 {
                    (RoutePath::Parallel, 0.4 + (i % 7) as f64 * 0.05)
                } else {
                    (RoutePath::Batched, 0.9 + (i % 5) as f64 * 0.1)
                };
                l.observe(path, flops, (flops as f64 * npf) as u64);
            }
            (l.current(), l.snapshot().cutoff_updates)
        };
        assert_eq!(run(), run(), "learner is not deterministic");
    }

    #[test]
    fn parallel_slower_everywhere_pushes_cutoff_up() {
        let l = CutoffLearner::new(test_cfg());
        // Batched is 1.0 ns/flop; parallel 5.0 ns/flop (region overhead
        // dwarfing the small problems it was given). Batched should absorb
        // everything: the cutoff climbs, one octave per update.
        feed(&l, RoutePath::Batched, 1 << 14, 1.0, 8);
        feed(&l, RoutePath::Parallel, 1 << 22, 5.0, 8);
        let after_first = l.current();
        assert!(after_first > 1 << 20, "cutoff did not rise: {after_first}");
        feed(&l, RoutePath::Batched, 1 << 14, 1.0, 64);
        assert!(l.current() > after_first, "cutoff stopped rising");
        assert!(l.current() <= 1 << 40, "clamp violated");
        assert!(l.snapshot().cutoff_updates >= 2);
    }

    #[test]
    fn parallel_faster_everywhere_pushes_cutoff_down() {
        let l = CutoffLearner::new(test_cfg());
        feed(&l, RoutePath::Batched, 1 << 14, 2.0, 8);
        feed(&l, RoutePath::Parallel, 1 << 22, 0.5, 8);
        assert!(
            l.current() < 1 << 20,
            "cutoff did not fall: {}",
            l.current()
        );
        // Keep feeding: converges to (and respects) the lower clamp.
        for _ in 0..16 {
            feed(&l, RoutePath::Parallel, 1 << 22, 0.5, 4);
        }
        assert_eq!(l.current(), test_cfg().min_cutoff);
    }

    #[test]
    fn converges_to_a_real_crossover_and_stays() {
        // Batched flat at 1.0 ns/flop; parallel expensive at small sizes
        // (3.0 at 2^16) and cheap at large ones (0.5 at 2^26). Nearest-
        // bucket prediction puts the crossover midway: parallel first wins
        // at bucket 22 (distance 6 to its cheap bucket vs 5 at bucket 21).
        let cfg = test_cfg();
        let l = CutoffLearner::new(cfg);
        for _ in 0..32 {
            feed(&l, RoutePath::Batched, 1 << 16, 1.0, 2);
            feed(&l, RoutePath::Parallel, 1 << 16, 3.0, 2);
            feed(&l, RoutePath::Batched, 1 << 26, 1.0, 2);
            feed(&l, RoutePath::Parallel, 1 << 26, 0.5, 2);
        }
        // Published just below bucket 22's lower edge: a problem of exactly
        // 2^22 flops is in the bucket parallel wins, so it must not satisfy
        // `flops <= cutoff`.
        assert_eq!(l.current(), (1 << 22) - 1, "crossover estimate off");
        let updates = l.snapshot().cutoff_updates;
        // More of the same evidence must not move a converged cutoff.
        for _ in 0..8 {
            feed(&l, RoutePath::Batched, 1 << 16, 1.0, 2);
            feed(&l, RoutePath::Parallel, 1 << 26, 0.5, 2);
        }
        assert_eq!(l.current(), (1 << 22) - 1);
        assert_eq!(
            l.snapshot().cutoff_updates,
            updates,
            "converged cutoff still updating"
        );
    }

    #[test]
    fn moves_at_most_one_octave_per_update() {
        let cfg = test_cfg();
        let l = CutoffLearner::new(cfg);
        // Evidence says "parallel wins everywhere" (target = min_cutoff,
        // ten octaves below the seed) — but each update may halve at most.
        feed(&l, RoutePath::Batched, 1 << 14, 9.0, 2);
        feed(&l, RoutePath::Parallel, 1 << 22, 0.1, 2);
        assert_eq!(l.current(), 1 << 19, "first update must step one octave");
        feed(&l, RoutePath::Parallel, 1 << 22, 0.1, 4);
        assert_eq!(l.current(), 1 << 18, "second update must step one octave");
    }

    #[test]
    fn zero_flop_observations_ignored() {
        let l = CutoffLearner::new(test_cfg());
        l.observe(RoutePath::Batched, 0, 1_000);
        let snap = l.snapshot();
        assert_eq!(snap.batched_observations, 0);
        assert_eq!(snap.cutoff_updates, 0);
    }

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1 << 20), 20);
        assert_eq!(bucket_of((1 << 21) - 1), 20);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn estimate_ns_per_flop_follows_the_routed_path() {
        let l = CutoffLearner::new(test_cfg()); // seed cutoff 2^20
        assert_eq!(l.estimate_ns_per_flop(1 << 14), None, "no evidence yet");

        // Batched evidence at 2.0 ns/flop, parallel at 0.5 ns/flop. A
        // problem below the cutoff is predicted from the batched cells, one
        // above it from the parallel cells.
        feed(&l, RoutePath::Batched, 1 << 14, 2.0, 2);
        let below = l.estimate_ns_per_flop(1 << 14).unwrap();
        assert!((below - 2.0).abs() < 1e-9, "batched estimate: {below}");
        assert_eq!(
            l.estimate_ns_per_flop(1 << 30),
            None,
            "above-cutoff request needs parallel evidence, which is absent"
        );
        feed(&l, RoutePath::Parallel, 1 << 30, 0.5, 2);
        let above = l.estimate_ns_per_flop(1 << 30).unwrap();
        assert!((above - 0.5).abs() < 1e-9, "parallel estimate: {above}");
        assert_eq!(l.estimate_ns_per_flop(0), None);
    }

    #[test]
    fn fixed_route_state_has_no_ns_per_flop_model() {
        let r = RouteState::new(RoutingPolicy::Fixed(1234));
        r.observe(RoutePath::Batched, 1 << 20, 1 << 20);
        assert_eq!(r.estimate_ns_per_flop(1 << 20), None);
    }

    #[test]
    fn fixed_route_state_never_moves_or_counts() {
        let r = RouteState::new(RoutingPolicy::Fixed(1234));
        r.observe(RoutePath::Batched, 1 << 20, 1 << 20);
        r.observe(RoutePath::Parallel, 1 << 24, 1 << 20);
        assert_eq!(r.cutoff(), 1234);
        let snap = r.snapshot();
        assert_eq!(snap.current_cutoff, 1234);
        assert_eq!(snap.batched_observations, 0);
        assert_eq!(snap.parallel_observations, 0);
        assert_eq!(snap.cutoff_updates, 0);
    }

    #[test]
    fn seed_clamped_into_range() {
        let cfg = AdaptiveConfig {
            seed_cutoff: 1,
            min_cutoff: 1 << 12,
            max_cutoff: 1 << 30,
            ..AdaptiveConfig::default()
        };
        assert_eq!(CutoffLearner::new(cfg).current(), 1 << 12);
    }
}
