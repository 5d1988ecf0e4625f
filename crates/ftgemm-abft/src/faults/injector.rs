//! The injector and its per-call/per-thread site streams.

use super::model::{ErrorEvent, ErrorModel, Rate};
use super::stats::InjectionStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A configured fault injector, shared (by reference) with compute drivers.
///
/// The injector itself is immutable and `Sync`; mutation lives in the
/// [`SiteStream`]s drivers open per call / per thread and in the atomic
/// [`InjectionStats`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    model: ErrorModel,
    rate: Rate,
    stats: Arc<InjectionStats>,
}

impl FaultInjector {
    /// Creates an injector with the given determinism seed.
    pub fn new(seed: u64, model: ErrorModel, rate: Rate) -> Self {
        FaultInjector {
            seed,
            model,
            rate,
            stats: Arc::new(InjectionStats::default()),
        }
    }

    /// Convenience: `count` errors per stream with the benchmark default
    /// model (large additive corruption).
    pub fn counted(seed: u64, count: usize) -> Self {
        Self::new(
            seed,
            ErrorModel::default_for_benchmarks(),
            Rate::Count(count),
        )
    }

    /// The configured error model.
    pub fn model(&self) -> ErrorModel {
        self.model
    }

    /// Shared statistics (injected/detected/corrected counters).
    pub fn stats(&self) -> &InjectionStats {
        &self.stats
    }

    /// Opens a site stream.
    ///
    /// * `stream_id` — disambiguates repeated calls and the threads of one
    ///   call; determinism is per `(seed, stream_id)` pair. The loop nest
    ///   passes `call ^ tid << 32`, where `call` counts the protected calls
    ///   on the context or workspace it runs in (1 on a fresh one), so a
    ///   call's pattern replays on a fresh owner.
    /// * `expected_sites` — how many sites the driver will visit on this
    ///   stream; used by [`Rate::Count`] to spread the errors uniformly.
    pub fn stream(&self, stream_id: u64, expected_sites: usize) -> SiteStream {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let schedule = match self.rate {
            Rate::Count(count) => {
                // Sample `count` distinct site indices (with replacement is
                // acceptable when sites < count; duplicates collapse).
                let n = expected_sites.max(1);
                let mut sites: Vec<usize> = (0..count).map(|_| rng.gen_range(0..n)).collect();
                sites.sort_unstable();
                sites.dedup();
                Schedule::Sites(sites)
            }
            Rate::PerSite(p) => Schedule::Probability(p),
        };
        SiteStream {
            injector: self.clone(),
            rng,
            schedule,
            cursor: 0,
            visited: 0,
        }
    }
}

#[derive(Debug)]
enum Schedule {
    /// Sorted distinct site indices to hit (Count rate).
    Sites(Vec<usize>),
    /// Bernoulli per site.
    Probability(f64),
}

/// A per-call (or per-thread) stream of injection decisions.
///
/// The driver calls [`SiteStream::poll`] exactly once per injection site, in
/// its natural visit order. `Some(event)` means "corrupt one element at this
/// site with this event".
#[derive(Debug)]
pub struct SiteStream {
    injector: FaultInjector,
    rng: StdRng,
    schedule: Schedule,
    cursor: usize,
    visited: usize,
}

impl SiteStream {
    /// Polls the next site. Returns an event if an error fires here.
    pub fn poll(&mut self) -> Option<ErrorEvent> {
        let site = self.visited;
        self.visited += 1;
        let fire = match &mut self.schedule {
            Schedule::Sites(sites) => {
                if self.cursor < sites.len() && sites[self.cursor] == site {
                    self.cursor += 1;
                    true
                } else {
                    false
                }
            }
            Schedule::Probability(p) => self.rng.gen_bool(p.clamp(0.0, 1.0)),
        };
        if fire {
            self.injector.stats.record_injected();
            Some(ErrorEvent::new(self.injector.model(), &mut self.rng))
        } else {
            None
        }
    }

    /// Number of sites visited so far.
    #[cfg(test)]
    pub(crate) fn visited(&self) -> usize {
        self.visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_rate_fires_exactly_count_distinct() {
        let inj = FaultInjector::counted(7, 5);
        let mut s = inj.stream(0, 1000);
        let mut fired = 0;
        for _ in 0..1000 {
            if s.poll().is_some() {
                fired += 1;
            }
        }
        assert!((1..=5).contains(&fired), "fired {fired}");
        assert_eq!(inj.stats().injected(), fired as u64);
    }

    #[test]
    fn count_rate_deterministic_per_stream_id() {
        let inj = FaultInjector::counted(7, 3);
        let collect = |id| {
            let mut s = inj.stream(id, 100);
            (0..100).filter(|_| s.poll().is_some()).collect::<Vec<_>>()
        };
        assert_eq!(collect(1), collect(1));
        // Different streams usually differ (not guaranteed per-seed, but
        // with these constants they do).
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn probability_rate_statistics() {
        let inj = FaultInjector::new(
            1,
            ErrorModel::Additive { magnitude: 1.0 },
            Rate::PerSite(0.5),
        );
        let mut s = inj.stream(0, 0);
        let fired = (0..10_000).filter(|_| s.poll().is_some()).count();
        assert!((4000..6000).contains(&fired), "fired {fired}");
    }

    #[test]
    fn zero_count_never_fires() {
        let inj = FaultInjector::counted(3, 0);
        let mut s = inj.stream(0, 50);
        assert!((0..50).all(|_| s.poll().is_none()));
        assert_eq!(inj.stats().injected(), 0);
    }

    #[test]
    fn stats_shared_across_clones() {
        let inj = FaultInjector::counted(7, 2);
        let c = inj.clone();
        let mut s = c.stream(0, 10);
        for _ in 0..10 {
            s.poll();
        }
        assert!(inj.stats().injected() > 0);
    }

    #[test]
    fn sites_fire_even_when_fewer_sites_than_expected() {
        // Driver visits fewer sites than `expected_sites`; fires may be
        // fewer but polling must not panic.
        let inj = FaultInjector::counted(11, 4);
        let mut s = inj.stream(0, 1_000_000);
        for _ in 0..10 {
            s.poll();
        }
        assert_eq!(s.visited(), 10);
    }
}
