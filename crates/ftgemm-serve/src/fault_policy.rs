//! Error-aware fault policy: a service-wide monitor that watches the
//! detected error rate flowing through the service and escalates the
//! service's *policy floor* when the rate crosses configured thresholds.
//!
//! Every completed request contributes one `(detected, flops)` observation,
//! folded into a flop-volume-weighted EWMA
//! ([`ftgemm_faults::ErrorRateEwma`]). When the estimated errors-per-flop
//! crosses [`FaultPolicyConfig::detect_threshold`] the floor rises to
//! [`FtPolicy::Detect`]; past [`FaultPolicyConfig::correct_threshold`] it
//! rises to [`FtPolicy::DetectCorrect`]. The floor composes with each
//! request's own policy via [`FtPolicy::at_least`] — it can only *raise*
//! protection, never lower it — so a service that has seen errors
//! transparently verifies even requests that asked for `Off`, while a clean
//! one keeps serving `Off` requests at the unprotected driver's cost. After
//! [`FaultPolicyConfig::quiet_flops`] of consecutive clean flops the floor
//! steps back down one level (full de-escalation from `DetectCorrect` to
//! `Off` takes two quiet periods).

// Concurrency contract (checked by `scripts/orderings.sh`):
// the floor and escalation counters are advisory values read at dispatch
// time — Relaxed everywhere, never a synchronization point. A dispatch
// racing an escalation may run one request under the old floor; the next
// observation re-applies the new one.

use crate::stats::StatsSnapshot;
use ftgemm_abft::FtPolicy;
use ftgemm_faults::ErrorRateEwma;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Tuning knobs for the error-aware fault-policy monitor
/// ([`ServiceConfig::fault_policy`](crate::ServiceConfig::fault_policy)).
#[derive(Debug, Clone)]
pub struct FaultPolicyConfig {
    /// Decay volume of the error-rate EWMA, in flops: one `tau_flops` of
    /// observed work carries ~63% of the estimate's weight. Smaller values
    /// react faster and forget faster.
    pub tau_flops: f64,
    /// Detected-errors-per-flop rate at which the floor rises to
    /// [`FtPolicy::Detect`].
    pub detect_threshold: f64,
    /// Detected-errors-per-flop rate at which the floor rises to
    /// [`FtPolicy::DetectCorrect`]. Should be ≥
    /// [`detect_threshold`](Self::detect_threshold).
    pub correct_threshold: f64,
    /// Consecutive clean (zero-detection) flops the service must serve
    /// before its floor steps down one level. The streak resets on every
    /// detection and after each de-escalation.
    pub quiet_flops: u64,
}

impl Default for FaultPolicyConfig {
    fn default() -> Self {
        // Sized for serving-scale requests (~1e6–1e9 flops each): the EWMA
        // remembers about a billion flops of history, Detect kicks in
        // around one detected error per 1e9 flops, DetectCorrect an order
        // of magnitude above that, and the service must serve ~5 tau of
        // clean work to step back down.
        FaultPolicyConfig {
            tau_flops: 1.0e9,
            detect_threshold: 1.0e-9,
            correct_threshold: 1.0e-8,
            quiet_flops: 5_000_000_000,
        }
    }
}

/// Numeric floor encoding shared with `ftgemm_ftpolicy_floor`:
/// `0` = Off, `1` = Detect, `2` = DetectCorrect.
fn policy_from_level(level: u8) -> FtPolicy {
    match level {
        0 => FtPolicy::Off,
        1 => FtPolicy::Detect,
        _ => FtPolicy::DetectCorrect,
    }
}

/// Mutable monitor state (brief lock once per completed request).
#[derive(Debug)]
struct RateState {
    ewma: ErrorRateEwma,
    /// Consecutive clean flops since the last detection (or de-escalation).
    clean_flops: u64,
}

/// The service's error-aware policy monitor, fed by the completion path and
/// read by the dispatcher.
#[derive(Debug)]
pub(crate) struct FaultPolicyMonitor {
    config: FaultPolicyConfig,
    state: Mutex<RateState>,
    /// Published floor level (`0`/`1`/`2`), read lock-free at dispatch.
    floor: AtomicU8,
    /// Times the floor was raised.
    escalations: AtomicU64,
    /// Times the floor stepped back down.
    deescalations: AtomicU64,
}

impl FaultPolicyMonitor {
    pub(crate) fn new(config: FaultPolicyConfig) -> Self {
        FaultPolicyMonitor {
            state: Mutex::new(RateState {
                ewma: ErrorRateEwma::new(config.tau_flops),
                clean_flops: 0,
            }),
            config,
            floor: AtomicU8::new(0),
            escalations: AtomicU64::new(0),
            deescalations: AtomicU64::new(0),
        }
    }

    /// Folds one completed request into the rate estimate and applies the
    /// escalation/de-escalation rules.
    pub(crate) fn observe(&self, detected: u64, flops: u64) {
        let mut state = self.state.lock();
        state.ewma.observe(detected, flops);
        if detected > 0 {
            state.clean_flops = 0;
        } else {
            state.clean_flops = state.clean_flops.saturating_add(flops);
        }
        let rate = state.ewma.rate();
        let current = self.floor.load(Ordering::Relaxed);
        let demanded: u8 = if rate >= self.config.correct_threshold {
            2
        } else if rate >= self.config.detect_threshold {
            1
        } else {
            0
        };
        if demanded > current {
            self.floor.store(demanded, Ordering::Relaxed);
            self.escalations.fetch_add(1, Ordering::Relaxed);
        } else if current > 0 && state.clean_flops >= self.config.quiet_flops {
            // One level per quiet period; resetting the streak makes full
            // de-escalation take one quiet period per level.
            self.floor.store(current - 1, Ordering::Relaxed);
            self.deescalations.fetch_add(1, Ordering::Relaxed);
            state.clean_flops = 0;
        }
    }

    /// The policy floor currently in force (lock-free; composed with each
    /// request's own policy via [`FtPolicy::at_least`] at dispatch).
    pub(crate) fn floor(&self) -> FtPolicy {
        policy_from_level(self.level())
    }

    /// The floor in the numeric encoding of [`policy_from_level`].
    pub(crate) fn level(&self) -> u8 {
        self.floor.load(Ordering::Relaxed)
    }

    /// Times the floor was raised.
    pub(crate) fn escalations(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// Times the floor stepped back down.
    pub(crate) fn deescalations(&self) -> u64 {
        self.deescalations.load(Ordering::Relaxed)
    }

    /// The detected-errors-per-flop EWMA.
    pub(crate) fn error_rate(&self) -> f64 {
        self.state.lock().ewma.rate()
    }

    /// Copies the monitor's state onto a snapshot (the zeroed `ft_*` fields
    /// [`ServiceStats::snapshot`](crate::stats) constructs).
    pub(crate) fn overlay(&self, snap: &mut StatsSnapshot) {
        snap.ft_floor = self.level();
        snap.ft_escalations = self.escalations();
        snap.ft_deescalations = self.deescalations();
        snap.ft_error_rate = self.error_rate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServiceStats;
    use ftgemm_pool::PoolStats;

    fn config() -> FaultPolicyConfig {
        FaultPolicyConfig {
            tau_flops: 1_000.0,
            detect_threshold: 1e-4,
            correct_threshold: 1e-3,
            quiet_flops: 10_000,
        }
    }

    fn overlaid(m: &FaultPolicyMonitor) -> StatsSnapshot {
        let mut snap = ServiceStats::new(1).snapshot(0, PoolStats::default(), 0);
        m.overlay(&mut snap);
        snap
    }

    #[test]
    fn clean_traffic_keeps_the_floor_off() {
        let m = FaultPolicyMonitor::new(config());
        for _ in 0..100 {
            m.observe(0, 1_000);
        }
        assert_eq!(m.floor(), FtPolicy::Off);
        assert_eq!(overlaid(&m).ft_error_rate, 0.0);
    }

    #[test]
    fn error_bursts_escalate_straight_to_detect_correct() {
        let m = FaultPolicyMonitor::new(config());
        // 10 detections per 1000 flops = 1e-2 >> correct_threshold.
        m.observe(10, 1_000);
        assert_eq!(m.floor(), FtPolicy::DetectCorrect);
        let snap = overlaid(&m);
        assert_eq!(snap.ft_floor, 2);
        assert_eq!(snap.ft_escalations, 1, "one jump, not one per level");
        assert!(snap.ft_error_rate > 0.0);
    }

    #[test]
    fn moderate_rates_land_on_detect() {
        let m = FaultPolicyMonitor::new(config());
        // Rate settles near 2e-4: above detect, below correct. Feed enough
        // volume for the EWMA to converge past the threshold.
        for _ in 0..20 {
            m.observe(1, 5_000);
        }
        assert_eq!(m.floor(), FtPolicy::Detect);
    }

    #[test]
    fn quiet_volume_steps_the_floor_down_one_level_at_a_time() {
        let m = FaultPolicyMonitor::new(config());
        m.observe(50, 1_000);
        assert_eq!(m.floor(), FtPolicy::DetectCorrect);
        // One quiet period (>= 10_000 clean flops) per level.
        for _ in 0..10 {
            m.observe(0, 1_000);
        }
        assert_eq!(m.floor(), FtPolicy::Detect);
        for _ in 0..10 {
            m.observe(0, 1_000);
        }
        assert_eq!(m.floor(), FtPolicy::Off);
        assert_eq!(overlaid(&m).ft_deescalations, 2);
    }

    #[test]
    fn detections_reset_the_quiet_streak() {
        let m = FaultPolicyMonitor::new(config());
        m.observe(50, 1_000);
        for _ in 0..9 {
            m.observe(0, 1_000);
        }
        // Streak at 9_000 of 10_000 — one detection sends it back to zero
        // (the rate has decayed below the thresholds by now, but the floor
        // only drops on quiet volume, never on rate alone).
        m.observe(1, 500);
        for _ in 0..9 {
            m.observe(0, 1_000);
        }
        assert_eq!(m.floor(), FtPolicy::DetectCorrect, "streak must reset");
    }
}
