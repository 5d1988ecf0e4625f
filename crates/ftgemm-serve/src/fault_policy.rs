//! Error-aware fault policy: a per-node monitor that watches the detected
//! error rate flowing through the service and escalates a node's *policy
//! floor* when the rate crosses configured thresholds.
//!
//! Every completed request contributes one `(detected, flops)` observation
//! for the node that executed it, folded into a flop-volume-weighted EWMA
//! ([`ftgemm_faults::ErrorRateEwma`]). When a node's estimated
//! errors-per-flop crosses [`FaultPolicyConfig::detect_threshold`] its
//! floor rises to [`FtPolicy::Detect`]; past
//! [`FaultPolicyConfig::correct_threshold`] it rises to
//! [`FtPolicy::DetectCorrect`]. The floor composes with each request's own
//! policy via [`FtPolicy::at_least`] — it can only *raise* protection,
//! never lower it — so a flaky node transparently verifies even requests
//! that asked for `Off`, while clean nodes keep serving `Off` requests at
//! the unprotected driver's cost. After
//! [`FaultPolicyConfig::quiet_flops`] of consecutive clean flops the floor
//! steps back down one level (full de-escalation from `DetectCorrect` to
//! `Off` takes two quiet periods).

// Concurrency contract (checked by `scripts/orderings.sh`):
// the per-node floor and escalation counters are advisory values read at
// dispatch time — Relaxed everywhere, never a synchronization point. A
// dispatch racing an escalation may run one request under the old floor;
// the next observation re-applies the new one.

use crate::stats::StatsSnapshot;
use ftgemm_abft::FtPolicy;
use ftgemm_faults::ErrorRateEwma;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Tuning knobs for the error-aware fault-policy monitor
/// ([`ServiceConfig::fault_policy`](crate::ServiceConfig::fault_policy)).
#[derive(Debug, Clone)]
pub struct FaultPolicyConfig {
    /// Decay volume of the per-node error-rate EWMA, in flops: one
    /// `tau_flops` of observed work carries ~63% of the estimate's weight.
    /// Smaller values react faster and forget faster.
    pub tau_flops: f64,
    /// Detected-errors-per-flop rate at which a node's floor rises to
    /// [`FtPolicy::Detect`].
    pub detect_threshold: f64,
    /// Detected-errors-per-flop rate at which a node's floor rises to
    /// [`FtPolicy::DetectCorrect`]. Should be ≥
    /// [`detect_threshold`](Self::detect_threshold).
    pub correct_threshold: f64,
    /// Consecutive clean (zero-detection) flops a node must serve before
    /// its floor steps down one level. The streak resets on every
    /// detection and after each de-escalation.
    pub quiet_flops: u64,
}

impl Default for FaultPolicyConfig {
    fn default() -> Self {
        // Sized for serving-scale requests (~1e6–1e9 flops each): the EWMA
        // remembers about a billion flops of history, Detect kicks in
        // around one detected error per 1e9 flops, DetectCorrect an order
        // of magnitude above that, and a node must serve ~5 tau of clean
        // work to step back down.
        FaultPolicyConfig {
            tau_flops: 1.0e9,
            detect_threshold: 1.0e-9,
            correct_threshold: 1.0e-8,
            quiet_flops: 5_000_000_000,
        }
    }
}

/// Numeric floor encoding shared with `ftgemm_ftpolicy_node_floor`:
/// `0` = Off, `1` = Detect, `2` = DetectCorrect.
fn policy_from_level(level: u8) -> FtPolicy {
    match level {
        0 => FtPolicy::Off,
        1 => FtPolicy::Detect,
        _ => FtPolicy::DetectCorrect,
    }
}

/// Mutable per-node monitor state (brief lock once per completed request).
#[derive(Debug)]
struct NodeState {
    ewma: ErrorRateEwma,
    /// Consecutive clean flops since the last detection (or de-escalation).
    clean_flops: u64,
}

/// One node's slice of the monitor.
#[derive(Debug)]
struct NodeMonitor {
    state: Mutex<NodeState>,
    /// Published floor level (`0`/`1`/`2`), read lock-free at dispatch.
    floor: AtomicU8,
    /// Times this node's floor was raised.
    escalations: AtomicU64,
    /// Times this node's floor stepped back down.
    deescalations: AtomicU64,
}

/// The service-wide error-aware policy monitor: one [`NodeMonitor`] per
/// topology node, fed by the completion path and read by the dispatchers.
#[derive(Debug)]
pub(crate) struct FaultPolicyMonitor {
    config: FaultPolicyConfig,
    nodes: Vec<NodeMonitor>,
}

impl FaultPolicyMonitor {
    pub(crate) fn new(config: FaultPolicyConfig, nnodes: usize) -> Self {
        let nodes = (0..nnodes.max(1))
            .map(|_| NodeMonitor {
                state: Mutex::new(NodeState {
                    ewma: ErrorRateEwma::new(config.tau_flops),
                    clean_flops: 0,
                }),
                floor: AtomicU8::new(0),
                escalations: AtomicU64::new(0),
                deescalations: AtomicU64::new(0),
            })
            .collect();
        FaultPolicyMonitor { config, nodes }
    }

    /// Folds one completed request into `node`'s rate estimate and applies
    /// the escalation/de-escalation rules. Called from the completion path
    /// with the *executing* node (a stolen request's errors are evidence
    /// about the hardware that ran it, not its affinity node).
    pub(crate) fn observe(&self, node: usize, detected: u64, flops: u64) {
        let Some(n) = self.nodes.get(node) else {
            return;
        };
        let mut state = n.state.lock();
        state.ewma.observe(detected, flops);
        if detected > 0 {
            state.clean_flops = 0;
        } else {
            state.clean_flops = state.clean_flops.saturating_add(flops);
        }
        let rate = state.ewma.rate();
        let current = n.floor.load(Ordering::Relaxed);
        let demanded: u8 = if rate >= self.config.correct_threshold {
            2
        } else if rate >= self.config.detect_threshold {
            1
        } else {
            0
        };
        if demanded > current {
            n.floor.store(demanded, Ordering::Relaxed);
            n.escalations.fetch_add(1, Ordering::Relaxed);
        } else if current > 0 && state.clean_flops >= self.config.quiet_flops {
            // One level per quiet period; resetting the streak makes full
            // de-escalation take one quiet period per level.
            n.floor.store(current - 1, Ordering::Relaxed);
            n.deescalations.fetch_add(1, Ordering::Relaxed);
            state.clean_flops = 0;
        }
    }

    /// The policy floor currently in force on `node` (lock-free; composed
    /// with each request's own policy via [`FtPolicy::at_least`] at
    /// dispatch).
    pub(crate) fn floor(&self, node: usize) -> FtPolicy {
        policy_from_level(self.level(node))
    }

    /// `node`'s floor in the numeric encoding of [`policy_from_level`].
    pub(crate) fn level(&self, node: usize) -> u8 {
        let n = self.nodes.get(node);
        n.map_or(0, |n| n.floor.load(Ordering::Relaxed))
    }

    /// Times `node`'s floor was raised.
    pub(crate) fn escalations(&self, node: usize) -> u64 {
        let n = self.nodes.get(node);
        n.map_or(0, |n| n.escalations.load(Ordering::Relaxed))
    }

    /// Times `node`'s floor stepped back down.
    pub(crate) fn deescalations(&self, node: usize) -> u64 {
        let n = self.nodes.get(node);
        n.map_or(0, |n| n.deescalations.load(Ordering::Relaxed))
    }

    /// `node`'s detected-errors-per-flop EWMA.
    pub(crate) fn error_rate(&self, node: usize) -> f64 {
        let n = self.nodes.get(node);
        n.map_or(0.0, |n| n.state.lock().ewma.rate())
    }

    /// Copies the monitor's per-node state onto a snapshot (the zeroed
    /// `ft_*` fields [`ServiceStats::snapshot`](crate::stats) constructs).
    pub(crate) fn overlay(&self, snap: &mut StatsSnapshot) {
        for row in snap.per_node.iter_mut() {
            row.ft_floor = self.level(row.node);
            row.ft_escalations = self.escalations(row.node);
            row.ft_deescalations = self.deescalations(row.node);
        }
        snap.ft_error_rate_per_node = (0..self.nodes.len()).map(|n| self.error_rate(n)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FaultPolicyConfig {
        FaultPolicyConfig {
            tau_flops: 1_000.0,
            detect_threshold: 1e-4,
            correct_threshold: 1e-3,
            quiet_flops: 10_000,
        }
    }

    #[test]
    fn clean_traffic_keeps_the_floor_off() {
        let m = FaultPolicyMonitor::new(config(), 2);
        for _ in 0..100 {
            m.observe(0, 0, 1_000);
        }
        assert_eq!(m.floor(0), FtPolicy::Off);
        assert_eq!(m.floor(1), FtPolicy::Off);
    }

    #[test]
    fn error_bursts_escalate_only_the_faulty_node() {
        let m = FaultPolicyMonitor::new(config(), 2);
        // 10 detections per 1000 flops = 1e-2 >> correct_threshold.
        m.observe(1, 10, 1_000);
        assert_eq!(m.floor(0), FtPolicy::Off, "clean node untouched");
        assert_eq!(m.floor(1), FtPolicy::DetectCorrect);
        let mut snap = StatsSnapshot::empty_for_test(2, 2);
        m.overlay(&mut snap);
        assert_eq!(snap.per_node[1].ft_floor, 2);
        assert_eq!(snap.per_node[1].ft_escalations, 1);
        assert_eq!(snap.per_node[0].ft_floor, 0);
        assert!(snap.ft_error_rate_per_node[1] > snap.ft_error_rate_per_node[0]);
    }

    #[test]
    fn moderate_rates_land_on_detect() {
        let m = FaultPolicyMonitor::new(config(), 1);
        // Rate settles near 2e-4: above detect, below correct. Feed enough
        // volume for the EWMA to converge past the threshold.
        for _ in 0..20 {
            m.observe(0, 1, 5_000);
        }
        assert_eq!(m.floor(0), FtPolicy::Detect);
    }

    #[test]
    fn quiet_volume_steps_the_floor_down_one_level_at_a_time() {
        let m = FaultPolicyMonitor::new(config(), 1);
        m.observe(0, 50, 1_000);
        assert_eq!(m.floor(0), FtPolicy::DetectCorrect);
        // One quiet period (>= 10_000 clean flops) per level.
        for _ in 0..10 {
            m.observe(0, 0, 1_000);
        }
        assert_eq!(m.floor(0), FtPolicy::Detect);
        for _ in 0..10 {
            m.observe(0, 0, 1_000);
        }
        assert_eq!(m.floor(0), FtPolicy::Off);
        let mut snap = StatsSnapshot::empty_for_test(1, 1);
        m.overlay(&mut snap);
        assert_eq!(snap.per_node[0].ft_deescalations, 2);
    }

    #[test]
    fn detections_reset_the_quiet_streak() {
        let m = FaultPolicyMonitor::new(config(), 1);
        m.observe(0, 50, 1_000);
        for _ in 0..9 {
            m.observe(0, 0, 1_000);
        }
        // Streak at 9_000 of 10_000 — one detection sends it back to zero
        // (the rate has decayed below the thresholds by now, but the floor
        // only drops on quiet volume, never on rate alone).
        m.observe(0, 1, 500);
        for _ in 0..9 {
            m.observe(0, 0, 1_000);
        }
        assert_eq!(m.floor(0), FtPolicy::DetectCorrect, "streak must reset");
    }

    #[test]
    fn out_of_range_nodes_are_ignored() {
        let m = FaultPolicyMonitor::new(config(), 1);
        m.observe(7, 100, 100);
        assert_eq!(m.floor(7), FtPolicy::Off);
        assert_eq!(m.floor(0), FtPolicy::Off);
    }
}
