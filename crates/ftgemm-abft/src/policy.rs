//! The workspace-wide fault-tolerance policy vocabulary.
//!
//! [`FtPolicy`] is the *one* knob callers use to say how much ABFT
//! protection a GEMM buys, shared by every surface of the workspace: the
//! one-shot entry points, the `GemmOp`/`GemmPlan` builder API in the facade
//! crate, and the serving layer's per-request configuration. Internally each
//! entry resolves the policy into a full [`FtConfig`] (tolerance model,
//! fusion switches, recovery budget).

use crate::{FtConfig, Recovery};
use ftgemm_faults::FaultInjector;

/// How much ABFT protection one GEMM (or one serving request) buys.
///
/// The policy is the caller's choice and the one a call runs: no layer
/// raises or lowers it. [`DetectCorrect`](FtPolicy::DetectCorrect) is the
/// default because fused checksums cost the paper only 1–4% over the plain
/// driver, so protection can stay on.
///
/// The policy is resolved to an [`FtConfig`] at dispatch time (cloning a
/// config is cheap — the only non-trivial member, the injector, is
/// `Arc`-backed):
///
/// * [`Off`](FtPolicy::Off) — plain GEMM, no checksum work at all.
/// * [`Detect`](FtPolicy::Detect) — fused checksums verified after every
///   depth panel; resolvable discrepancy patterns are corrected in place,
///   unresolvable ones fail the call ([`Recovery::ReportOnly`]).
/// * [`DetectCorrect`](FtPolicy::DetectCorrect) — [`Detect`](FtPolicy::Detect)
///   plus rollback: a pattern correction cannot resolve rolls its column
///   block back to `beta * C0` and recomputes it, a bounded number of times
///   ([`Recovery::RetryPanel`]), before the call is failed. On a clean run
///   this costs nothing at `beta == 0` and one extra write of the scaled
///   block per column block otherwise — on every execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FtPolicy {
    /// No fault tolerance: the plain high-performance driver.
    Off,
    /// Verify + in-place correction; unresolvable patterns fail the call.
    Detect,
    /// Verify + correction + column-block rollback and recompute of
    /// unresolvable patterns.
    #[default]
    DetectCorrect,
}

/// Rollbacks per column block under [`FtPolicy::DetectCorrect`].
const DETECT_CORRECT_RETRIES: u32 = 2;

impl FtPolicy {
    /// Resolves the policy (plus an optional per-call injector, used by
    /// fault-injection campaigns and tests) into a driver configuration.
    /// `None` means "run the unprotected driver".
    pub fn to_config(self, injector: Option<FaultInjector>) -> Option<FtConfig> {
        let recovery = match self {
            FtPolicy::Off => return None,
            FtPolicy::Detect => Recovery::ReportOnly,
            FtPolicy::DetectCorrect => Recovery::RetryPanel {
                max_retries: DETECT_CORRECT_RETRIES,
            },
        };
        Some(FtConfig {
            recovery,
            injector,
            ..FtConfig::default()
        })
    }

    /// True when the policy runs the fused-ABFT driver.
    pub fn is_protected(self) -> bool {
        !matches!(self, FtPolicy::Off)
    }
}

/// The configuration the fused-ABFT driver runs under *if* the policy is
/// protected. [`FtPolicy::Off`] yields the default config, but routing to
/// the unprotected driver is the dispatcher's job — use
/// [`FtPolicy::to_config`] when `Off` must select a different code path.
impl From<FtPolicy> for FtConfig {
    fn from(policy: FtPolicy) -> FtConfig {
        policy.to_config(None).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_maps_to_none() {
        assert!(FtPolicy::Off.to_config(None).is_none());
        assert!(!FtPolicy::Off.is_protected());
    }

    #[test]
    fn detect_reports_only() {
        let cfg = FtPolicy::Detect.to_config(None).unwrap();
        assert_eq!(cfg.recovery, Recovery::ReportOnly);
        assert!(cfg.injector.is_none());
    }

    #[test]
    fn detect_correct_retries_panels() {
        let cfg = FtPolicy::DetectCorrect.to_config(None).unwrap();
        assert_eq!(
            cfg.recovery,
            Recovery::RetryPanel {
                max_retries: DETECT_CORRECT_RETRIES
            }
        );
    }

    #[test]
    fn injector_is_threaded_through() {
        let inj = FaultInjector::counted(1, 1);
        let cfg = FtPolicy::DetectCorrect.to_config(Some(inj)).unwrap();
        assert!(cfg.injector.is_some());
    }

    #[test]
    fn default_is_detect_correct() {
        assert_eq!(FtPolicy::default(), FtPolicy::DetectCorrect);
    }

    #[test]
    fn from_policy_matches_to_config() {
        let via_from: FtConfig = FtPolicy::Detect.into();
        let via_to = FtPolicy::Detect.to_config(None).unwrap();
        assert_eq!(via_from.recovery, via_to.recovery);
        let off: FtConfig = FtPolicy::Off.into();
        assert_eq!(off.recovery, FtConfig::default().recovery);
    }
}
