//! # ftgemm-abft
//!
//! The fused ABFT (algorithm-based fault tolerance) layer of FT-GEMM — the
//! paper's core contribution (§2.2).
//!
//! ## The scheme
//!
//! For `C = alpha*A*B + beta*C0` the checksum identities (Huang & Abraham
//! \[1984\], specialized to full row+column checksum vectors) are
//!
//! ```text
//! row_sums(C) = beta*row_sums(C0) + alpha * A * (B e)        (paper's C_c)
//! col_sums(C) = beta*col_sums(C0) + alpha * (e^T A) * B      (paper's C_r)
//! ```
//!
//! The driver maintains **encoded** checksums (`enc_*`, predicted from the
//! inputs) and **reference** checksums (`ref_*`, read back from the computed
//! `C`), and compares them after every depth panel (`pc` iteration — the
//! paper's "p-loop: verify"). An error in the computation shows up as a
//! matching discrepancy in one row and one column; its location and exact
//! algebraic magnitude follow, so it is corrected in place.
//!
//! ## Fusion — why this is fast on AVX-512 machines
//!
//! Naively the four checksum passes cost O(n^2) *extra* memory traffic,
//! which no longer amortizes against O(n^3) compute on wide-SIMD parts
//! (~15% overhead per the paper). FT-GEMM fuses each pass into memory
//! traffic GEMM already performs:
//!
//! * `enc_*` initialization rides on the `C *= beta` scaling pass,
//! * `B e` (B_c) and the `enc_col` GEMV ride on packing `B~` (every loaded
//!   `B` element is used three times),
//! * the `enc_row` GEMV rides on packing `A~`,
//! * `ref_*` are accumulated at register level inside the micro-kernel.
//!
//! The overhead becomes purely computational: ~1-4% (paper Fig. 2a/2b).
//!
//! [`FusionConfig`] lets each fusion point be disabled, which re-creates the
//! "traditional" unfused ABFT baseline for the ablation experiments (the
//! `overhead_table` and `ablation_fusion` views of `ftgemm-bench`'s `paper`
//! binary; see "How this follows the paper" in `docs/ARCHITECTURE.md`).
//!
//! ## One loop nest, one ABFT step
//!
//! The paper draws FT-GEMM as one GotoBLAS loop nest with the
//! fault-tolerance operations printed in red inside it (Fig. 1), and its
//! threaded algorithm (§2.3) as that same nest with an M-partition, a shared
//! `B~` and barriers. [`nest`] is that figure as one function, generic over
//! a team and a `const PROTECT: bool`: the operations above — base encode,
//! the two fused packs, the injection site of §3.2 and the per-panel
//! verify-and-correct, the functions of [`panel`] — sit under `if PROTECT`,
//! and serial / parallel × plain / protected are its four instantiations,
//! all made by one entry, [`execute`]: on the calling thread alone, or on a
//! region of a [`parallel::ParGemmContext`]'s pool ([`parallel`]). A
//! verdict, a rollback and an injected pattern are therefore the same code
//! on every execution path. What the nest works in is one type for every
//! team, [`Workspace`]: a serial call runs in it as a team of one, a pool
//! call as the pool.
//!
//! ## The fail-stop contract, and where it ends
//!
//! Row+column checksums carry enough information to locate and repair most
//! error patterns, but not all. Within one verification interval:
//!
//! * **every one- and two-error pattern is corrected or fails stop.** Two
//!   equal-magnitude errors in distinct rows and distinct columns are
//!   ambiguous — both pairings of row deltas with column deltas balance the
//!   checksums, but only one restores the matrix — and the corrector
//!   reports them as [`CorrectionOutcome::Unrecoverable`] rather than
//!   guess (`corrector::tests::equal_delta_errors_distinct_positions`;
//!   every pattern on small blocks:
//!   `panel::tests::every_one_and_two_error_pattern_is_corrected_or_fails_stop`);
//! * **three or more errors can alias a pattern of fewer** and be
//!   "corrected" into a wrong block that verifies: `+d` at `(0,0)`, `(0,1)`
//!   and `(1,0)` has the syndrome of `+2d` at `(0,0)` and `+d` at `(1,1)`.
//!   That class is not guarded (see [`corrector`]).
//!
//! On an unrecoverable pattern the nest applies the caller's [`Recovery`]
//! policy — under
//! [`Recovery::RetryPanel`] (the default policy, `DetectCorrect`) the
//! team rolls the affected **column block** back to its base state
//! (`beta * C0` and its checksums) and recomputes that block's panels up to
//! and including the failing one, through the same loop, so a recovered
//! result is bit-identical to a clean run on the same team. The rollback
//! costs nothing until it happens: at `beta == 0` the base state is all
//! zeros and nothing is held in memory; at `beta != 0` the beta pass writes
//! the scaled block to an `m x NC` buffer as it goes, once per column block.
//! An overflowed element (a non-finite discrepancy) is unrecoverable too:
//! subtraction cannot repair it.
//! Equal magnitudes sharing a single row or column are *not* ambiguous
//! (the shared-axis sum rule resolves them) and are still corrected. The
//! paper verifies every `KC`-depth panel, so the exposure window for a
//! colliding or aliasing pattern is one panel update. See `docs/ARCHITECTURE.md` for
//! the system-level view.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod checksum;
pub mod corrector;
pub mod faults;
pub mod ft_gemm;
pub mod nest;
pub mod panel;
pub mod parallel;
pub mod policy;
pub mod tolerance;
pub mod workspace;

pub use corrector::{CorrectionOutcome, Discrepancy};
pub use ft_gemm::{execute, ft_gemm_with_ctx, gemm, FtGemmContext, GemmContext};
pub use policy::FtPolicy;
pub use tolerance::Tolerance;
pub use workspace::{Setup, Workspace};

use ftgemm_core::CoreError;

/// Configuration for fault-tolerant GEMM.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Roundoff tolerance model for checksum verification.
    pub tolerance: Tolerance,
    /// Which checksum operations are fused into existing passes. All-on is
    /// the paper's FT-GEMM; all-off is the traditional ABFT baseline.
    pub fusion: FusionConfig,
    /// Optional fault injector (reproduces §3.2's source-level injection).
    pub injector: Option<faults::FaultInjector>,
    /// What to do when a verification interval's discrepancy pattern cannot
    /// be resolved by checksum correction.
    pub recovery: Recovery,
}

/// Recovery policy for unrecoverable checksum patterns.
///
/// Row+column checksums cannot locate errors that form a cycle across
/// shared rows *and* columns within one verification interval, nor repair
/// an element that overflowed. The loop nest can then roll the column
/// block of `C` back to its base state and recompute it, on every team.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Return [`FtError::Unrecoverable`]; the caller decides.
    ReportOnly,
    /// Roll the failing **column block** back to its base state — `beta * C0`
    /// and its checksums, as the beta pass left them — and recompute its
    /// panels up to and including the failing one, at most `max_retries`
    /// times per column block before giving up.
    ///
    /// The granularity is the column block, not the panel, so that nothing
    /// is copied on the path that does not fail: at `beta == 0` the base
    /// state is zero and is recomputed, so no memory is held; at `beta != 0`
    /// the beta pass also writes the scaled block to an `m x NC` buffer
    /// once per column block (each team member its own rows of it).
    RetryPanel {
        /// Rollbacks per column block before reporting failure.
        max_retries: u32,
    },
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            tolerance: Tolerance::default(),
            fusion: FusionConfig::FUSED,
            injector: None,
            recovery: Recovery::ReportOnly,
        }
    }
}

impl FtConfig {
    /// Paper configuration with a fault injector attached.
    pub fn with_injector(injector: faults::FaultInjector) -> Self {
        FtConfig {
            injector: Some(injector),
            ..Default::default()
        }
    }

    /// Traditional (unfused) ABFT configuration for the ablation baseline.
    pub fn unfused() -> Self {
        FtConfig {
            fusion: FusionConfig::UNFUSED,
            ..Default::default()
        }
    }
}

/// Per-fusion-point switches (ablation experiment A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionConfig {
    /// Fuse `enc_*` initialization with the `C *= beta` pass. No effect at
    /// `beta == 0`, where there is no such pass: `C` is written once, by the
    /// first depth panel's store-mode micro-kernel.
    pub fuse_c_scale: bool,
    /// Fuse `B_c` + `enc_col` encoding with `B~` packing.
    pub fuse_b_pack: bool,
    /// Fuse `enc_row` encoding with `A~` packing.
    pub fuse_a_pack: bool,
    /// Accumulate `ref_*` at register level in the micro-kernel (vs a
    /// separate read-back pass over the updated `C` block, on thread 0 in
    /// the verification epoch).
    pub fuse_kernel_refs: bool,
}

impl FusionConfig {
    /// Everything fused — the paper's FT-GEMM.
    pub const FUSED: FusionConfig = FusionConfig {
        fuse_c_scale: true,
        fuse_b_pack: true,
        fuse_a_pack: true,
        fuse_kernel_refs: true,
    };
    /// Nothing fused — traditional ABFT with separate O(n^2) passes.
    pub const UNFUSED: FusionConfig = FusionConfig {
        fuse_c_scale: false,
        fuse_b_pack: false,
        fuse_a_pack: false,
        fuse_kernel_refs: false,
    };
}

/// Outcome statistics of one fault-tolerant GEMM call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtReport {
    /// Verification passes executed (one per depth panel per column block,
    /// including panels recomputed after a rollback).
    pub verifications: usize,
    /// Checksum discrepancies flagged as real errors.
    pub detected: usize,
    /// Elements corrected in place.
    pub corrected: usize,
    /// Errors injected by the attached injector (0 without one).
    pub injected: usize,
    /// Panels recomputed under [`Recovery::RetryPanel`]: a rollback in panel
    /// `p` of its column block adds `p + 1`.
    pub retried_panels: usize,
}

impl FtReport {
    /// Accumulates another report's counters into this one.
    pub fn absorb(&mut self, other: FtReport) {
        self.verifications += other.verifications;
        self.detected += other.detected;
        self.corrected += other.corrected;
        self.injected += other.injected;
        self.retried_panels += other.retried_panels;
    }

    /// Merges an iterator of reports into one (batch drivers and the serving
    /// layer aggregate per-request reports this way).
    pub fn merged(reports: impl IntoIterator<Item = FtReport>) -> FtReport {
        reports.into_iter().sum()
    }

    /// Adds this report's counters to the process-wide `ftgemm_abft_*_total`
    /// metric families.
    ///
    /// The drivers call this once per GEMM at exit, so callers composing
    /// reports via [`FtReport::absorb`]/[`FtReport::merged`] must not call it
    /// again on the merged result — that would double count.
    pub fn publish_global(&self) {
        ftgemm_obs::global_counter!(
            "ftgemm_abft_verifications_total",
            "Checksum verification passes across all fault-tolerant GEMMs."
        )
        .add(self.verifications as u64);
        ftgemm_obs::global_counter!(
            "ftgemm_abft_detected_total",
            "Checksum discrepancies flagged as real errors."
        )
        .add(self.detected as u64);
        ftgemm_obs::global_counter!(
            "ftgemm_abft_corrected_total",
            "Elements corrected in place after checksum detection."
        )
        .add(self.corrected as u64);
        ftgemm_obs::global_counter!(
            "ftgemm_abft_injected_total",
            "Errors injected by attached fault injectors."
        )
        .add(self.injected as u64);
        ftgemm_obs::global_counter!(
            "ftgemm_abft_retried_panels_total",
            "Panels rolled back and recomputed under RetryPanel recovery."
        )
        .add(self.retried_panels as u64);
    }
}

impl std::ops::AddAssign for FtReport {
    fn add_assign(&mut self, other: FtReport) {
        self.absorb(other);
    }
}

impl std::ops::Add for FtReport {
    type Output = FtReport;
    fn add(mut self, other: FtReport) -> FtReport {
        self += other;
        self
    }
}

impl std::iter::Sum for FtReport {
    fn sum<I: Iterator<Item = FtReport>>(iter: I) -> FtReport {
        iter.fold(FtReport::default(), |acc, r| acc + r)
    }
}

/// Errors from fault-tolerant GEMM.
#[derive(Debug, Clone, PartialEq)]
pub enum FtError {
    /// Underlying GEMM/substrate error.
    Core(CoreError),
    /// Checksum verification failed in a pattern the corrector cannot
    /// resolve (e.g. colliding errors in the same row *and* column within
    /// one panel).
    Unrecoverable {
        /// Column-block start where verification failed.
        jc: usize,
        /// Depth-panel start where verification failed.
        pc: usize,
        /// Unmatched row/column discrepancy counts.
        detail: String,
    },
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::Core(e) => write!(f, "core error: {e}"),
            FtError::Unrecoverable { jc, pc, detail } => {
                write!(
                    f,
                    "unrecoverable checksum failure at block (jc={jc}, pc={pc}): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for FtError {}

impl From<CoreError> for FtError {
    fn from(e: CoreError) -> Self {
        FtError::Core(e)
    }
}

/// Result alias for fault-tolerant operations.
pub type FtResult<T> = std::result::Result<T, FtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fused() {
        let c = FtConfig::default();
        assert_eq!(c.fusion, FusionConfig::FUSED);
        assert!(c.injector.is_none());
    }

    #[test]
    fn unfused_config() {
        let c = FtConfig::unfused();
        assert!(!c.fusion.fuse_b_pack);
        assert!(!c.fusion.fuse_kernel_refs);
    }

    #[test]
    fn report_absorb() {
        let mut a = FtReport {
            verifications: 1,
            detected: 2,
            corrected: 2,
            injected: 3,
            retried_panels: 0,
        };
        a.absorb(FtReport {
            verifications: 10,
            detected: 0,
            corrected: 1,
            injected: 0,
            retried_panels: 2,
        });
        assert_eq!(a.verifications, 11);
        assert_eq!(a.corrected, 3);
    }

    #[test]
    fn report_merge_and_sum() {
        let r1 = FtReport {
            verifications: 2,
            detected: 1,
            corrected: 1,
            injected: 1,
            retried_panels: 0,
        };
        let r2 = FtReport {
            verifications: 3,
            detected: 0,
            corrected: 0,
            injected: 2,
            retried_panels: 1,
        };
        let merged = FtReport::merged([r1, r2]);
        assert_eq!(merged.verifications, 5);
        assert_eq!(merged.injected, 3);
        assert_eq!(merged.retried_panels, 1);
        let mut acc = r1;
        acc += r2;
        assert_eq!(acc, merged);
        assert_eq!([r1, r2].into_iter().sum::<FtReport>(), merged);
    }

    #[test]
    fn config_clone_shares_injector_state() {
        // The serving layer clones FtConfig per request; the injector inside
        // is Arc-backed, so clones must observe the same stats counters.
        let inj = faults::FaultInjector::counted(1, 1);
        let cfg = FtConfig::with_injector(inj.clone());
        let cloned = cfg.clone();
        let mut s = cloned.injector.as_ref().unwrap().stream(0, 1);
        while s.poll().is_none() && s.visited() < 8 {}
        assert_eq!(inj.stats().injected(), 1);
    }

    #[test]
    fn error_display() {
        let e = FtError::Unrecoverable {
            jc: 0,
            pc: 128,
            detail: "2 rows / 1 col".into(),
        };
        assert!(e.to_string().contains("pc=128"));
    }
}
