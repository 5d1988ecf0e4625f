//! Long-running reliability campaigns ("hundreds of errors injected per
//! minute", paper §3.2 / abstract).
//!
//! A campaign repeatedly executes a caller-supplied iteration — typically
//! one fault-tolerant GEMM plus a comparison against a clean reference —
//! under a shared [`FaultInjector`], for a wall-clock budget, and reports
//! validated/mismatched runs together with the achieved error rate.

use super::injector::FaultInjector;
use std::time::{Duration, Instant};

/// Outcome of one campaign iteration, as judged by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// The fault-tolerant result matched the clean reference.
    Correct,
    /// The result diverged from the reference (fault tolerance failed).
    Mismatch,
    /// The iteration was not evaluated (e.g. warm-up).
    Skipped,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Wall-clock budget for the campaign.
    pub duration: Duration,
    /// Injector shared with the iterations.
    pub injector: FaultInjector,
    /// Optional cap on iterations (0 = unbounded).
    pub max_runs: u64,
}

/// Campaign results.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Iterations executed.
    pub runs: u64,
    /// Iterations whose result matched the reference.
    pub validated: u64,
    /// Iterations whose result diverged.
    pub mismatches: u64,
    /// Iterations skipped.
    pub skipped: u64,
    /// Wall-clock time consumed.
    pub elapsed: Duration,
    /// Errors injected over the campaign.
    pub injected: u64,
    /// Errors corrected over the campaign.
    pub corrected: u64,
    /// Achieved injection rate in errors per minute.
    pub errors_per_minute: f64,
}

impl Campaign {
    /// New campaign with the given wall-clock budget.
    pub fn new(duration: Duration, injector: FaultInjector) -> Self {
        Campaign {
            duration,
            injector,
            max_runs: 0,
        }
    }

    /// Runs the campaign. The iteration receives the injector and returns
    /// its verdict; iterations run back-to-back until the budget expires.
    pub fn run(
        &self,
        mut iteration: impl FnMut(&FaultInjector) -> CampaignOutcome,
    ) -> CampaignReport {
        self.injector.stats().reset();
        let start = Instant::now();
        let mut runs = 0u64;
        let mut validated = 0u64;
        let mut mismatches = 0u64;
        let mut skipped = 0u64;

        while start.elapsed() < self.duration {
            match iteration(&self.injector) {
                CampaignOutcome::Correct => validated += 1,
                CampaignOutcome::Mismatch => mismatches += 1,
                CampaignOutcome::Skipped => skipped += 1,
            }
            runs += 1;
            if self.max_runs != 0 && runs >= self.max_runs {
                break;
            }
        }
        let elapsed = start.elapsed();
        let injected = self.injector.stats().injected();
        let corrected = self.injector.stats().corrected();
        let errors_per_minute = if elapsed.as_secs_f64() > 0.0 {
            injected as f64 * 60.0 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        CampaignReport {
            runs,
            validated,
            mismatches,
            skipped,
            elapsed,
            injected,
            corrected,
            errors_per_minute,
        }
    }
}

impl CampaignReport {
    /// True when every evaluated run matched its reference.
    pub fn all_validated(&self) -> bool {
        self.mismatches == 0 && self.validated > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_runs_until_budget() {
        let inj = FaultInjector::counted(1, 1);
        let c = Campaign::new(Duration::from_millis(20), inj);
        let report = c.run(|inj| {
            // Simulate one "FT-GEMM": visit 10 sites, count corrections.
            let mut s = inj.stream(0, 10);
            for _ in 0..10 {
                if s.poll().is_some() {
                    inj.stats().record_detected();
                    inj.stats().record_corrected();
                }
            }
            CampaignOutcome::Correct
        });
        assert!(report.runs > 0);
        assert_eq!(report.validated, report.runs);
        assert!(report.all_validated());
        assert_eq!(report.injected, report.corrected);
        assert!(report.errors_per_minute > 0.0);
    }

    #[test]
    fn max_runs_caps() {
        let inj = FaultInjector::counted(1, 0);
        let mut c = Campaign::new(Duration::from_secs(60), inj);
        c.max_runs = 3;
        let report = c.run(|_| CampaignOutcome::Skipped);
        assert_eq!(report.runs, 3);
        assert_eq!(report.skipped, 3);
        assert!(!report.all_validated());
    }

    #[test]
    fn mismatch_recorded() {
        let inj = FaultInjector::counted(1, 0);
        let mut c = Campaign::new(Duration::from_secs(60), inj);
        c.max_runs = 2;
        let mut first = true;
        let report = c.run(|_| {
            if std::mem::take(&mut first) {
                CampaignOutcome::Mismatch
            } else {
                CampaignOutcome::Correct
            }
        });
        assert_eq!(report.mismatches, 1);
        assert_eq!(report.validated, 1);
        assert!(!report.all_validated());
    }
}
