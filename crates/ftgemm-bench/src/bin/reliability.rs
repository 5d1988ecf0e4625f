//! Experiment T4: sustained reliability campaign — "high reliability ...
//! even under hundreds of errors injected per minute" (paper abstract/§3.2),
//! with every run's output validated against a clean reference (the paper
//! verifies against MKL; our clean reference is the same FT-GEMM with the
//! injector off, which the test suite shows bit-matches the plain GEMM).
//!
//! Usage: `cargo run -p ftgemm-bench --release --bin reliability
//! [--duration 30] [--threads N]`

use ftgemm_abft::FtConfig;
use ftgemm_bench::Args;
use ftgemm_core::Matrix;
use ftgemm_faults::{Campaign, CampaignOutcome, ErrorModel, FaultInjector, Rate};
use ftgemm_parallel::{par_ft_gemm_with_ws, ParFtWorkspace, ParGemmContext};
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let s = args
        .sizes
        .as_ref()
        .and_then(|v| v.first().copied())
        .unwrap_or(768);

    // Aggressive wall-clock rate: plenty of "errors per minute".
    let injector = FaultInjector::new(
        0x4E11AB1E,
        ErrorModel::Additive { magnitude: 1.0e7 },
        Rate::PerSecond(20.0),
    );
    let ctx = ParGemmContext::<f64>::with_threads(args.threads);
    let mut ws = ParFtWorkspace::for_problem(&ctx, s, s, s);

    let a = Matrix::<f64>::random(s, s, 1);
    let b = Matrix::<f64>::random(s, s, 2);
    // Clean reference, computed once.
    let mut c_ref = Matrix::<f64>::zeros(s, s);
    par_ft_gemm_with_ws(
        &ctx,
        &mut ws,
        &FtConfig::default(),
        1.0,
        &a.as_ref(),
        &b.as_ref(),
        0.0,
        &mut c_ref.as_mut(),
    )
    .expect("reference run failed");

    println!(
        "reliability campaign: {s}x{s} DGEMM on {} threads for {}s, injecting ~20 errors/s",
        args.threads, args.duration_secs
    );

    let campaign = Campaign::new(Duration::from_secs(args.duration_secs), injector);
    let mut unrecoverable = 0u64;
    let report = campaign.run(|inj| {
        let cfg = FtConfig::with_injector(inj.clone());
        let mut c = Matrix::<f64>::zeros(s, s);
        match par_ft_gemm_with_ws(
            &ctx,
            &mut ws,
            &cfg,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        ) {
            Ok(_) => {
                if c.rel_max_diff(&c_ref) < 1e-6 {
                    CampaignOutcome::Correct
                } else {
                    CampaignOutcome::Mismatch
                }
            }
            Err(_) => {
                // Colliding-error pattern flagged as unrecoverable: detected,
                // not silently wrong. Counted separately.
                unrecoverable += 1;
                CampaignOutcome::Skipped
            }
        }
    });

    println!(
        "\nruns: {}  validated: {}  mismatches: {}  flagged-unrecoverable: {}\n\
         injected: {}  corrected: {}  rate: {:.0} errors/minute  elapsed: {:.1}s",
        report.runs,
        report.validated,
        report.mismatches,
        unrecoverable,
        report.injected,
        report.corrected,
        report.errors_per_minute,
        report.elapsed.as_secs_f64(),
    );
    if report.mismatches == 0 {
        println!(
            "RESULT: all evaluated runs matched the clean reference (paper: 'high reliability')"
        );
    } else {
        println!("RESULT: {} runs diverged — investigate", report.mismatches);
    }
}
