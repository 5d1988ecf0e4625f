//! Team-wide rollback on the pool entries: an unresolvable pattern on 2 and 4
//! threads is rolled back and recomputed bit-identically to a clean run at
//! that thread count, within the budget, and is fail-stop beyond it.
//!
//! Its own test binary, and no hunt-then-replay: every protected pool call
//! draws its injection streams from one process-wide nonce, so a seed hunted
//! in one call shows another pattern in the next (and
//! `integration_ft.rs::parallel_campaign_many_seeds` depends on how many
//! calls its process made before it). Every assertion below holds per run,
//! whatever pattern the run drew; a seed range stands in for the hunt.

use ftgemm::abft::{FtConfig, FtError, FtReport, Recovery};
use ftgemm::core::{BlockingParams, Matrix};
use ftgemm::faults::{ErrorModel, FaultInjector, Rate};
use ftgemm::parallel::{par_ft_gemm_with_ws, ParFtWorkspace, ParGemmContext};

/// A pool context with tiny blocks (`mc = 2 mr`, `nc = 4 nr`, `kc = 16`) and
/// a problem of two column blocks by four panels on it, every thread owning
/// at least one `mc` block of rows.
fn small_blocks(threads: usize) -> (ParGemmContext<f64>, (usize, usize, usize)) {
    let mut ctx = ParGemmContext::<f64>::with_threads(threads);
    let (mr, nr) = (ctx.kernel.mr, ctx.kernel.nr);
    let p = BlockingParams {
        mr,
        nr,
        mc: mr * 2,
        nc: nr * 4,
        kc: 16,
    };
    ctx.set_params(p).unwrap();
    (ctx, (p.mc * 6, p.nc * 2, p.kc * 4))
}

/// An overflowed element is what subtraction cannot repair (`inf - inf`),
/// whatever else its panel holds: every panel one lands in needs a rollback.
fn overflow(seed: u64, rate: Rate, recovery: Recovery) -> (FaultInjector, FtConfig) {
    let model = ErrorModel::Additive {
        magnitude: f64::INFINITY,
    };
    let injector = FaultInjector::new(seed, model, rate);
    let cfg = FtConfig {
        injector: Some(injector.clone()),
        recovery,
        ..Default::default()
    };
    (injector, cfg)
}

/// `run(cfg, beta)` on one reused workspace: `C` and the entry's result.
type Run<'a> = Box<dyn FnMut(&FtConfig, f64) -> (Matrix<f64>, Result<FtReport, FtError>) + 'a>;

fn runner(ctx: &ParGemmContext<f64>, (m, n, k): (usize, usize, usize)) -> Run<'_> {
    let a = Matrix::<f64>::random(m, k, 42);
    let b = Matrix::<f64>::random(k, n, 43);
    let c0 = Matrix::<f64>::random(m, n, 44);
    let mut ws = ParFtWorkspace::for_problem(ctx, m, n, k);
    Box::new(move |cfg, beta| {
        let mut c = c0.clone();
        let (a, b) = (a.as_ref(), b.as_ref());
        let res = par_ft_gemm_with_ws(ctx, &mut ws, cfg, 1.0, &a, &b, beta, &mut c.as_mut());
        (c, res)
    })
}

#[test]
fn pool_rollback_recomputes_bit_identically_whatever_the_pattern() {
    for threads in [2, 4] {
        let (ctx, dims) = small_blocks(threads);
        let mut run = runner(&ctx, dims);
        // Two overflows per thread, each in a panel of its own at worst.
        let retry = Recovery::RetryPanel {
            max_retries: 2 * threads as u32,
        };
        for beta in [0.0, 1.0, -0.5] {
            let clean_cfg = FtConfig {
                recovery: retry,
                ..Default::default()
            };
            let (c_clean, clean) = run(&clean_cfg, beta);
            let clean = clean.unwrap();
            assert_eq!((clean.verifications, clean.retried_panels), (8, 0));

            let (mut rolled_back, mut failed_stop) = (0, 0);
            for seed in 0..12u64 {
                let at = format!("{threads} threads, beta {beta}, seed {seed}");
                let (c, rep) = run(&overflow(seed, Rate::Count(2), retry).1, beta);
                let rep = rep.unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(c.as_slice(), c_clean.as_slice(), "{at}: {rep:?}");
                assert_eq!(
                    rep.verifications,
                    clean.verifications + rep.retried_panels,
                    "{at}: {rep:?}"
                );
                rolled_back += usize::from(rep.retried_panels > 0);

                // The same injector without a budget: stop, or be right.
                let report_only = overflow(seed, Rate::Count(2), Recovery::ReportOnly).1;
                match run(&report_only, beta) {
                    (c, Ok(rep)) => {
                        assert_eq!(c.as_slice(), c_clean.as_slice(), "{at}: {rep:?}");
                        assert_eq!(rep.retried_panels, 0, "{at}");
                    }
                    (_, Err(FtError::Unrecoverable { .. })) => failed_stop += 1,
                    (_, Err(e)) => panic!("{at}: {e}"),
                }
            }
            assert!(rolled_back > 0, "{threads} threads, beta {beta}");
            assert!(failed_stop > 0, "{threads} threads, beta {beta}");
        }
    }
}

#[test]
fn a_fault_during_the_replay_with_the_budget_spent_is_fail_stop() {
    let (ctx, dims) = small_blocks(2);
    let mut run = runner(&ctx, dims);
    let once = Recovery::RetryPanel { max_retries: 1 };
    for beta in [0.0, -0.5] {
        let (c_clean, clean) = run(&overflow(0, Rate::Count(0), once).1, beta);
        clean.unwrap();
        let mut spent = 0;
        for seed in 0..12u64 {
            // An overflow at every other site, replays included.
            let (injector, cfg) = overflow(seed, Rate::PerSite(0.5), once);
            match run(&cfg, beta) {
                (c, Ok(rep)) => assert_eq!(c.as_slice(), c_clean.as_slice(), "{seed}: {rep:?}"),
                (_, Err(FtError::Unrecoverable { .. })) => {
                    // One failed verification was rolled back; the replay
                    // (or a later panel of that block) failed another.
                    assert_eq!(injector.stats().unrecoverable(), 2, "seed {seed}");
                    spent += 1;
                }
                (_, Err(e)) => panic!("seed {seed}: {e}"),
            }
        }
        assert!(spent > 0, "beta {beta}: no run spent its budget");
    }
}
