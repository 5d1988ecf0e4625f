//! Team-wide rollback on the pool entries, hunted and then replayed. On 2
//! and 4 threads a seed range yields a pattern that one rollback budget
//! covers and one that it does not. Each replays bit for bit on a fresh
//! workspace, after the other calls of the hunt. A covered pattern is
//! recomputed bit-identically to a clean run at that thread count, and a
//! pattern past the budget, or under `ReportOnly`, is fail-stop. A batch's
//! pattern replays too, on a fresh batch of any pool size.

use ftgemm::abft::{execute, FtConfig, FtError, FtPolicy, FtReport, Recovery};
use ftgemm::core::{BlockingParams, Matrix};
use ftgemm::faults::{ErrorModel, FaultInjector, Rate};
use ftgemm::parallel::{BatchItem, ParGemmContext};
use ftgemm::{GemmBatch, Workspace};

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

/// One call's outcome: the bits of `C` and the entry's result.
type Outcome = (Vec<u64>, Result<FtReport, FtError>);

/// `run(cfg, beta)` on a fresh workspace, so the call is the workspace's
/// first and its injection streams depend on `cfg`'s seed alone.
fn runner(
    ctx: &ParGemmContext<f64>,
    (m, n, k): (usize, usize, usize),
) -> impl Fn(&FtConfig, f64) -> Outcome + '_ {
    let a = Matrix::<f64>::random(m, k, 42);
    let b = Matrix::<f64>::random(k, n, 43);
    let c0 = Matrix::<f64>::random(m, n, 44);
    move |cfg, beta| {
        let mut c = c0.clone();
        let (a, b, ws) = (a.as_ref(), b.as_ref(), &mut Workspace::new());
        let res = execute(Some(ctx), ws, Some(cfg), 1.0, &a, &b, beta, &mut c.as_mut());
        (c.as_slice().iter().map(|v| v.to_bits()).collect(), res)
    }
}

#[test]
fn hunted_pool_rollbacks_replay_bit_identically() {
    for threads in [2, 4] {
        let (ctx, dims) = small_blocks(threads);
        let run = runner(&ctx, dims);
        // Two overflows per thread, each failing a panel of its own at worst:
        // `enough` covers any pattern, `tight` some but not all.
        let enough = Recovery::RetryPanel {
            max_retries: 2 * threads as u32,
        };
        let tight = Recovery::RetryPanel {
            max_retries: threads as u32 + 1,
        };
        let count = |seed, recovery| overflow(seed, Rate::Count(2), recovery).1;
        for beta in [0.0, 1.0, -0.5] {
            let at = format!("{threads} threads, beta {beta}");
            let clean_cfg = FtConfig {
                recovery: enough,
                ..Default::default()
            };
            let (c_clean, clean) = run(&clean_cfg, beta);
            let clean = clean.unwrap();
            assert_eq!((clean.verifications, clean.retried_panels), (8, 0));

            // Any pattern within `enough` is recomputed bit-identically; the
            // same pattern without a budget stops, or is right.
            let mut stopped = 0;
            for seed in 0..12u64 {
                let (c, rep) = run(&count(seed, enough), beta);
                let rep = rep.unwrap_or_else(|e| panic!("{at}, seed {seed}: {e}"));
                assert!(rep.retried_panels > 0, "{at}, seed {seed}: {rep:?}");
                assert_eq!(c, c_clean, "{at}, seed {seed}: {rep:?}");
                assert_eq!(
                    rep.verifications,
                    clean.verifications + rep.retried_panels,
                    "{at}, seed {seed}: {rep:?}"
                );
                match run(&count(seed, Recovery::ReportOnly), beta) {
                    (c, Ok(rep)) => {
                        assert_eq!(c, c_clean, "{at}, seed {seed}: {rep:?}");
                        assert_eq!(rep.retried_panels, 0, "{at}, seed {seed}");
                    }
                    (_, Err(FtError::Unrecoverable { .. })) => stopped += 1,
                    (_, Err(e)) => panic!("{at}, seed {seed}: {e}"),
                }
            }
            assert!(stopped > 0, "{at}: no pattern stopped without a budget");

            // Under `tight` every seed is rolled back to the clean `C` or is
            // fail-stop; the first of each kind replays.
            let (mut covered, mut failed) = (None, None);
            for seed in 0..32u64 {
                let outcome = run(&count(seed, tight), beta);
                match &outcome {
                    (c, Ok(rep)) => {
                        assert_eq!(*c, c_clean, "{at}, seed {seed}: {rep:?}");
                        covered.get_or_insert((seed, outcome));
                    }
                    (_, Err(FtError::Unrecoverable { .. })) => {
                        failed.get_or_insert((seed, outcome));
                    }
                    (_, Err(e)) => panic!("{at}, seed {seed}: {e}"),
                }
            }
            for (kind, hunted) in [("covered", covered), ("fail-stop", failed)] {
                let (seed, hunted) =
                    hunted.unwrap_or_else(|| panic!("{at}: no {kind} seed in 0..32"));
                assert_eq!(run(&count(seed, tight), beta), hunted, "{at}, seed {seed}");
            }
        }
    }
}

#[test]
fn a_fault_during_the_replay_with_the_budget_spent_is_fail_stop() {
    let (ctx, dims) = small_blocks(2);
    let run = runner(&ctx, dims);
    let once = Recovery::RetryPanel { max_retries: 1 };
    for beta in [0.0, -0.5] {
        let (c_clean, clean) = run(&overflow(0, Rate::Count(0), once).1, beta);
        clean.unwrap();
        // An overflow at every other site, replays included; what the
        // injector counted as unrecoverable comes with the outcome.
        let spend = |seed| {
            let (injector, cfg) = overflow(seed, Rate::PerSite(0.5), once);
            let outcome = run(&cfg, beta);
            (outcome, injector.stats().unrecoverable())
        };
        let mut spent = None;
        for seed in 0..12u64 {
            let ((c, res), unrecoverable) = spend(seed);
            match res {
                Ok(rep) => assert_eq!(c, c_clean, "seed {seed}: {rep:?}"),
                // One failed verification was rolled back; the replay (or a
                // later panel of that block) failed another.
                Err(FtError::Unrecoverable { .. }) => {
                    assert_eq!(unrecoverable, 2, "beta {beta}, seed {seed}");
                    spent.get_or_insert((seed, ((c, res), unrecoverable)));
                }
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        let (seed, spent) = spent.unwrap_or_else(|| panic!("beta {beta}: no run spent its budget"));
        assert_eq!(spend(seed), spent, "beta {beta}, seed {seed}");
    }
}

/// A batched item draws its injection streams from its rank among the
/// batch's protected items, not from the pool thread that took it: a seed
/// hunted on a two-thread batch, whose items the threads race for, replays
/// item for item on fresh batches of one and of two threads.
#[test]
fn a_batch_replays_whatever_thread_runs_its_items() {
    let items = 6;
    let (_, (m, n, k)) = small_blocks(1);
    let a: Vec<_> = (0..items).map(|i| Matrix::<f64>::random(m, k, i)).collect();
    let b: Vec<_> = (0..items)
        .map(|i| Matrix::<f64>::random(k, n, 100 + i))
        .collect();
    let batch = |threads: usize, seed: u64| -> Vec<Outcome> {
        let (ctx, _) = small_blocks(threads);
        let model = ErrorModel::Additive { magnitude: 1e6 };
        let injector = FaultInjector::new(seed, model, Rate::PerSite(0.05));
        let cfg = FtPolicy::DetectCorrect.to_config(Some(injector)).unwrap();
        let mut c: Vec<_> = (0..items).map(|_| Matrix::<f64>::zeros(m, n)).collect();
        let mut batch_items: Vec<_> = a
            .iter()
            .zip(&b)
            .zip(&mut c)
            .map(|((a, b), c)| BatchItem {
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
                cfg: Some(&cfg),
            })
            .collect();
        let results = GemmBatch::new(&ctx).run(&mut batch_items);
        drop(batch_items);
        let bits = |c: &Matrix<f64>| c.as_slice().iter().map(|v| v.to_bits()).collect();
        c.iter().map(bits).zip(results).collect()
    };
    let acted = |(_, res): &Outcome| {
        res.as_ref()
            .is_ok_and(|rep| rep.corrected > 0 || rep.retried_panels > 0)
    };
    let (seed, hunted) = (0..32u64)
        .map(|seed| (seed, batch(2, seed)))
        .find(|(_, outcomes)| outcomes[1..].iter().any(acted))
        .expect("no seed in 0..32 corrects an item after the first");
    for threads in [1, 2] {
        let replayed = batch(threads, seed);
        for (i, (got, want)) in replayed.iter().zip(&hunted).enumerate() {
            assert_eq!(got, want, "seed {seed}, item {i}, {threads} threads");
        }
    }
}
