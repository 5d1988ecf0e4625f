//! End-to-end fault-tolerance integration: injection campaigns across
//! drivers, thread counts, error models, and seeds, always validating the
//! corrected output against a clean reference; replays of a fault pattern
//! across owners and calls; and `beta == 0`'s store mode on every entry of
//! the loop nest.

use ftgemm::abft::{
    execute, ft_gemm_with_ctx, FtConfig, FtError, FtReport, FtResult, Recovery, Workspace,
};
use ftgemm::core::reference::naive_gemm;
use ftgemm::core::{BlockingParams, Matrix, Scalar};
use ftgemm::faults::{Campaign, CampaignOutcome, ErrorModel, FaultInjector, Rate};
use ftgemm::parallel::{par_ft_gemm_with_ws, par_gemm_with_ws, ParGemmContext};
use std::time::Duration;

fn clean_reference(m: usize, n: usize, k: usize) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random(m, k, 42);
    let b = Matrix::<f64>::random(k, n, 43);
    let mut c = Matrix::<f64>::zeros(m, n);
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut());
    (a, b, c)
}

/// A context with tiny blocks so even small problems have many injection
/// sites and verification intervals.
fn small_block_ctx() -> Workspace<f64> {
    let mut ws = Workspace::<f64>::new();
    let kern = ws.kernel;
    ws.set_params(BlockingParams {
        mr: kern.mr,
        nr: kern.nr,
        mc: kern.mr * 2,
        nc: kern.nr * 4,
        kc: 16,
    })
    .unwrap();
    ws
}

/// Two overflows per stream: an overflowed element is what subtraction
/// cannot repair (`inf - inf`), whatever else its panel holds, so every
/// panel one lands in fails verification. `Additive` draws a distinct offset
/// per event, so finite errors in one panel are told apart and repaired.
fn overflow(seed: u64, recovery: Recovery) -> FtConfig {
    let model = ErrorModel::Additive {
        magnitude: f64::INFINITY,
    };
    FtConfig {
        injector: Some(FaultInjector::new(seed, model, Rate::Count(2))),
        recovery,
        ..Default::default()
    }
}

/// `C = alpha * A * B + beta * C` through `ft_gemm_with_ctx` on `ctx`.
fn serial<T: Scalar>(
    ctx: &mut Workspace<T>,
    cfg: &FtConfig,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) -> FtResult<FtReport> {
    ft_gemm_with_ctx(
        ctx,
        cfg,
        alpha,
        &a.as_ref(),
        &b.as_ref(),
        beta,
        &mut c.as_mut(),
    )
}

/// The same through `execute` on a fresh workspace on `ctx`'s pool.
fn pool<T: Scalar>(
    ctx: &ParGemmContext<T>,
    cfg: &FtConfig,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) -> FtResult<FtReport> {
    let (a, b, ws) = (a.as_ref(), b.as_ref(), &mut Workspace::new());
    execute(
        Some(ctx),
        ws,
        Some(cfg),
        alpha,
        &a,
        &b,
        beta,
        &mut c.as_mut(),
    )
}

/// `C`'s bits: equal even where `C` holds a NaN.
fn bits(c: &Matrix<f64>) -> Vec<u64> {
    c.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn serial_campaign_all_models_many_seeds() {
    let (m, n, k) = (128, 120, 96);
    let (a, b, truth) = clean_reference(m, n, k);
    for model in [
        ErrorModel::BitFlip { bit: None },
        ErrorModel::Additive { magnitude: 1e6 },
        ErrorModel::Scale { factor: -3.0 },
    ] {
        for seed in 0..8u64 {
            let inj = FaultInjector::new(seed, model, Rate::Count(6));
            let cfg = FtConfig::with_injector(inj);
            let mut ctx = small_block_ctx();
            let mut c = Matrix::<f64>::zeros(m, n);
            let rep = serial(&mut ctx, &cfg, 1.0, &a, &b, 0.0, &mut c)
                .unwrap_or_else(|e| panic!("{model:?} seed {seed}: {e}"));
            assert!(rep.injected > 0, "{model:?} seed {seed} injected nothing");
            assert!(
                truth.rel_max_diff(&c) < 1e-9,
                "{model:?} seed {seed}: diff {} rep {rep:?}",
                truth.rel_max_diff(&c)
            );
        }
    }
}

#[test]
fn parallel_campaign_many_seeds() {
    let (m, n, k) = (160, 140, 128);
    let (a, b, truth) = clean_reference(m, n, k);
    for threads in [2, 4, 8] {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        for seed in 0..6u64 {
            let inj = FaultInjector::new(
                seed.wrapping_mul(7919),
                ErrorModel::Additive { magnitude: 2e7 },
                Rate::Count(2),
            );
            let cfg = FtConfig::with_injector(inj);
            let mut c = Matrix::<f64>::zeros(m, n);
            let rep = pool(&ctx, &cfg, 1.0, &a, &b, 0.0, &mut c)
                .unwrap_or_else(|e| panic!("t={threads} seed {seed}: {e}"));
            assert!(
                truth.rel_max_diff(&c) < 1e-9,
                "t={threads} seed {seed}: diff {} rep {rep:?}",
                truth.rel_max_diff(&c)
            );
            assert_eq!(rep.corrected, rep.injected, "t={threads} seed {seed}");
        }
    }
}

#[test]
fn ft_without_errors_is_bit_identical_to_plain() {
    // The fused FT path performs the identical arithmetic on C; clean runs
    // must match the plain driver bit for bit.
    let (m, n, k) = (144, 100, 130);
    let a = Matrix::<f64>::random(m, k, 9);
    let b = Matrix::<f64>::random(k, n, 10);
    let mut c_plain = Matrix::<f64>::random(m, n, 11);
    let mut c_ft = c_plain.clone();

    let mut ctx = Workspace::<f64>::new();
    ftgemm::gemm(
        &mut ctx,
        1.0,
        &a.as_ref(),
        &b.as_ref(),
        1.0,
        &mut c_plain.as_mut(),
    )
    .unwrap();
    let cfg = FtConfig::default();
    serial(&mut Workspace::new(), &cfg, 1.0, &a, &b, 1.0, &mut c_ft).unwrap();

    assert_eq!(
        c_plain.as_slice(),
        c_ft.as_slice(),
        "FT altered the numerics"
    );
}

#[test]
fn seeded_rate_campaign_validates() {
    // The paper's reliability claim in miniature: sustained injection, every
    // iteration validated. A seeded count per call over a fixed number of
    // runs on one workspace, whose call count gives each run its own
    // pattern: the whole campaign replays.
    let (m, n, k) = (96, 96, 64);
    let (a, b, truth) = clean_reference(m, n, k);
    let inj = FaultInjector::new(7, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(4));
    let campaign = Campaign {
        max_runs: 100,
        ..Campaign::new(Duration::from_secs(600), inj)
    };
    let mut ctx = small_block_ctx();
    let report = campaign.run(|inj| {
        let cfg = FtConfig::with_injector(inj.clone());
        let mut c = Matrix::<f64>::zeros(m, n);
        match serial(&mut ctx, &cfg, 1.0, &a, &b, 0.0, &mut c) {
            Ok(_) => {
                if truth.rel_max_diff(&c) < 1e-9 {
                    CampaignOutcome::Correct
                } else {
                    CampaignOutcome::Mismatch
                }
            }
            Err(_) => CampaignOutcome::Skipped, // flagged, not silent
        }
    });
    assert_eq!(report.runs, campaign.max_runs, "{report:?}");
    assert_eq!(report.mismatches, 0, "{report:?}");
    assert!(report.injected >= 200, "{report:?}");
}

#[test]
fn unrecoverable_patterns_are_flagged_not_silent() {
    // Force a colliding pattern: corrupt C directly in a shape row+col
    // checksums cannot resolve, via a custom "three corners" injection.
    // We emulate by injecting many errors into a single tiny verification
    // interval until an unrecoverable pattern appears for some seed; the
    // driver must return Err, never a silently wrong Ok.
    let (m, n, k) = (64, 64, 16);
    let (a, b, truth) = clean_reference(m, n, k);
    let mut saw_unrecoverable = false;
    for seed in 0..40u64 {
        let inj = FaultInjector::new(
            seed,
            ErrorModel::Additive { magnitude: 1e6 },
            Rate::PerSite(0.9),
        );
        let cfg = FtConfig::with_injector(inj);
        let mut ctx = small_block_ctx();
        let mut c = Matrix::<f64>::zeros(m, n);
        match serial(&mut ctx, &cfg, 1.0, &a, &b, 0.0, &mut c) {
            Ok(rep) => {
                assert!(
                    truth.rel_max_diff(&c) < 1e-9,
                    "seed {seed}: Ok but wrong (diff {}, rep {rep:?})",
                    truth.rel_max_diff(&c)
                );
            }
            Err(_) => saw_unrecoverable = true,
        }
    }
    // With per-site probability 0.9 and multiple sites per interval, at
    // least one seed should produce a collision; but the essential
    // assertion above is that Ok always implies a correct result.
    let _ = saw_unrecoverable;
}

#[test]
fn injector_stats_track_cross_driver() {
    let inj = FaultInjector::new(3, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(3));
    let (m, n, k) = (96, 96, 96);
    let (a, b, _) = clean_reference(m, n, k);

    let cfg = FtConfig::with_injector(inj.clone());
    let mut ctx = small_block_ctx();
    let mut c = Matrix::<f64>::zeros(m, n);
    serial(&mut ctx, &cfg, 1.0, &a, &b, 0.0, &mut c).unwrap();

    let par = ParGemmContext::<f64>::with_threads(3);
    let mut c = Matrix::<f64>::zeros(m, n);
    pool(&par, &cfg, 1.0, &a, &b, 0.0, &mut c).unwrap();

    assert!(inj.stats().injected() > 0);
    assert_eq!(inj.stats().injected(), inj.stats().corrected());
}

#[test]
fn retry_panel_recovers_colliding_patterns() {
    // Hunt for a seed whose error pattern is unrecoverable by checksum
    // correction alone (a cycle across shared rows and columns within one
    // verification interval), then show the rollback policy recomputes
    // the column block and completes correctly. Count-rate schedules
    // exhaust after the first pass, so the retried panel runs clean.
    let (m, n, k) = (96, 96, 48);
    let (a, b, truth) = clean_reference(m, n, k);
    let mut recovered = 0;
    let mut failing_seeds = Vec::new();
    for seed in 0..200u64 {
        let inj = FaultInjector::new(
            seed,
            ErrorModel::Additive { magnitude: 1e6 },
            Rate::PerSite(0.8),
        );
        let cfg = FtConfig {
            injector: Some(inj),
            ..Default::default()
        };
        let mut ctx = small_block_ctx();
        let mut c = Matrix::<f64>::zeros(m, n);
        if serial(&mut ctx, &cfg, 1.0, &a, &b, 0.0, &mut c).is_err() {
            failing_seeds.push(seed);
            if failing_seeds.len() >= 5 {
                break;
            }
        }
    }
    for &seed in &failing_seeds {
        // Same fault pattern, but with column-block rollback. Retried
        // panels poll fresh sites (PerSite keeps injecting), so allow
        // several attempts; with probability ~0.8^sites per attempt the
        // panel eventually passes or we accept a final Err as "flagged".
        let inj = FaultInjector::new(
            seed,
            ErrorModel::Additive { magnitude: 1e6 },
            Rate::PerSite(0.8),
        );
        let cfg = FtConfig {
            injector: Some(inj),
            recovery: Recovery::RetryPanel { max_retries: 20 },
            ..Default::default()
        };
        let mut ctx = small_block_ctx();
        let mut c = Matrix::<f64>::zeros(m, n);
        match serial(&mut ctx, &cfg, 1.0, &a, &b, 0.0, &mut c) {
            Ok(rep) => {
                assert!(
                    rep.retried_panels > 0,
                    "seed {seed}: no retry recorded: {rep:?}"
                );
                assert!(
                    truth.rel_max_diff(&c) < 1e-9,
                    "seed {seed}: retry produced wrong result ({})",
                    truth.rel_max_diff(&c)
                );
                recovered += 1;
            }
            Err(_) => {} // still flagged after budget — acceptable, never silent
        }
    }
    assert!(
        failing_seeds.is_empty() || recovered > 0,
        "retry never succeeded across failing seeds {failing_seeds:?}"
    );
}

#[test]
fn rollback_recomputes_the_column_block_bit_identically() {
    // One column block, four KC panels, three injection sites per panel.
    let p = small_block_ctx().params;
    let (m, n, k) = (p.mc * 3, p.nc, p.kc * 4);
    let a = Matrix::<f64>::random(m, k, 42);
    let b = Matrix::<f64>::random(k, n, 43);
    let c0 = Matrix::<f64>::random(m, n, 44);
    let run = |cfg: &FtConfig, beta: f64| {
        let mut c = c0.clone();
        let res = serial(&mut small_block_ctx(), cfg, 1.0, &a, &b, beta, &mut c);
        (c, res)
    };
    // Hunt a seed whose two errors land in one panel of index >= 1: fail-stop
    // there under ReportOnly, and a single rollback completes the call (a
    // second error in a later panel would need a second one).
    let (seed, failing_panel) = (0..200u64)
        .find_map(|seed| {
            let Err(FtError::Unrecoverable { pc, .. }) =
                run(&overflow(seed, Recovery::ReportOnly), 0.0).1
            else {
                return None;
            };
            let once = run(
                &overflow(seed, Recovery::RetryPanel { max_retries: 1 }),
                0.0,
            )
            .1;
            (pc >= p.kc && once.is_ok_and(|rep| rep.injected == 2)).then_some((seed, pc / p.kc))
        })
        .expect("no seed in 0..200 puts both errors in one later panel");

    let retry = Recovery::RetryPanel { max_retries: 2 };
    for beta in [0.0, 1.0, -0.5] {
        let clean_cfg = FtConfig {
            recovery: retry,
            ..Default::default()
        };
        let (c_clean, clean) = run(&clean_cfg, beta);
        let clean = clean.unwrap();
        assert_eq!((clean.verifications, clean.retried_panels), (4, 0));

        let (c, rep) = run(&overflow(seed, retry), beta);
        let rep = rep.unwrap_or_else(|e| panic!("beta {beta}: {e}"));
        assert_eq!(
            c.as_slice(),
            c_clean.as_slice(),
            "beta {beta}: recovered C differs from a clean run"
        );
        assert_eq!(rep.injected, 2, "beta {beta}");
        assert_eq!(rep.retried_panels, failing_panel + 1, "beta {beta}");
        assert_eq!(
            rep.verifications,
            clean.verifications + failing_panel + 1,
            "beta {beta}"
        );
        // The same pattern without a rollback budget stops where it failed.
        let (_, stopped) = run(&overflow(seed, Recovery::ReportOnly), beta);
        assert!(
            matches!(stopped, Err(FtError::Unrecoverable { jc: 0, pc, .. }) if pc == failing_panel * p.kc),
            "beta {beta}: {stopped:?}"
        );
    }
}

#[test]
fn retry_panel_is_inert_on_clean_runs() {
    let (m, n, k) = (80, 70, 60);
    let (a, b, truth) = clean_reference(m, n, k);
    let cfg = FtConfig {
        recovery: Recovery::RetryPanel { max_retries: 3 },
        ..Default::default()
    };
    let mut c = Matrix::<f64>::zeros(m, n);
    let rep = serial(&mut Workspace::new(), &cfg, 1.0, &a, &b, 0.0, &mut c).unwrap();
    assert_eq!(rep.retried_panels, 0);
    assert!(truth.rel_max_diff(&c) < 1e-10);
}

#[test]
fn serial_and_matrix_parallel_clean_runs_agree_bitwise() {
    // Both drivers run the same micro-kernel over the same KC panels and
    // share one ABFT step (`ftgemm::abft::panel`), so a clean run's `C` and
    // report cannot depend on the driver or the thread count. Nothing else
    // pins this pair: the facade's bit-identity tests compare each driver
    // with itself.
    use ftgemm::abft::FtPolicy;
    let cfg = FtPolicy::DetectCorrect.to_config(None).unwrap();
    for (m, n, k) in [(131, 73, 59), (300, 260, 700), (64, 64, 64)] {
        let a = Matrix::<f64>::random(m, k, 1);
        let b = Matrix::<f64>::random(k, n, 2);
        let c0 = Matrix::<f64>::random(m, n, 3);
        for beta in [0.0, 1.0, -0.5] {
            let mut c_serial = c0.clone();
            let ctx = &mut Workspace::new();
            let want = serial(ctx, &cfg, 1.5, &a, &b, beta, &mut c_serial).unwrap();
            for threads in 1..=3 {
                let ctx = ParGemmContext::<f64>::with_threads(threads);
                let mut c_pool = c0.clone();
                let rep = pool(&ctx, &cfg, 1.5, &a, &b, beta, &mut c_pool).unwrap();
                let at = format!("{m}x{n}x{k} beta {beta} on {threads} thread(s)");
                assert_eq!(c_serial.as_slice(), c_pool.as_slice(), "{at}");
                assert_eq!(want, rep, "{at}");
            }
        }
    }
}

/// The vector bodies of the packs and of the kernels' fused store sum `bc`,
/// `enc_col`, `ar` and `ref_col` in a different order than the encoded and
/// reference checksums used to be summed in. At the depth where roundoff is
/// largest the default tolerance must still call a clean run clean on every
/// driver, and still see what an injector plants.
fn reordered_sums_verify_clean_and_catch_errors<T: Scalar>((m, n, k): (usize, usize, usize)) {
    use ftgemm::abft::FtPolicy;
    let a = Matrix::<T>::random(m, k, 101);
    let b = Matrix::<T>::random(k, n, 102);
    let clean = FtPolicy::DetectCorrect.to_config(None).unwrap();

    let mut c = Matrix::<T>::zeros(m, n);
    let rep = serial(
        &mut Workspace::new(),
        &clean,
        T::ONE,
        &a,
        &b,
        T::ZERO,
        &mut c,
    )
    .unwrap();
    assert!(rep.verifications > 0, "{} serial: {rep:?}", T::NAME);
    assert_eq!(rep.detected, 0, "{} serial: {rep:?}", T::NAME);

    let ctx = ParGemmContext::<T>::with_threads(2);
    let mut c_par = Matrix::<T>::zeros(m, n);
    let rep = pool(&ctx, &clean, T::ONE, &a, &b, T::ZERO, &mut c_par).unwrap();
    assert!(rep.verifications > 0, "{} 2 threads: {rep:?}", T::NAME);
    assert_eq!(rep.detected, 0, "{} 2 threads: {rep:?}", T::NAME);
    assert_eq!(c.as_slice(), c_par.as_slice(), "{}", T::NAME);

    let inj = FaultInjector::new(7, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(5));
    let cfg = FtPolicy::DetectCorrect.to_config(Some(inj)).unwrap();
    let mut c_inj = Matrix::<T>::zeros(m, n);
    let rep = serial(
        &mut Workspace::new(),
        &cfg,
        T::ONE,
        &a,
        &b,
        T::ZERO,
        &mut c_inj,
    )
    .unwrap();
    assert!(rep.injected > 0, "{}: {rep:?}", T::NAME);
    assert_eq!(rep.corrected, rep.injected, "{}: {rep:?}", T::NAME);
    // A corrected element carries the roundoff of the error it held.
    let diff = c.rel_max_diff(&c_inj);
    assert!(
        diff < 1e6 * 8.0 * T::EPSILON.to_f64(),
        "{}: {diff}",
        T::NAME
    );
}

#[test]
fn reordered_sums_keep_deep_clean_runs_clean_f64() {
    reordered_sums_verify_clean_and_catch_errors::<f64>((512, 512, 2048));
}

#[test]
fn reordered_sums_keep_deep_clean_runs_clean_f32() {
    reordered_sums_verify_clean_and_catch_errors::<f32>((256, 256, 4096));
}

/// The replay tests' problem: `small_block_ctx`'s blocking, two column
/// blocks by four depth panels, three `mc` blocks of rows.
fn replay_problem() -> (BlockingParams, [Matrix<f64>; 3]) {
    let p = small_block_ctx().params;
    let (m, n, k) = (p.mc * 3, p.nc * 2, p.kc * 4);
    let operands = [(m, k, 1), (k, n, 2), (m, n, 3)];
    (p, operands.map(|(r, c, seed)| Matrix::random(r, c, seed)))
}

#[test]
fn a_fresh_context_and_a_fresh_one_thread_workspace_draw_the_same_faults() {
    // Both owners count their own protected calls and the nest derives the
    // streams from that count, so the first call on either opens the same
    // stream and replays the other bit for bit, rollbacks included.
    let (p, [a, b, c0]) = replay_problem();
    let mut one = ParGemmContext::<f64>::with_threads(1);
    one.set_params(p).unwrap();
    for seed in 0..8u64 {
        let cfg = overflow(seed, Recovery::RetryPanel { max_retries: 2 });
        let (mut c_serial, mut c_pool) = (c0.clone(), c0.clone());
        let want = serial(
            &mut small_block_ctx(),
            &cfg,
            1.0,
            &a,
            &b,
            0.5,
            &mut c_serial,
        );
        let got = pool(&one, &cfg, 1.0, &a, &b, 0.5, &mut c_pool);
        assert_eq!(want, got, "seed {seed}");
        assert_eq!(bits(&c_serial), bits(&c_pool), "seed {seed}");
    }
}

#[test]
fn a_seed_hunted_on_a_pool_replays_on_a_fresh_workspace() {
    let (p, [a, b, c0]) = replay_problem();
    let mut ctx = ParGemmContext::<f64>::with_threads(2);
    ctx.set_params(p).unwrap();
    let run = |seed| {
        let mut c = c0.clone();
        let cfg = overflow(seed, Recovery::RetryPanel { max_retries: 2 });
        let res = pool(&ctx, &cfg, 1.0, &a, &b, 0.5, &mut c);
        (bits(&c), res)
    };
    // Four overflows against a budget of two rollbacks per column block:
    // hunt a pattern that spends it in the second block.
    let (seed, hunted) = (0..32u64)
        .map(|seed| (seed, run(seed)))
        .find(|(_, (_, res))| matches!(res, Err(FtError::Unrecoverable { jc, .. }) if *jc > 0))
        .expect("no seed in 0..32 fails past the first column block");
    // An unrelated protected pool call in between moves nothing.
    let _ = run(seed + 1);
    assert_eq!(run(seed), hunted, "seed {seed}");
}

/// One entry of the loop nest: `C = alpha * A * B + beta * C` in place.
type Driver = Box<
    dyn FnMut(f64, &Matrix<f64>, &Matrix<f64>, f64, &mut Matrix<f64>) -> Result<FtReport, String>,
>;

/// The four entries — `gemm`, `ft_gemm_with_ctx`, and `par_gemm_with_ws` /
/// `par_ft_gemm_with_ws` on 1, 2 and 3 threads — under `small_block_ctx`'s
/// blocking (`mc = 2 mr`, `nc = 4 nr`, `kc = 16`), with workspaces for an
/// `m x n x k` problem. `edit` is applied to each context's `params` field
/// afterwards, as any holder of the context could.
fn every_driver(
    (m, n, k): (usize, usize, usize),
    edit: fn(&mut BlockingParams),
) -> Vec<(String, Driver)> {
    fn report<E: std::fmt::Debug>(r: Result<(), E>) -> Result<FtReport, String> {
        r.map(|()| FtReport::default())
            .map_err(|e| format!("{e:?}"))
    }
    let cfg = ftgemm::abft::FtPolicy::DetectCorrect
        .to_config(None)
        .unwrap();
    let small = small_block_ctx().params;

    let mut plain = Workspace::<f64>::new();
    plain.params = small;
    edit(&mut plain.params);
    let mut protected = small_block_ctx();
    edit(&mut protected.params);
    let serial_cfg = cfg.clone();
    let mut drivers: Vec<(String, Driver)> = vec![
        (
            "gemm".into(),
            Box::new(move |alpha, a, b, beta, c| {
                let (a, b) = (a.as_ref(), b.as_ref());
                report(ftgemm::gemm(
                    &mut plain,
                    alpha,
                    &a,
                    &b,
                    beta,
                    &mut c.as_mut(),
                ))
            }),
        ),
        (
            "ft_gemm_with_ctx".into(),
            Box::new(move |alpha, a, b, beta, c| {
                serial(&mut protected, &serial_cfg, alpha, a, b, beta, c)
                    .map_err(|e| format!("{e:?}"))
            }),
        ),
    ];
    for threads in 1..=3 {
        let mut ctx = ParGemmContext::<f64>::with_threads(threads);
        ctx.set_params(small).unwrap();
        let mut ws = Workspace::for_problem(&ctx, m, n, k);
        let mut ft_ws = Workspace::for_problem(&ctx, m, n, k);
        edit(&mut ctx.params);
        let (ft_ctx, cfg) = (ctx.clone(), cfg.clone());
        drivers.push((
            format!("par_gemm_with_ws on {threads}"),
            Box::new(move |alpha, a, b, beta, c| {
                let (a, b, c) = (a.as_ref(), b.as_ref(), &mut c.as_mut());
                report(par_gemm_with_ws(&ctx, &mut ws, alpha, &a, &b, beta, c))
            }),
        ));
        drivers.push((
            format!("par_ft_gemm_with_ws on {threads}"),
            Box::new(move |alpha, a, b, beta, c| {
                let (a, b, c) = (a.as_ref(), b.as_ref(), &mut c.as_mut());
                par_ft_gemm_with_ws(&ft_ctx, &mut ft_ws, &cfg, alpha, &a, &b, beta, c)
                    .map_err(|e| format!("{e:?}"))
            }),
        ));
    }
    drivers
}

/// `small_block_ctx`'s blocking makes `jc`, `pc` and `ic` all iterate on this
/// shape — on three threads too, where each owns four `mr` slabs of rows —
/// and leaves a ragged edge in every direction.
fn ragged_problem() -> (usize, usize, usize) {
    let p = small_block_ctx().params;
    (11 * p.mr + 3, 9 * p.nr + 1, 37)
}

#[test]
fn beta_zero_never_reads_c() {
    // At beta == 0 no driver zero-fills C: the first depth panel runs the
    // micro-kernel in store mode and later panels accumulate. Whatever C
    // held — NaN here, which any read would spread — the result and the
    // report are those of beta == 1 over zeros.
    let (m, n, k) = ragged_problem();
    let a = Matrix::<f64>::random(m, k, 11);
    let b = Matrix::<f64>::random(k, n, 12);
    for (name, mut run) in every_driver((m, n, k), |_| {}) {
        let mut stored = Matrix::<f64>::filled(m, n, f64::NAN);
        let mut summed = Matrix::<f64>::zeros(m, n);
        let got = run(1.5, &a, &b, 0.0, &mut stored).unwrap();
        let want = run(1.5, &a, &b, 1.0, &mut summed).unwrap();
        assert_eq!(stored.as_slice(), summed.as_slice(), "{name}");
        assert_eq!(got, want, "{name}");
        assert_eq!(got.detected, 0, "{name}: {got:?}");

        // Nothing to store over C with: beta * C alone must still be zeros.
        let (a0, b0) = (Matrix::<f64>::zeros(m, 0), Matrix::<f64>::zeros(0, n));
        for (alpha, a, b) in [(1.5, &a0, &b0), (0.0, &a, &b)] {
            let mut c = Matrix::<f64>::filled(m, n, f64::NAN);
            run(alpha, a, b, 0.0, &mut c).unwrap();
            assert!(
                c.as_slice().iter().all(|&v| v == 0.0),
                "{name}: alpha {alpha}, k {}",
                a.ncols()
            );
        }
    }
}

#[test]
fn an_err_before_the_loop_nest_leaves_c_untouched() {
    // `params` is a public field of every context, so a driver can be handed
    // blocking that fails validation; it must say so before scaling C.
    let (m, n, k) = ragged_problem();
    let a = Matrix::<f64>::random(m, k, 11);
    let b = Matrix::<f64>::random(k, n, 12);
    let c0 = Matrix::<f64>::random(m, n, 13);
    // The products that are `beta * C` alone take the same road: blocking is
    // validated before the degenerate returns, on every entry.
    let (a0, b0) = (Matrix::<f64>::zeros(m, 0), Matrix::<f64>::zeros(0, n));
    for (name, mut run) in every_driver((m, n, k), |p| p.mc = 0) {
        for (alpha, a, b) in [(1.5, &a, &b), (1.5, &a0, &b0), (0.0, &a, &b)] {
            for beta in [0.0, -0.5] {
                let at = format!("{name}: alpha {alpha}, k {}, beta {beta}", a.ncols());
                let mut c = c0.clone();
                let err = run(alpha, a, b, beta, &mut c).unwrap_err();
                assert!(err.contains("mc"), "{at}: {err}");
                assert_eq!(c.as_slice(), c0.as_slice(), "{at}");
            }
        }
    }
}
