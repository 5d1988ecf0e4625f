//! Property tests for the serving layer and the batched driver it rides on:
//! batched execution over an arbitrary batch must equal a per-request serial
//! `ft_gemm_with_ctx` loop, and the service must agree with the oracle for arbitrary
//! shapes, policies, and batch geometry.

use ftgemm::abft::{ft_gemm_with_ctx, FtConfig, Workspace};
use ftgemm::core::reference::naive_gemm;
use ftgemm::core::Matrix;
use ftgemm::faults::{ErrorModel, FaultInjector, Rate};
use ftgemm::parallel::{
    par_batch_ft_gemm_timed, par_ft_gemm_with_ws, par_gemm_with_ws, BatchItem, BatchWorkspace,
    ParGemmContext,
};
use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig};
use ftgemm::{Exec, GemmBatch, GemmOp, Topology};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// par_batch_ft_gemm_timed over a randomly sized batch of randomly
    /// shaped problems equals running ft_gemm_with_ctx serially per item.
    #[test]
    fn batch_equals_serial_ft_gemm_loop(
        batch_len in 1usize..12, threads in 1usize..6,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0, seed in 0u64..500
    ) {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        let ws = BatchWorkspace::new(&ctx);
        let cfg = FtConfig::default();

        let mut problems = Vec::new();
        for i in 0..batch_len {
            let s = seed + i as u64 * 13;
            let (m, n, k) = (1 + (s % 60) as usize, 1 + (s % 47) as usize, 1 + (s % 33) as usize);
            problems.push((
                Matrix::<f64>::random(m, k, s),
                Matrix::<f64>::random(k, n, s + 1),
                Matrix::<f64>::random(m, n, s + 2),
            ));
        }
        let mut expected: Vec<Matrix<f64>> = problems.iter().map(|(_, _, c)| c.clone()).collect();
        for ((a, b, _), c_exp) in problems.iter().zip(expected.iter_mut()) {
            ft_gemm_with_ctx(&mut Workspace::new(), &cfg, alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_exp.as_mut()).unwrap();
        }

        let mut items: Vec<BatchItem<'_, f64>> = problems
            .iter_mut()
            .map(|(a, b, c)| BatchItem {
                alpha,
                a: a.as_ref(),
                b: b.as_ref(),
                beta,
                c: c.as_mut(),
                cfg: Some(&cfg),
            })
            .collect();
        let results = par_batch_ft_gemm_timed(&ctx, &ws, &mut items).0;
        drop(items);

        for (i, r) in results.iter().enumerate() {
            prop_assert_eq!(r.as_ref().unwrap().detected, 0, "item {}", i);
        }
        for (i, ((_, _, c), c_exp)) in problems.iter().zip(expected.iter()).enumerate() {
            prop_assert!(c.rel_max_diff(c_exp) < 1e-12, "item {} diff {}", i, c.rel_max_diff(c_exp));
        }
    }

    /// The service agrees with the naive oracle for arbitrary geometry,
    /// thread counts, batching limits, and policies.
    #[test]
    fn service_matches_oracle(
        n_requests in 1usize..10, threads in 1usize..5,
        max_batch in 1usize..6, policy_pick in 0usize..3, seed in 0u64..300
    ) {
        let service = GemmService::<f64>::new(ServiceConfig {
            threads,
            max_batch,
            ..ServiceConfig::default()
        });
        let policy = [FtPolicy::Off, FtPolicy::Detect, FtPolicy::DetectCorrect][policy_pick];

        let mut pending = Vec::new();
        for i in 0..n_requests {
            let s = seed + i as u64 * 31;
            let (m, n, k) = (1 + (s % 70) as usize, 1 + (s % 51) as usize, 1 + (s % 41) as usize);
            let a = Matrix::<f64>::random(m, k, s);
            let b = Matrix::<f64>::random(k, n, s + 1);
            let req = GemmRequest::new(a.clone(), b.clone()).with_policy(policy);
            let handle = service.submit(req).unwrap();
            pending.push((a, b, handle));
        }
        for (a, b, handle) in pending {
            let resp = handle.wait().unwrap();
            let mut expected = Matrix::<f64>::zeros(a.nrows(), b.ncols());
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
            prop_assert!(resp.c.rel_max_diff(&expected) < 1e-10);
            prop_assert_eq!(resp.report.detected, 0);
        }
        let snap = service.stats();
        prop_assert_eq!(snap.completed, n_requests as u64);
        prop_assert_eq!(snap.failed, 0);
    }
}

/// Large path: one node serves matrix-parallel requests on the workspace it
/// keeps, through shapes that grow and shrink — square ones, and ragged ones
/// deeper than one `kc` panel whose `n` is no multiple of any kernel's `nr` —
/// and policies that alternate, and every result is bit-identical to the
/// `par_*_with_ws` driver run directly on a *fresh* workspace with the same
/// thread count (same partitioning, same per-element accumulation order).
/// The last request rolls back on the reused workspace, and its report
/// matches too: the direct side's fresh workspace first counts as many
/// protected calls as the node has served, so both draw the same pattern.
#[test]
fn large_path_is_bit_identical_to_fresh_workspaces() {
    const THREADS: usize = 2;
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: THREADS,
        topology: Some(Topology::single(THREADS)),
        routing: RoutingPolicy::Fixed(0), // everything runs matrix-parallel
        ..ServiceConfig::default()
    });
    let ctx = ParGemmContext::<f64>::with_threads(THREADS);
    let (one, clean) = (Matrix::<f64>::filled(1, 1, 1.0), FtConfig::default());
    let mut protected_calls = 0;
    // One request through the service and through the driver on a fresh
    // workspace; both `C`s, both reports.
    let mut both_ways = |step: usize, (m, n, k), policy: FtPolicy, injector| {
        let seed = 1_000 + step as u64;
        let a = Matrix::<f64>::random(m, k, seed);
        let b = Matrix::<f64>::random(k, n, seed + 1);
        let c0 = Matrix::<f64>::random(m, n, seed + 2);

        let mut req = GemmRequest::new(a.clone(), b.clone())
            .with_alpha(1.5)
            .with_c(0.5, c0.clone())
            .with_policy(policy);
        if let Some(injector) = &injector {
            req = req.with_injector(FaultInjector::clone(injector));
        }
        let resp = service.run(req).unwrap();
        assert!(!resp.batched, "step {step} left the matrix-parallel path");

        let mut expected = c0;
        let report = match policy.to_config(injector) {
            Some(cfg) => {
                let mut ws = Workspace::for_problem(&ctx, m, n, k);
                for _ in 0..protected_calls {
                    let (o, mut c) = (one.as_ref(), one.clone());
                    par_ft_gemm_with_ws(&ctx, &mut ws, &clean, 1.0, &o, &o, 0.0, &mut c.as_mut())
                        .unwrap();
                }
                protected_calls += 1;
                par_ft_gemm_with_ws(
                    &ctx,
                    &mut ws,
                    &cfg,
                    1.5,
                    &a.as_ref(),
                    &b.as_ref(),
                    0.5,
                    &mut expected.as_mut(),
                )
                .unwrap()
            }
            None => {
                par_gemm_with_ws(
                    &ctx,
                    &mut Workspace::for_problem(&ctx, m, n, k),
                    1.5,
                    &a.as_ref(),
                    &b.as_ref(),
                    0.5,
                    &mut expected.as_mut(),
                )
                .unwrap();
                Default::default()
            }
        };
        assert_eq!(
            resp.c.as_slice(),
            expected.as_slice(),
            "step {step}: {m}x{n}x{k} under {policy:?} differs from a fresh workspace"
        );
        (resp.report, report)
    };

    let policies = [FtPolicy::Off, FtPolicy::Detect, FtPolicy::DetectCorrect];
    let shapes = [
        (256, 256, 256),
        (128, 128, 128),
        (520, 134, 700),
        (300, 526, 530),
        (384, 384, 384),
        (256, 256, 256),
    ];
    let mut step = 0;
    for _round in 0..2 {
        for shape in shapes {
            let (served, direct) = both_ways(step, shape, policies[step % policies.len()], None);
            assert_eq!(served, direct, "step {step}");
            step += 1;
        }
    }

    // A rollback on the reused workspace: an overflow per thread. The shape
    // is one depth panel (`kc >= 64` under any derived blocking) of one
    // column block, so one rollback of that panel covers both overflows.
    let model = ErrorModel::Additive {
        magnitude: f64::INFINITY,
    };
    let injector = FaultInjector::new(77, model, Rate::Count(1));
    let shape = (520, 100, 64);
    let (served, direct) = both_ways(step, shape, FtPolicy::DetectCorrect, Some(injector));
    assert_eq!(served, direct);
    let want = (2, THREADS, 1);
    let got = (served.verifications, served.injected, served.retried_panels);
    assert_eq!(got, want, "{served:?}");

    let snap = service.shutdown();
    assert_eq!(snap.direct_large, step as u64 + 1);
    assert_eq!(snap.failed, 0);
}

/// A rollback is the loop nest's own business, so every path shows the same
/// one: a pattern correction cannot repair, through a serial plan, a
/// `GemmBatch` item and the service's small path, gives the bit-identical `C`
/// and the same `FtReport` (fresh owners everywhere, so all three open the
/// injector's first stream). The service's large path and an `Exec::Parallel`
/// plan roll back too, on fresh two-thread workspaces: the two draw the same
/// pattern, so they share the report, and their `C` is the clean run's at
/// that thread count.
#[test]
fn rollback_is_identical_across_serial_paths() {
    // At least three KC panels under any derived blocking (kc <= 512), and
    // few enough flops for the service's batched route.
    let (m, n, k) = (24, 20, 1100);
    let (alpha, beta) = (1.0, 0.5);
    let a = Matrix::<f64>::random(m, k, 7);
    let b = Matrix::<f64>::random(k, n, 8);
    let c0 = Matrix::<f64>::random(m, n, 9);
    let ctx = ParGemmContext::<f64>::with_threads(2);
    let on_plan = |injector: Option<FaultInjector>| {
        let mut c = c0.clone();
        let op = GemmOp::new(&a, &b).beta(beta).ft(FtPolicy::DetectCorrect);
        let op = match injector {
            Some(injector) => op.injector(injector),
            None => op,
        };
        let report = op.plan(Exec::Parallel(&ctx)).unwrap().run(&mut c.as_mut());
        (c, report)
    };
    // An overflowed element: subtraction cannot repair it, rollback can. Two
    // per stream make four on the pool, so hunt a seed whose pattern there
    // fits `DetectCorrect`'s two rollbacks per column block.
    let model = ErrorModel::Additive {
        magnitude: f64::INFINITY,
    };
    let seed = (0..64u64)
        .find(|&seed| {
            let injector = FaultInjector::new(seed, model, Rate::Count(2));
            on_plan(Some(injector)).1.is_ok()
        })
        .expect("no seed in 0..64 fits the budget on two threads");
    let overflow = || FaultInjector::new(seed, model, Rate::Count(2));

    let mut c_plan = c0.clone();
    let planned = GemmOp::new(&a, &b)
        .beta(beta)
        .ft(FtPolicy::DetectCorrect)
        .injector(overflow())
        .plan(Exec::Serial)
        .unwrap()
        .run(&mut c_plan.as_mut())
        .unwrap();
    assert!(
        planned.injected > 0 && planned.retried_panels > 0,
        "{planned:?}"
    );

    let cfg = FtPolicy::DetectCorrect.to_config(Some(overflow()));
    let mut c_batch = c0.clone();
    let mut items = [BatchItem {
        alpha,
        a: a.as_ref(),
        b: b.as_ref(),
        beta,
        c: c_batch.as_mut(),
        cfg: cfg.as_ref(),
    }];
    let batched = GemmBatch::new(&ctx).run(&mut items).remove(0).unwrap();
    assert_eq!(batched, planned);
    assert_eq!(c_batch.as_slice(), c_plan.as_slice());

    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let resp = service
        .run(
            GemmRequest::new(a.clone(), b.clone())
                .with_c(beta, c0.clone())
                .with_policy(FtPolicy::DetectCorrect)
                .with_injector(overflow()),
        )
        .unwrap();
    assert!(resp.batched, "left the small path");
    assert_eq!(resp.report, planned);
    assert_eq!(resp.c.as_slice(), c_plan.as_slice());

    let large = GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        topology: Some(Topology::single(2)),
        routing: RoutingPolicy::Fixed(0), // everything runs matrix-parallel
        ..ServiceConfig::default()
    });
    let (c_clean, clean) = on_plan(None);
    let clean = clean.unwrap();
    assert_eq!(clean.retried_panels, 0, "{clean:?}");
    let (c_par, par) = on_plan(Some(overflow()));
    let par = par.unwrap();
    let resp = large
        .run(
            GemmRequest::new(a.clone(), b.clone())
                .with_c(beta, c0.clone())
                .with_policy(FtPolicy::DetectCorrect)
                .with_injector(overflow()),
        )
        .unwrap();
    assert!(!resp.batched, "left the matrix-parallel path");
    assert_eq!(resp.report, par);
    for (path, c, report) in [
        ("plan", c_par.as_slice(), par),
        ("service", resp.c.as_slice(), resp.report),
    ] {
        assert!(
            report.injected > 0 && report.retried_panels > 0,
            "{path}: {report:?}"
        );
        assert_eq!(
            report.verifications,
            clean.verifications + report.retried_panels,
            "{path}: {report:?}"
        );
        assert_eq!(c, c_clean.as_slice(), "{path}");
    }
}
