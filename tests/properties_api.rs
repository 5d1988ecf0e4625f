//! Property tests for the unified `GemmOp`/`GemmPlan` builder API: for
//! random shapes, alpha/beta edge cases, and every `Exec` variant, the
//! builder surface must (a) bit-match the context- and workspace-taking
//! drivers it plans onto, called directly on fresh state (identical compute
//! order ⇒ identical bits) and (b) agree with the naive
//! reference GEMM up to roundoff.

use ftgemm::abft::{ft_gemm_with_ctx, Workspace};
use ftgemm::core::reference::naive_gemm;
use ftgemm::parallel::{par_ft_gemm_with_ws, par_gemm_with_ws};
use ftgemm::serve::DEFAULT_SMALL_FLOPS_CUTOFF;
use ftgemm::{Exec, FtConfig, FtPolicy, GemmContext, GemmOp, GemmRequest, Matrix, ParGemmContext};
use proptest::prelude::*;
use std::sync::OnceLock;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..40
}

/// Alpha/beta sweep including the special-cased values (`alpha == 0` skips
/// compute entirely; `beta == 0` fills, `beta == 1` skips scaling).
fn edge_scalar() -> impl Strategy<Value = f64> {
    sample::select(vec![0.0, 1.0, -1.0, 0.5, -2.0])
}

/// One shared pool for every parallel case (pools are expensive; the API
/// shares them by design).
fn par_ctx() -> &'static ParGemmContext<f64> {
    static CTX: OnceLock<ParGemmContext<f64>> = OnceLock::new();
    CTX.get_or_init(|| ParGemmContext::with_threads(3))
}

fn problem(m: usize, n: usize, k: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
    (
        Matrix::random(m, k, seed),
        Matrix::random(k, n, seed + 1),
        Matrix::random(m, n, seed + 2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial plans bit-match the legacy serial entry point and track the
    /// oracle, across shapes and alpha/beta edge cases.
    #[test]
    fn serial_plan_bitmatches_legacy_ft_gemm(
        m in small_dim(), n in small_dim(), k in small_dim(),
        alpha in edge_scalar(), beta in edge_scalar(), seed in 0u64..1000
    ) {
        let (a, b, c0) = problem(m, n, k, seed);
        let cfg = FtConfig::default();

        let mut c_plan = c0.clone();
        let mut plan = GemmOp::new(&a, &b)
            .alpha(alpha)
            .beta(beta)
            .ft_config(cfg.clone())
            .plan(Exec::Serial)
            .unwrap();
        plan.run(&mut c_plan.as_mut()).unwrap();

        let mut c_legacy = c0.clone();
        ft_gemm_with_ctx(
            &mut Workspace::new(), &cfg,
            alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_legacy.as_mut(),
        )
        .unwrap();
        prop_assert_eq!(c_plan.as_slice(), c_legacy.as_slice());

        let mut c_ref = c0.clone();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        prop_assert!(c_plan.rel_max_diff(&c_ref) < 1e-10);
    }

    /// Parallel plans bit-match the legacy parallel entry point on the same
    /// pool and track the oracle.
    #[test]
    fn parallel_plan_bitmatches_legacy_par_ft_gemm(
        m in small_dim(), n in small_dim(), k in small_dim(),
        alpha in edge_scalar(), beta in edge_scalar(), seed in 0u64..1000
    ) {
        let (a, b, c0) = problem(m, n, k, seed);
        let cfg = FtConfig::default();
        let ctx = par_ctx();

        let mut c_plan = c0.clone();
        let mut plan = GemmOp::new(&a, &b)
            .alpha(alpha)
            .beta(beta)
            .ft_config(cfg.clone())
            .plan(Exec::Parallel(ctx))
            .unwrap();
        plan.run(&mut c_plan.as_mut()).unwrap();

        let mut c_legacy = c0.clone();
        par_ft_gemm_with_ws(
            ctx, &mut Workspace::for_problem(ctx, m, n, k), &cfg,
            alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_legacy.as_mut(),
        )
        .unwrap();
        prop_assert_eq!(c_plan.as_slice(), c_legacy.as_slice());

        let mut c_ref = c0.clone();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        prop_assert!(c_plan.rel_max_diff(&c_ref) < 1e-10);
    }

    /// `Exec::Auto` on small problems must take the serial path and produce
    /// the exact serial bits.
    #[test]
    fn auto_routes_small_problems_serial(
        m in small_dim(), n in small_dim(), k in small_dim(),
        alpha in edge_scalar(), beta in edge_scalar(), seed in 0u64..1000
    ) {
        let (a, b, c0) = problem(m, n, k, seed);

        let mut plan = GemmOp::new(&a, &b)
            .alpha(alpha)
            .beta(beta)
            .plan(Exec::Auto)
            .unwrap();
        prop_assert!(!plan.is_parallel(), "small problem must plan serial");

        let mut c_auto = c0.clone();
        plan.run(&mut c_auto.as_mut()).unwrap();

        let mut c_serial = c0.clone();
        GemmOp::new(&a, &b)
            .alpha(alpha)
            .beta(beta)
            .plan(Exec::Serial)
            .unwrap()
            .run(&mut c_serial.as_mut())
            .unwrap();
        prop_assert_eq!(c_auto.as_slice(), c_serial.as_slice());
    }

    /// Unprotected plans (`FtPolicy::Off`) bit-match the plain drivers on
    /// every `Exec` variant.
    #[test]
    fn off_policy_bitmatches_plain_gemm(
        m in small_dim(), n in small_dim(), k in small_dim(),
        alpha in edge_scalar(), beta in edge_scalar(), seed in 0u64..1000
    ) {
        let (a, b, c0) = problem(m, n, k, seed);

        let mut c_plan = c0.clone();
        GemmOp::new(&a, &b)
            .alpha(alpha)
            .beta(beta)
            .ft(FtPolicy::Off)
            .plan(Exec::Serial)
            .unwrap()
            .run(&mut c_plan.as_mut())
            .unwrap();
        let mut c_legacy = c0.clone();
        let mut ctx = GemmContext::<f64>::new();
        ftgemm::gemm(&mut ctx, alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_legacy.as_mut())
            .unwrap();
        prop_assert_eq!(c_plan.as_slice(), c_legacy.as_slice());

        let mut c_par_plan = c0.clone();
        GemmOp::new(&a, &b)
            .alpha(alpha)
            .beta(beta)
            .ft(FtPolicy::Off)
            .plan(Exec::Parallel(par_ctx()))
            .unwrap()
            .run(&mut c_par_plan.as_mut())
            .unwrap();
        let mut c_par_legacy = c0.clone();
        par_gemm_with_ws(
            par_ctx(), &mut Workspace::for_problem(par_ctx(), m, n, k),
            alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_par_legacy.as_mut(),
        )
        .unwrap();
        prop_assert_eq!(c_par_plan.as_slice(), c_par_legacy.as_slice());
    }

    /// Plan reuse: running one plan many times over changing same-shape
    /// operands (`run_with`) matches per-call legacy results exactly.
    #[test]
    fn plan_reuse_over_fresh_operands(
        m in small_dim(), n in small_dim(), k in small_dim(), seed in 0u64..1000
    ) {
        let (a, b, _) = problem(m, n, k, seed);
        let cfg = FtConfig::default();
        let mut plan = GemmOp::new(&a, &b)
            .ft_config(cfg.clone())
            .plan(Exec::Serial)
            .unwrap();
        for round in 0..3u64 {
            let (a2, b2, _) = problem(m, n, k, seed + 100 * (round + 1));
            let mut c_plan = Matrix::<f64>::zeros(m, n);
            plan.run_with(&a2.as_ref(), &b2.as_ref(), &mut c_plan.as_mut()).unwrap();
            let mut c_legacy = Matrix::<f64>::zeros(m, n);
            ft_gemm_with_ctx(
                &mut Workspace::new(), &cfg,
                1.0, &a2.as_ref(), &b2.as_ref(), 0.0, &mut c_legacy.as_mut(),
            )
            .unwrap();
            prop_assert_eq!(c_plan.as_slice(), c_legacy.as_slice());
        }
    }

    /// A request and the op->request bridge agree with the plan
    /// result (the serving layer and the one-shot API are one surface).
    #[test]
    fn request_builder_matches_plan(
        m in 1usize..24, n in 1usize..24, k in 1usize..24, seed in 0u64..500
    ) {
        let (a, b, _) = problem(m, n, k, seed);
        let mut c_plan = Matrix::<f64>::zeros(m, n);
        GemmOp::new(&a, &b)
            .plan(Exec::Serial)
            .unwrap()
            .run(&mut c_plan.as_mut())
            .unwrap();

        let req = GemmOp::new(&a, &b).to_request();
        prop_assert_eq!(req.validate().unwrap(), (m, n, k));
        let req2 = GemmRequest::new(a.clone(), b.clone());
        prop_assert_eq!(req.flops(), req2.flops());

        let mut c_ref = Matrix::<f64>::zeros(m, n);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        prop_assert!(c_plan.rel_max_diff(&c_ref) < 1e-10);
    }
}

#[test]
fn auto_routes_large_problems_parallel() {
    // Just over the routing cutoff: 2*m*n*k > 2*192^3.
    let (m, n, k) = (208, 200, 200);
    let (a, b, c0) = problem(m, n, k, 7);
    let mut plan = GemmOp::new(&a, &b).plan(Exec::Auto).unwrap();
    assert!(plan.is_parallel(), "large problem must plan parallel");
    assert!(plan.nthreads() >= 1);

    let mut c = c0.clone();
    plan.run(&mut c.as_mut()).unwrap();
    let mut c_ref = c0.clone();
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
    // beta defaults to 0 in the op; recompute the oracle accordingly.
    let mut c_ref0 = Matrix::<f64>::zeros(m, n);
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref0.as_mut());
    assert!(c.rel_max_diff(&c_ref0) < 1e-10);
    let _ = c_ref;
}

#[test]
fn run_rejects_wrong_output_shape() {
    let a = Matrix::<f64>::zeros(8, 6);
    let b = Matrix::<f64>::zeros(6, 10);
    let mut plan = GemmOp::new(&a, &b).plan(Exec::Serial).unwrap();
    let mut c_bad = Matrix::<f64>::zeros(8, 9);
    assert!(plan.run(&mut c_bad.as_mut()).is_err());
    let mut c_ok = Matrix::<f64>::zeros(8, 10);
    assert!(plan.run(&mut c_ok.as_mut()).is_ok());
}

#[test]
fn run_with_rejects_wrong_operand_shape() {
    let a = Matrix::<f64>::random(8, 6, 1);
    let b = Matrix::<f64>::random(6, 10, 2);
    let mut plan = GemmOp::new(&a, &b).plan(Exec::Serial).unwrap();
    let a_bad = Matrix::<f64>::random(9, 6, 3);
    let mut c = Matrix::<f64>::zeros(8, 10);
    assert!(plan
        .run_with(&a_bad.as_ref(), &b.as_ref(), &mut c.as_mut())
        .is_err());
}

#[test]
fn auto_splits_exactly_at_the_default_cutoff() {
    // `Exec::Auto` routes by the service's default cutoff, 2*192^3 flops:
    // a problem of exactly that size plans serial, one a column past it
    // plans parallel.
    assert_eq!(DEFAULT_SMALL_FLOPS_CUTOFF, 2 * 192 * 192 * 192);
    let a = Matrix::<f64>::random(192, 192, 1);
    let b = Matrix::<f64>::random(192, 192, 2);
    let plan = GemmOp::new(&a, &b).plan(Exec::Auto).unwrap();
    assert!(!plan.is_parallel(), "at the cutoff must stay serial");
    let b = Matrix::<f64>::random(192, 193, 2);
    let mut plan = GemmOp::new(&a, &b).plan(Exec::Auto).unwrap();
    assert!(plan.is_parallel(), "above the cutoff must plan parallel");

    // And the routed plan still computes the right thing.
    let mut c = Matrix::<f64>::zeros(192, 193);
    plan.run(&mut c.as_mut()).unwrap();
    let mut c_ref = Matrix::<f64>::zeros(192, 193);
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
    assert!(c.rel_max_diff(&c_ref) < 1e-10);
}
