//! Cross-crate integration: every GEMM implementation in the workspace
//! agrees with the naive oracle over a grid of shapes, scalars, and ISA
//! tiers, including through the public facade.

use ftgemm::abft::{execute, ft_gemm_with_ctx, gemm, Workspace};
use ftgemm::baselines::{BlockedGemm, NaiveGemm, ReferenceGemm, ReferenceParGemm, Tier};
use ftgemm::core::reference::naive_gemm;
use ftgemm::core::{IsaLevel, Matrix};
use ftgemm::parallel::ParGemmContext;
use ftgemm::FtConfig;

const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (2, 1, 3),
    (16, 8, 4),
    (17, 19, 23),
    (64, 64, 64),
    (96, 33, 120),
    (128, 128, 128),
    (130, 70, 150),
];

/// Returns `(A, B, (C0, alpha*A*B + beta*C0))` with deterministic contents.
#[allow(clippy::type_complexity)]
fn oracle(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    beta: f64,
) -> (Matrix<f64>, Matrix<f64>, (Matrix<f64>, Matrix<f64>)) {
    let a = Matrix::<f64>::random(m, k, 1000 + m as u64);
    let b = Matrix::<f64>::random(k, n, 2000 + n as u64);
    let mut c = Matrix::<f64>::random(m, n, 3000 + k as u64);
    let c0 = c.clone();
    naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c.as_mut());
    (a, b, (c0, c))
}

#[test]
fn serial_gemm_grid() {
    for &(m, n, k) in SHAPES {
        for &(alpha, beta) in &[(1.0, 1.0), (0.5, -1.0), (1.0, 0.0)] {
            let (a, b, (c0, c_exp)) = oracle(m, n, k, alpha, beta);
            let mut ctx = Workspace::<f64>::new();
            let mut c = c0.clone();
            gemm(
                &mut ctx,
                alpha,
                &a.as_ref(),
                &b.as_ref(),
                beta,
                &mut c.as_mut(),
            )
            .unwrap();
            assert!(
                c.rel_max_diff(&c_exp) < 1e-10,
                "gemm {m}x{n}x{k} a={alpha} b={beta}"
            );
        }
    }
}

#[test]
fn ft_gemm_grid() {
    for &(m, n, k) in SHAPES {
        let (a, b, (c0, c_exp)) = oracle(m, n, k, 1.0, 1.0);
        let mut c = c0.clone();
        let rep = ft_gemm_with_ctx(
            &mut Workspace::new(),
            &FtConfig::default(),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.rel_max_diff(&c_exp) < 1e-10, "ft {m}x{n}x{k}");
        assert_eq!(rep.detected, 0, "false positive at {m}x{n}x{k}");
    }
}

#[test]
fn parallel_gemm_grid() {
    for threads in [2, 5] {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        for &(m, n, k) in SHAPES {
            let (a, b, (c0, c_exp)) = oracle(m, n, k, 1.0, 1.0);
            let mut c = c0.clone();
            execute(
                Some(&ctx),
                &mut Workspace::new(),
                None,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
            assert!(
                c.rel_max_diff(&c_exp) < 1e-10,
                "par {m}x{n}x{k} t={threads}"
            );
        }
    }
}

#[test]
fn parallel_ft_gemm_grid() {
    let ctx = ParGemmContext::<f64>::with_threads(4);
    for &(m, n, k) in SHAPES {
        let (a, b, (c0, c_exp)) = oracle(m, n, k, 1.0, 1.0);
        let mut c = c0.clone();
        let rep = execute(
            Some(&ctx),
            &mut Workspace::new(),
            Some(&FtConfig::default()),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.rel_max_diff(&c_exp) < 1e-10, "par-ft {m}x{n}x{k}");
        assert_eq!(rep.detected, 0, "false positive at {m}x{n}x{k}");
    }
}

#[test]
fn baselines_grid() {
    for &(m, n, k) in &SHAPES[..6] {
        let (a, b, (c0, c_exp)) = oracle(m, n, k, 1.0, 1.0);

        let mut c = c0.clone();
        NaiveGemm.run(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut());
        assert!(c.rel_max_diff(&c_exp) < 1e-10, "naive {m}x{n}x{k}");

        let mut c = c0.clone();
        BlockedGemm::default().run(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut());
        assert!(c.rel_max_diff(&c_exp) < 1e-10, "blocked {m}x{n}x{k}");

        for tier in [Tier::Blis, Tier::OpenBlas, Tier::Mkl] {
            let mut g = ReferenceGemm::<f64>::new(tier);
            let mut c = c0.clone();
            g.run(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut())
                .unwrap();
            assert!(c.rel_max_diff(&c_exp) < 1e-10, "{} {m}x{n}x{k}", g.name());

            let mut gp = ReferenceParGemm::<f64>::new(tier, 3);
            let mut c = c0.clone();
            gp.run(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut())
                .unwrap();
            assert!(
                c.rel_max_diff(&c_exp) < 1e-10,
                "par {} {m}x{n}x{k}",
                gp.name()
            );
        }
    }
}

#[test]
fn all_isa_tiers_agree_with_each_other() {
    let (m, n, k) = (97, 85, 110);
    let a = Matrix::<f64>::random(m, k, 5);
    let b = Matrix::<f64>::random(k, n, 6);
    let mut results = Vec::new();
    for isa in IsaLevel::available() {
        let mut ctx = Workspace::<f64>::with_isa(isa);
        let mut c = Matrix::<f64>::zeros(m, n);
        gemm(
            &mut ctx,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        results.push((isa, c));
    }
    for w in results.windows(2) {
        let d = w[0].1.rel_max_diff(&w[1].1);
        assert!(d < 1e-12, "{} vs {} differ by {d}", w[0].0, w[1].0);
    }
}

#[test]
fn serial_and_parallel_bitwise_consistent_structure() {
    // Not bit-identical in general (different summation splits), but well
    // within the analytic bound.
    let (m, n, k) = (150, 130, 170);
    let a = Matrix::<f64>::random(m, k, 7);
    let b = Matrix::<f64>::random(k, n, 8);
    let mut c1 = Matrix::<f64>::zeros(m, n);
    let mut c2 = Matrix::<f64>::zeros(m, n);
    let mut ctx = Workspace::<f64>::new();
    gemm(
        &mut ctx,
        1.0,
        &a.as_ref(),
        &b.as_ref(),
        0.0,
        &mut c1.as_mut(),
    )
    .unwrap();
    let par = ParGemmContext::<f64>::with_threads(6);
    execute(
        Some(&par),
        &mut Workspace::new(),
        None,
        1.0,
        &a.as_ref(),
        &b.as_ref(),
        0.0,
        &mut c2.as_mut(),
    )
    .unwrap();
    assert!(c1.rel_max_diff(&c2) < 1e-12);
}

#[test]
fn facade_reexports_work() {
    // The one-stop `ftgemm` API surface: types reachable, call compiles.
    let a = ftgemm::Matrix::<f64>::identity(8);
    let b = ftgemm::Matrix::<f64>::identity(8);
    let mut c = ftgemm::Matrix::<f64>::zeros(8, 8);
    let mut ctx = ftgemm::Workspace::<f64>::new();
    ftgemm::gemm(
        &mut ctx,
        1.0,
        &a.as_ref(),
        &b.as_ref(),
        0.0,
        &mut c.as_mut(),
    )
    .unwrap();
    assert_eq!(c.get(3, 3), 1.0);
}
