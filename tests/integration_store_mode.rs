//! `beta == 0` writes `C` once: the first depth panel of the loop nest runs
//! the micro-kernel in store mode and nothing zero-fills `C` in front of it.
//! All four entries, thread counts 1 to 3, blocks small enough that `jc`,
//! `pc` and `ic` all iterate.
//!
//! Its own test binary, not part of `integration_ft.rs`: every
//! `par_ft_gemm_with_ws` call draws from one process-wide injection nonce, and
//! `integration_ft.rs::parallel_campaign_many_seeds` asserts "all corrected"
//! on error patterns that depend on how many calls came before its own. The
//! clean calls below, run beside it, moved it onto another pattern in a
//! quarter of release runs.

use ftgemm::abft::{ft_gemm_with_ctx, FtGemmContext, FtReport};
use ftgemm::core::{BlockingParams, GemmContext, Matrix};
use ftgemm::parallel::{par_ft_gemm_with_ws, par_gemm_with_ws, ParFtWorkspace, ParGemmContext};

/// A context with tiny blocks (`mc = 2 mr`, `nc = 4 nr`, `kc = 16`).
fn small_block_ctx() -> FtGemmContext<f64> {
    let mut core = GemmContext::<f64>::new();
    let kern = core.kernel;
    core.set_params(BlockingParams {
        mr: kern.mr,
        nr: kern.nr,
        mc: kern.mr * 2,
        nc: kern.nr * 4,
        kc: 16,
    })
    .unwrap();
    FtGemmContext::from_core(core)
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
    let small = small_block_ctx().core.params;

    let mut plain = small_block_ctx().core;
    edit(&mut plain.params);
    let mut protected = small_block_ctx();
    edit(&mut protected.core.params);
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
                let (a, b, c) = (a.as_ref(), b.as_ref(), &mut c.as_mut());
                ft_gemm_with_ctx(&mut protected, &serial_cfg, alpha, &a, &b, beta, c)
                    .map_err(|e| format!("{e:?}"))
            }),
        ),
    ];
    for threads in 1..=3 {
        let mut ctx = ParGemmContext::<f64>::with_threads(threads);
        ctx.set_params(small).unwrap();
        let mut ws = ParFtWorkspace::for_problem(&ctx, m, n, k);
        let mut ft_ws = ParFtWorkspace::for_problem(&ctx, m, n, k);
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
    let p = small_block_ctx().core.params;
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
