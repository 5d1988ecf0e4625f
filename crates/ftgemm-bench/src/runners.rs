//! Uniform interface over every GEMM implementation the figures compare.
//!
//! The paper's five curves are MKL, OpenBLAS, BLIS, "FT-GEMM: Ori" (the
//! plain high-performance GEMM) and "FT-GEMM: FT" (with fused ABFT). The
//! `paper` binary adds FT runners under other [`FtConfig`]s (unfused,
//! partially fused, injected) through [`GemmRunner::ft_serial`] and
//! [`GemmRunner::par`].

use ftgemm_abft::{ft_gemm_with_ctx, gemm, FtConfig, FtError, FtGemmContext, FtPolicy};
use ftgemm_baselines::{ReferenceGemm, ReferenceParGemm, Tier};
use ftgemm_core::{GemmContext, MatMut, MatRef};
use ftgemm_parallel::{run_parallel, ParFtWorkspace, ParGemmContext};

/// Which implementation a runner wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerKind {
    /// BLIS stand-in.
    Blis,
    /// OpenBLAS stand-in.
    OpenBlas,
    /// MKL stand-in.
    Mkl,
    /// FT-GEMM without fault tolerance ("Ori").
    Ori,
    /// FT-GEMM with ABFT ("FT").
    Ft,
}

impl RunnerKind {
    /// Display name matching the paper's legend.
    pub const fn name(self) -> &'static str {
        match self {
            RunnerKind::Blis => "BLIS*",
            RunnerKind::OpenBlas => "OpenBLAS*",
            RunnerKind::Mkl => "MKL*",
            RunnerKind::Ori => "FT-GEMM: Ori",
            RunnerKind::Ft => "FT-GEMM: FT",
        }
    }
}

/// A ready-to-time GEMM implementation (DGEMM, as in the paper).
pub enum GemmRunner {
    /// Serial library stand-in.
    RefSerial(RunnerKind, ReferenceGemm<f64>),
    /// Serial FT-GEMM: Ori.
    OriSerial(GemmContext<f64>),
    /// Serial FT-GEMM: FT (fused or unfused per config).
    FtSerial(Box<FtGemmContext<f64>>, FtConfig),
    /// Parallel library stand-in.
    RefPar(RunnerKind, Box<ReferenceParGemm<f64>>),
    /// Parallel FT-GEMM on a held workspace: Ori (`None`) or FT (`Some`).
    Par(
        ParGemmContext<f64>,
        Box<ParFtWorkspace<f64>>,
        Option<FtConfig>,
    ),
}

impl GemmRunner {
    /// Serial FT-GEMM under `cfg`, on its own context.
    pub fn ft_serial(cfg: FtConfig) -> Self {
        GemmRunner::FtSerial(Box::new(FtGemmContext::new()), cfg)
    }

    /// Parallel FT-GEMM on its own pool and workspace: Ori (`None`) or FT
    /// under `cfg`.
    pub fn par(threads: usize, cfg: Option<FtConfig>) -> Self {
        let ctx = ParGemmContext::with_threads(threads);
        let ws = Box::new(ParFtWorkspace::for_plain(&ctx));
        GemmRunner::Par(ctx, ws, cfg)
    }

    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            GemmRunner::RefSerial(k, _) | GemmRunner::RefPar(k, _) => k.name(),
            GemmRunner::OriSerial(_) | GemmRunner::Par(_, _, None) => RunnerKind::Ori.name(),
            GemmRunner::FtSerial(..) | GemmRunner::Par(_, _, Some(_)) => RunnerKind::Ft.name(),
        }
    }

    /// Executes `C = A*B + beta*C` (alpha = 1). The paper's benchmark op is
    /// `beta = 1`; `beta = 0` is the path that writes `C` once, through the
    /// store-mode micro-kernel, and what the repo benchmark and the serving
    /// default run.
    pub fn run(
        &mut self,
        a: &MatRef<'_, f64>,
        b: &MatRef<'_, f64>,
        beta: f64,
        c: &mut MatMut<'_, f64>,
    ) {
        match self {
            GemmRunner::RefSerial(_, g) => g.run(1.0, a, b, beta, c).expect("gemm failed"),
            GemmRunner::OriSerial(ctx) => gemm(ctx, 1.0, a, b, beta, c).expect("gemm failed"),
            GemmRunner::FtSerial(ctx, cfg) => {
                match ft_gemm_with_ctx(ctx, cfg, 1.0, a, b, beta, c) {
                    Ok(_) => {}
                    // Colliding injected-error patterns are *flagged*, never
                    // silent; for throughput sweeps the run still counts
                    // (the injector stats record the unrecoverable event).
                    Err(FtError::Unrecoverable { .. }) => {}
                    Err(e) => panic!("ft gemm failed: {e}"),
                }
            }
            GemmRunner::RefPar(_, g) => g.run(1.0, a, b, beta, c).expect("gemm failed"),
            GemmRunner::Par(ctx, ws, cfg) => {
                match run_parallel(ctx, ws, cfg.as_ref(), 1.0, a, b, beta, c) {
                    Ok(_) => {}
                    Err(FtError::Unrecoverable { .. }) => {}
                    Err(e) => panic!("parallel gemm failed: {e}"),
                }
            }
        }
    }
}

/// The configuration every "FT" curve starts from: the default policy
/// (`DetectCorrect`), which is what default users and the repo benchmark
/// run — not `FtConfig::default()`, whose `ReportOnly` keeps no rollback
/// state and would leave that cost out of the figures.
pub fn ft_config() -> FtConfig {
    FtPolicy::default().into()
}

/// The five serial curves of Fig. 2(a), clean.
pub fn serial_suite() -> Vec<GemmRunner> {
    vec![
        GemmRunner::RefSerial(RunnerKind::Mkl, ReferenceGemm::mkl()),
        GemmRunner::RefSerial(RunnerKind::OpenBlas, ReferenceGemm::openblas()),
        GemmRunner::RefSerial(RunnerKind::Blis, ReferenceGemm::blis()),
        GemmRunner::OriSerial(GemmContext::new()),
        GemmRunner::ft_serial(ft_config()),
    ]
}

/// The five parallel curves of Fig. 2(b), clean.
pub fn parallel_suite(threads: usize) -> Vec<GemmRunner> {
    let ref_par =
        |kind, tier| GemmRunner::RefPar(kind, Box::new(ReferenceParGemm::new(tier, threads)));
    vec![
        ref_par(RunnerKind::Mkl, Tier::Mkl),
        ref_par(RunnerKind::OpenBlas, Tier::OpenBlas),
        ref_par(RunnerKind::Blis, Tier::Blis),
        GemmRunner::par(threads, None),
        GemmRunner::par(threads, Some(ft_config())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;

    #[test]
    fn serial_suite_all_correct() {
        let mut suite = serial_suite();
        assert_eq!(suite.len(), 5);
        let a = Matrix::<f64>::random(40, 30, 1);
        let b = Matrix::<f64>::random(30, 35, 2);
        for r in &mut suite {
            for beta in [1.0, 0.0] {
                let mut c = Matrix::<f64>::random(40, 35, 3);
                let mut c_ref = c.clone();
                r.run(&a.as_ref(), &b.as_ref(), beta, &mut c.as_mut());
                naive_gemm(1.0, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
                assert!(c.rel_max_diff(&c_ref) < 1e-10, "{} beta {beta}", r.name());
            }
        }
    }

    #[test]
    fn parallel_suite_all_correct() {
        let mut suite = parallel_suite(2);
        let a = Matrix::<f64>::random(64, 48, 4);
        let b = Matrix::<f64>::random(48, 52, 5);
        for r in &mut suite {
            let mut c = Matrix::<f64>::random(64, 52, 6);
            let mut c_ref = c.clone();
            r.run(&a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut());
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "{}", r.name());
        }
    }

    #[test]
    fn names_match_paper_legend() {
        let suite = serial_suite();
        let names: Vec<_> = suite.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec!["MKL*", "OpenBLAS*", "BLIS*", "FT-GEMM: Ori", "FT-GEMM: FT"]
        );
    }
}
