//! Uniform interface over every GEMM implementation the figures compare.
//!
//! The paper's five curves are MKL, OpenBLAS, BLIS, "FT-GEMM: Ori" (the
//! plain high-performance GEMM) and "FT-GEMM: FT" (with fused ABFT). The
//! harness adds the unfused-ABFT baseline for the overhead table.

use ftgemm_abft::{ft_gemm_with_ctx, FtConfig, FtError, FtGemmContext};
use ftgemm_baselines::{ReferenceGemm, ReferenceParGemm, Tier};
use ftgemm_core::{gemm, GemmContext, MatMut, MatRef};
use ftgemm_faults::FaultInjector;
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
    /// FT-GEMM with fused ABFT ("FT").
    Ft,
    /// Traditional unfused ABFT (overhead baseline).
    FtUnfused,
}

impl RunnerKind {
    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            RunnerKind::Blis => "BLIS*",
            RunnerKind::OpenBlas => "OpenBLAS*",
            RunnerKind::Mkl => "MKL*",
            RunnerKind::Ori => "FT-GEMM: Ori",
            RunnerKind::Ft => "FT-GEMM: FT",
            RunnerKind::FtUnfused => "ABFT unfused",
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
    FtSerial(RunnerKind, Box<FtGemmContext<f64>>, FtConfig),
    /// Parallel library stand-in.
    RefPar(RunnerKind, Box<ReferenceParGemm<f64>>),
    /// Parallel FT-GEMM on a held workspace: Ori (`None`) or FT (`Some`).
    Par(
        RunnerKind,
        ParGemmContext<f64>,
        Box<ParFtWorkspace<f64>>,
        Option<FtConfig>,
    ),
}

impl GemmRunner {
    fn par(kind: RunnerKind, threads: usize, cfg: Option<FtConfig>) -> Self {
        let ctx = ParGemmContext::with_threads(threads);
        let ws = Box::new(ParFtWorkspace::for_plain(&ctx));
        GemmRunner::Par(kind, ctx, ws, cfg)
    }
}

impl GemmRunner {
    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            GemmRunner::RefSerial(k, _)
            | GemmRunner::FtSerial(k, _, _)
            | GemmRunner::RefPar(k, _)
            | GemmRunner::Par(k, ..) => k.name(),
            GemmRunner::OriSerial(_) => RunnerKind::Ori.name(),
        }
    }

    /// Executes `C = A*B + C` (alpha = beta = 1, the paper's benchmark op).
    pub fn run(&mut self, a: &MatRef<'_, f64>, b: &MatRef<'_, f64>, c: &mut MatMut<'_, f64>) {
        match self {
            GemmRunner::RefSerial(_, g) => g.run(1.0, a, b, 1.0, c).expect("gemm failed"),
            GemmRunner::OriSerial(ctx) => gemm(ctx, 1.0, a, b, 1.0, c).expect("gemm failed"),
            GemmRunner::FtSerial(_, ctx, cfg) => {
                match ft_gemm_with_ctx(ctx, cfg, 1.0, a, b, 1.0, c) {
                    Ok(_) => {}
                    // Colliding injected-error patterns are *flagged*, never
                    // silent; for throughput sweeps the run still counts
                    // (the injector stats record the unrecoverable event).
                    Err(FtError::Unrecoverable { .. }) => {}
                    Err(e) => panic!("ft gemm failed: {e}"),
                }
            }
            GemmRunner::RefPar(_, g) => g.run(1.0, a, b, 1.0, c).expect("gemm failed"),
            GemmRunner::Par(_, ctx, ws, cfg) => {
                match run_parallel(ctx, ws, cfg.as_ref(), 1.0, a, b, 1.0, c) {
                    Ok(_) => {}
                    Err(FtError::Unrecoverable { .. }) => {}
                    Err(e) => panic!("parallel gemm failed: {e}"),
                }
            }
        }
    }
}

/// The five serial curves of Fig. 2(a)/(c). `injector` attaches error
/// injection to the FT runner only (the paper injects into its own kernels).
pub fn serial_suite(injector: Option<FaultInjector>) -> Vec<GemmRunner> {
    let ft_cfg = match injector {
        Some(inj) => FtConfig::with_injector(inj),
        None => FtConfig::default(),
    };
    vec![
        GemmRunner::RefSerial(RunnerKind::Mkl, ReferenceGemm::mkl()),
        GemmRunner::RefSerial(RunnerKind::OpenBlas, ReferenceGemm::openblas()),
        GemmRunner::RefSerial(RunnerKind::Blis, ReferenceGemm::blis()),
        GemmRunner::OriSerial(GemmContext::new()),
        GemmRunner::FtSerial(RunnerKind::Ft, Box::new(FtGemmContext::new()), ft_cfg),
    ]
}

/// The five parallel curves of Fig. 2(b)/(d).
pub fn parallel_suite(threads: usize, injector: Option<FaultInjector>) -> Vec<GemmRunner> {
    let ft_cfg = match injector {
        Some(inj) => FtConfig::with_injector(inj),
        None => FtConfig::default(),
    };
    let ref_par =
        |kind, tier| GemmRunner::RefPar(kind, Box::new(ReferenceParGemm::new(tier, threads)));
    vec![
        ref_par(RunnerKind::Mkl, Tier::Mkl),
        ref_par(RunnerKind::OpenBlas, Tier::OpenBlas),
        ref_par(RunnerKind::Blis, Tier::Blis),
        GemmRunner::par(RunnerKind::Ori, threads, None),
        GemmRunner::par(RunnerKind::Ft, threads, Some(ft_cfg)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;

    #[test]
    fn serial_suite_all_correct() {
        let mut suite = serial_suite(None);
        assert_eq!(suite.len(), 5);
        let a = Matrix::<f64>::random(40, 30, 1);
        let b = Matrix::<f64>::random(30, 35, 2);
        for r in &mut suite {
            let mut c = Matrix::<f64>::random(40, 35, 3);
            let mut c_ref = c.clone();
            r.run(&a.as_ref(), &b.as_ref(), &mut c.as_mut());
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "{}", r.name());
        }
    }

    #[test]
    fn parallel_suite_all_correct() {
        let mut suite = parallel_suite(2, None);
        let a = Matrix::<f64>::random(64, 48, 4);
        let b = Matrix::<f64>::random(48, 52, 5);
        for r in &mut suite {
            let mut c = Matrix::<f64>::random(64, 52, 6);
            let mut c_ref = c.clone();
            r.run(&a.as_ref(), &b.as_ref(), &mut c.as_mut());
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "{}", r.name());
        }
    }

    #[test]
    fn names_match_paper_legend() {
        let suite = serial_suite(None);
        let names: Vec<_> = suite.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec!["MKL*", "OpenBLAS*", "BLIS*", "FT-GEMM: Ori", "FT-GEMM: FT"]
        );
    }
}
