//! The library stand-ins: packed/blocked GEMMs pinned to distinct ISA tiers.

use ftgemm_abft::gemm;
use ftgemm_core::{GemmContext, IsaLevel, MatMut, MatRef, Result, Scalar};
use ftgemm_parallel::{par_gemm_with_ws, ParFtWorkspace, ParGemmContext};

/// Which comparator library a stand-in represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// BLIS 0.8.0 stand-in: portable micro-kernel.
    Blis,
    /// OpenBLAS 0.3.13 stand-in: AVX2+FMA micro-kernel.
    OpenBlas,
    /// Intel MKL 2020.2 stand-in: best available micro-kernel.
    Mkl,
}

impl Tier {
    /// ISA tier this stand-in is pinned to (clamped to what the CPU has).
    pub fn isa(self) -> IsaLevel {
        let best = IsaLevel::detect();
        let want = match self {
            Tier::Blis => IsaLevel::Portable,
            Tier::OpenBlas => IsaLevel::Avx2Fma,
            Tier::Mkl => best,
        };
        want.min(best)
    }

    /// Report name (the `*` marks a stand-in, see the crate docs).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Blis => "BLIS*",
            Tier::OpenBlas => "OpenBLAS*",
            Tier::Mkl => "MKL*",
        }
    }
}

/// Serial library stand-in: a packed cache-blocked GEMM at a pinned tier.
#[derive(Debug)]
pub struct ReferenceGemm<T: Scalar> {
    /// The tier this instance represents.
    pub tier: Tier,
    ctx: GemmContext<T>,
}

impl<T: Scalar> ReferenceGemm<T> {
    /// Stand-in for the given tier.
    pub fn new(tier: Tier) -> Self {
        ReferenceGemm {
            tier,
            ctx: GemmContext::with_isa(tier.isa()),
        }
    }

    /// BLIS stand-in.
    pub fn blis() -> Self {
        Self::new(Tier::Blis)
    }
    /// OpenBLAS stand-in.
    pub fn openblas() -> Self {
        Self::new(Tier::OpenBlas)
    }
    /// MKL stand-in.
    pub fn mkl() -> Self {
        Self::new(Tier::Mkl)
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        self.tier.name()
    }

    /// `C = alpha*A*B + beta*C`.
    pub fn run(
        &mut self,
        alpha: T,
        a: &MatRef<'_, T>,
        b: &MatRef<'_, T>,
        beta: T,
        c: &mut MatMut<'_, T>,
    ) -> Result<()> {
        gemm(&mut self.ctx, alpha, a, b, beta, c)
    }
}

/// Parallel library stand-in.
#[derive(Debug)]
pub struct ReferenceParGemm<T: Scalar> {
    /// The tier this instance represents.
    pub tier: Tier,
    ctx: ParGemmContext<T>,
    ws: ParFtWorkspace<T>,
}

impl<T: Scalar> ReferenceParGemm<T> {
    /// Stand-in for `tier` with `threads` workers.
    pub fn new(tier: Tier, threads: usize) -> Self {
        let ctx = ParGemmContext::with_threads_and_isa(threads, tier.isa());
        let ws = ParFtWorkspace::for_plain(&ctx);
        ReferenceParGemm { tier, ctx, ws }
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        self.tier.name()
    }

    /// `C = alpha*A*B + beta*C`, parallel.
    pub fn run(
        &mut self,
        alpha: T,
        a: &MatRef<'_, T>,
        b: &MatRef<'_, T>,
        beta: T,
        c: &mut MatMut<'_, T>,
    ) -> Result<()> {
        par_gemm_with_ws(&self.ctx, &mut self.ws, alpha, a, b, beta, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;

    #[test]
    fn all_tiers_correct_serial() {
        for tier in [Tier::Blis, Tier::OpenBlas, Tier::Mkl] {
            let mut g = ReferenceGemm::<f64>::new(tier);
            let a = Matrix::<f64>::random(65, 47, 1);
            let b = Matrix::<f64>::random(47, 53, 2);
            let mut c = Matrix::<f64>::random(65, 53, 3);
            let mut c_ref = c.clone();
            g.run(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut())
                .unwrap();
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "{}", g.name());
        }
    }

    #[test]
    fn all_tiers_correct_parallel() {
        for tier in [Tier::Blis, Tier::OpenBlas, Tier::Mkl] {
            let mut g = ReferenceParGemm::<f64>::new(tier, 4);
            let a = Matrix::<f64>::random(96, 60, 4);
            let b = Matrix::<f64>::random(60, 72, 5);
            let mut c = Matrix::<f64>::zeros(96, 72);
            let mut c_ref = Matrix::<f64>::zeros(96, 72);
            g.run(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut())
                .unwrap();
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "{}", g.name());
        }
    }

    #[test]
    fn tier_isa_clamped_to_cpu() {
        for tier in [Tier::Blis, Tier::OpenBlas, Tier::Mkl] {
            assert!(tier.isa() <= IsaLevel::detect());
        }
        assert_eq!(Tier::Blis.isa(), IsaLevel::Portable);
    }

    #[test]
    fn names_marked_as_stand_ins() {
        assert!(Tier::Mkl.name().ends_with('*'));
        assert!(Tier::Blis.name().ends_with('*'));
        assert!(Tier::OpenBlas.name().ends_with('*'));
    }
}
