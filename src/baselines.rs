//! Comparator GEMM implementations for the paper's evaluation.
//!
//! The paper benchmarks against Intel MKL 2020.2, OpenBLAS 0.3.13 and BLIS
//! 0.8.0. Those libraries are not linkable here (closed-source / external C
//! toolchains), so each is stood in by this workspace's own packed/blocked
//! GEMM pinned to a distinct optimization tier, preserving the *relative*
//! structure of the comparison (the paper mapping in `docs/ARCHITECTURE.md`,
//! "How this follows the paper", points here):
//!
//! | paper library | stand-in | tier |
//! |---|---|---|
//! | BLIS (slowest of the three in the paper) | [`ReferenceGemm::blis`] | packed + blocked, portable auto-vectorized micro-kernel |
//! | OpenBLAS | [`ReferenceGemm::openblas`] | packed + blocked, AVX2+FMA micro-kernel |
//! | MKL (strongest comparator) | [`ReferenceGemm::mkl`] | packed + blocked, best SIMD tier (AVX-512 when available) |
//!
//! Names carry a `*` suffix in reports to mark them as stand-ins.
//!
//! Also here, from [`ftgemm_core::reference`]:
//! * [`NaiveGemm`] — the triple-loop oracle (sanity floor);
//! * [`BlockedGemm`] — cache-blocked but unpacked/unvectorized (shows why
//!   packing matters).
//!
//! The "traditional" unfused-ABFT baseline of §2.2 is not a separate
//! implementation: it is the FT driver under `FusionConfig::UNFUSED`
//! (`ftgemm_abft::FtConfig::unfused()`), which is what `ftgemm-bench`'s
//! `paper` sweep runs.

use ftgemm_abft::parallel::ParGemmContext;
use ftgemm_abft::{execute, gemm, FtResult, Workspace};
use ftgemm_core::{IsaLevel, MatMut, MatRef, Scalar};

pub use ftgemm_core::reference::{BlockedGemm, NaiveGemm};

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

    /// Report name (the `*` marks a stand-in, see the module docs).
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
    ws: Workspace<T>,
}

impl<T: Scalar> ReferenceGemm<T> {
    /// Stand-in for the given tier.
    pub fn new(tier: Tier) -> Self {
        ReferenceGemm {
            tier,
            ws: Workspace::with_isa(tier.isa()),
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
    ) -> FtResult<()> {
        gemm(&mut self.ws, alpha, a, b, beta, c)
    }
}

/// Parallel library stand-in.
#[derive(Debug)]
pub struct ReferenceParGemm<T: Scalar> {
    /// The tier this instance represents.
    pub tier: Tier,
    ctx: ParGemmContext<T>,
    ws: Workspace<T>,
}

impl<T: Scalar> ReferenceParGemm<T> {
    /// Stand-in for `tier` with `threads` workers.
    pub fn new(tier: Tier, threads: usize) -> Self {
        let ctx = ParGemmContext::with_threads_and_isa(threads, tier.isa());
        let ws = Workspace::new();
        ReferenceParGemm { tier, ctx, ws }
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        self.tier.name()
    }

    /// `C = alpha*A*B + beta*C`, parallel: the plain execute path, on a
    /// workspace grown to the largest problem served.
    pub fn run(
        &mut self,
        alpha: T,
        a: &MatRef<'_, T>,
        b: &MatRef<'_, T>,
        beta: T,
        c: &mut MatMut<'_, T>,
    ) -> FtResult<()> {
        execute(Some(&self.ctx), &mut self.ws, None, alpha, a, b, beta, c).map(drop)
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
