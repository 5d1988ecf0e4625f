//! [`Exec`] targets and the reusable [`GemmPlan`].

use crate::api::op::GemmOp;
use ftgemm_abft::{run_serial, FtConfig, FtError, FtGemmContext, FtReport, FtResult};
use ftgemm_core::{CoreError, IsaLevel, MatMut, MatRef, Scalar};
use ftgemm_parallel::{run_parallel, ParFtWorkspace, ParGemmContext};
use ftgemm_pool::ThreadPool;
use ftgemm_serve::DEFAULT_SMALL_FLOPS_CUTOFF;
use std::sync::{Arc, OnceLock};

/// Where a planned GEMM executes.
#[derive(Debug, Clone, Copy)]
pub enum Exec<'p, T: Scalar> {
    /// The loop nest on the calling thread (best for small problems — no
    /// region, nobody to wait for at a barrier).
    Serial,
    /// The same nest on the caller's pool, matrix-parallel. The context is
    /// `Arc`-backed, so the plan clones it cheaply and shares the workers.
    Parallel(&'p ParGemmContext<T>),
    /// Route by problem size through the *seed* flops cutoff
    /// [`GemmService`](crate::GemmService) starts from
    /// ([`DEFAULT_SMALL_FLOPS_CUTOFF`]): small problems plan serial, large
    /// ones plan onto a process-wide shared worker pool (created on first
    /// use, one per process — repeated `Auto` plans reuse it).
    Auto,
    /// [`Exec::Auto`] with a caller-supplied cutoff instead of the default
    /// seed — the hook for carrying a served workload's *learned* crossover
    /// into planned one-shots:
    /// `op.plan(Exec::AutoAt(service.current_cutoff()))` routes this plan
    /// by the value an adaptive
    /// [`GemmService`](crate::GemmService) converged to on this machine.
    AutoAt(u64),
}

/// The process-wide pool backing [`Exec::Auto`] for large problems. Shared
/// across scalar types (the pool is type-erased; kernels are per-plan).
static AUTO_POOL: OnceLock<Arc<ThreadPool>> = OnceLock::new();

fn auto_parallel_ctx<T: Scalar>() -> ParGemmContext<T> {
    let pool = Arc::clone(
        AUTO_POOL.get_or_init(|| Arc::new(ThreadPool::new(ftgemm_core::cpu::num_cpus()))),
    );
    ParGemmContext::with_pool(pool, IsaLevel::detect())
}

/// How a [`GemmPlan`] executes — the resolved form of [`Exec`], workspace
/// included.
enum Backend<T: Scalar> {
    Serial(Box<FtGemmContext<T>>),
    Parallel {
        ctx: ParGemmContext<T>,
        ws: Box<ParFtWorkspace<T>>,
    },
}

impl<T: Scalar> std::fmt::Debug for Backend<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Serial(_) => f.write_str("Serial"),
            Backend::Parallel { ctx, .. } => {
                write!(f, "Parallel({} threads)", ctx.nthreads())
            }
        }
    }
}

/// A validated, preallocated GEMM ready to execute many times.
///
/// Built by [`GemmOp::plan`]. The plan owns everything the hot path needs —
/// blocking parameters, packing scratch, checksum work vectors, the
/// `m x NC` rollback snapshot a `DetectCorrect` plan keeps when
/// `beta != 0` (none at `beta == 0`), and (for parallel plans) the shared
/// reduction workspace and the `Arc` of the thread pool — so repeated
/// [`run`](GemmPlan::run) calls perform **zero heap allocation** (pinned by
/// `tests/plan_alloc.rs`).
///
/// The plan borrows the op's operands; [`run_with`](GemmPlan::run_with)
/// substitutes different same-shaped operands without replanning.
#[derive(Debug)]
pub struct GemmPlan<'a, T: Scalar> {
    a: MatRef<'a, T>,
    b: MatRef<'a, T>,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    beta: T,
    cfg: Option<FtConfig>,
    backend: Backend<T>,
}

impl<'a, T: Scalar> GemmPlan<'a, T> {
    /// Resolves `exec`, preallocates workspaces. Shape consistency of
    /// `A`/`B` was checked by [`GemmOp::plan`] before calling this.
    pub(crate) fn build(op: GemmOp<'a, T>, exec: Exec<'_, T>) -> FtResult<Self> {
        let (m, n, k) = op.dims();
        let cfg = op.resolve_config();

        let backend = match exec {
            Exec::Serial => Self::serial_backend(&cfg, m, n, k, op.beta)?,
            Exec::Parallel(ctx) => Self::parallel_backend(ctx.clone(), &cfg, m, n, k, op.beta)?,
            Exec::Auto | Exec::AutoAt(_) => {
                let cutoff = match exec {
                    Exec::AutoAt(cutoff) => cutoff,
                    _ => DEFAULT_SMALL_FLOPS_CUTOFF,
                };
                if op.flops() <= cutoff {
                    Self::serial_backend(&cfg, m, n, k, op.beta)?
                } else {
                    Self::parallel_backend(auto_parallel_ctx::<T>(), &cfg, m, n, k, op.beta)?
                }
            }
        };

        Ok(GemmPlan {
            a: op.a,
            b: op.b,
            m,
            n,
            k,
            alpha: op.alpha,
            beta: op.beta,
            cfg,
            backend,
        })
    }

    fn serial_backend(
        cfg: &Option<FtConfig>,
        m: usize,
        n: usize,
        k: usize,
        beta: T,
    ) -> FtResult<Backend<T>> {
        let mut ctx = FtGemmContext::<T>::new();
        ctx.reserve(cfg.as_ref(), m, n, k, beta)?;
        Ok(Backend::Serial(Box::new(ctx)))
    }

    fn parallel_backend(
        ctx: ParGemmContext<T>,
        cfg: &Option<FtConfig>,
        m: usize,
        n: usize,
        k: usize,
        beta: T,
    ) -> FtResult<Backend<T>> {
        ctx.params.validate().map_err(FtError::Core)?;
        // Unprotected plans only need the packed B~ / per-thread A~ slots;
        // the checksum vectors and reduction lanes stay zero-capacity.
        let ws = Box::new(match cfg {
            Some(cfg) => {
                let mut ws = ParFtWorkspace::for_problem(&ctx, m, n, k);
                ws.reserve_base(cfg, beta);
                ws
            }
            None => ParFtWorkspace::for_plain(&ctx),
        });
        Ok(Backend::Parallel { ctx, ws })
    }

    /// Executes the planned GEMM into `c` using the operands the plan was
    /// built over: `c = alpha * A * B + beta * c`. Allocation-free.
    pub fn run(&mut self, c: &mut MatMut<'_, T>) -> FtResult<FtReport> {
        let (a, b) = (self.a, self.b);
        self.dispatch(&a, &b, c)
    }

    /// Executes the plan over *different* operands of the exact shape the
    /// plan was built for (workspaces are shape-bound, operand values are
    /// not). Rejects any other shape.
    pub fn run_with(
        &mut self,
        a: &MatRef<'_, T>,
        b: &MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
    ) -> FtResult<FtReport> {
        if a.nrows() != self.m || a.ncols() != self.k || b.nrows() != self.k || b.ncols() != self.n
        {
            return Err(FtError::Core(CoreError::ShapeMismatch {
                context: format!(
                    "plan is {}x{}x{} but operands are A {}x{}, B {}x{}",
                    self.m,
                    self.n,
                    self.k,
                    a.nrows(),
                    a.ncols(),
                    b.nrows(),
                    b.ncols()
                ),
            }));
        }
        self.dispatch(a, b, c)
    }

    fn dispatch(
        &mut self,
        a: &MatRef<'_, T>,
        b: &MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
    ) -> FtResult<FtReport> {
        if c.nrows() != self.m || c.ncols() != self.n {
            return Err(FtError::Core(CoreError::ShapeMismatch {
                context: format!(
                    "C is {}x{} but the plan computes {}x{}",
                    c.nrows(),
                    c.ncols(),
                    self.m,
                    self.n
                ),
            }));
        }
        let cfg = self.cfg.as_ref();
        match &mut self.backend {
            Backend::Serial(ctx) => run_serial(ctx, cfg, self.alpha, a, b, self.beta, c),
            Backend::Parallel { ctx, ws } => {
                run_parallel(ctx, ws, cfg, self.alpha, a, b, self.beta, c)
            }
        }
    }

    /// Problem dimensions `(m, n, k)` the plan is bound to.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    /// True when the plan executes on a worker pool (matrix-parallel).
    pub fn is_parallel(&self) -> bool {
        matches!(self.backend, Backend::Parallel { .. })
    }

    /// True when the plan runs the fused-ABFT driver.
    pub fn is_protected(&self) -> bool {
        self.cfg.is_some()
    }

    /// Threads the plan executes on (1 for serial plans).
    pub fn nthreads(&self) -> usize {
        match &self.backend {
            Backend::Serial(_) => 1,
            Backend::Parallel { ctx, .. } => ctx.nthreads(),
        }
    }

    /// Stable address of the parallel workspace (`None` for serial plans).
    ///
    /// Diagnostics hook: the address not changing across [`run`] calls
    /// proves the hot path reuses — rather than reallocates — its buffers
    /// (used by the allocation-stability tests).
    ///
    /// [`run`]: GemmPlan::run
    pub fn workspace_addr(&self) -> Option<usize> {
        match &self.backend {
            Backend::Serial(_) => None,
            Backend::Parallel { ws, .. } => Some(ws.base_addr()),
        }
    }
}
