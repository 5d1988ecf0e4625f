//! [`Exec`] targets and the reusable [`GemmPlan`].

use crate::api::op::GemmOp;
use ftgemm_abft::parallel::pool::ThreadPool;
use ftgemm_abft::parallel::ParGemmContext;
use ftgemm_abft::{execute, FtConfig, FtError, FtReport, FtResult, Setup, Workspace};
use ftgemm_core::{CoreError, IsaLevel, MatMut, MatRef, Scalar};
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
    /// Route by problem size through the flops cutoff a default
    /// [`GemmService`](crate::GemmService) routes by
    /// ([`DEFAULT_SMALL_FLOPS_CUTOFF`]): small problems plan serial, large
    /// ones plan onto a process-wide shared worker pool (created on first
    /// use, one per process — repeated `Auto` plans reuse it).
    Auto,
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

/// A validated, preallocated GEMM ready to execute many times.
///
/// Built by [`GemmOp::plan`]. The plan owns everything the hot path needs —
/// one [`Workspace`] (blocking parameters, packed buffers, checksum work
/// vectors, the `m x NC` rollback snapshot a `DetectCorrect` plan keeps when
/// `beta != 0`, none at `beta == 0`) and, for parallel plans, the `Arc` of
/// the thread pool it runs on as a team — so repeated
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
    /// Packed buffers and checksum state, sized at plan time.
    ws: Workspace<T>,
    /// The pool the workspace runs on as a team; `None`: the calling
    /// thread, a team of one.
    pool: Option<ParGemmContext<T>>,
}

impl<'a, T: Scalar> GemmPlan<'a, T> {
    /// Resolves `exec` to a team and sizes the workspace for it. Shape
    /// consistency of `A`/`B` was checked by [`GemmOp::plan`] before calling
    /// this.
    pub(crate) fn build(op: GemmOp<'a, T>, exec: Exec<'_, T>) -> FtResult<Self> {
        let (m, n, k) = op.dims();
        let cfg = op.resolve_config();
        let pool = match exec {
            Exec::Serial => None,
            Exec::Parallel(ctx) => Some(ctx.clone()),
            Exec::Auto => (op.flops() > DEFAULT_SMALL_FLOPS_CUTOFF).then(auto_parallel_ctx::<T>),
        };
        let mut ws = Workspace::new();
        let team = pool.as_ref().map_or(Setup::from(&ws), Setup::from);
        team.params.validate_for(&team.kernel)?;
        ws.ensure(team, [m, n, k], cfg.is_some());
        if let Some(cfg) = &cfg {
            ws.reserve_base(cfg, op.beta);
        }
        Ok(GemmPlan {
            a: op.a,
            b: op.b,
            m,
            n,
            k,
            alpha: op.alpha,
            beta: op.beta,
            cfg,
            ws,
            pool,
        })
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
        let (alpha, beta, ws) = (self.alpha, self.beta, &mut self.ws);
        execute(self.pool.as_ref(), ws, cfg, alpha, a, b, beta, c)
    }

    /// Problem dimensions `(m, n, k)` the plan is bound to.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    /// True when the plan executes on a worker pool (matrix-parallel).
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// True when the plan runs the fused-ABFT driver.
    pub fn is_protected(&self) -> bool {
        self.cfg.is_some()
    }

    /// Threads the plan executes on (1 for serial plans).
    pub fn nthreads(&self) -> usize {
        self.pool.as_ref().map_or(1, ParGemmContext::nthreads)
    }

    /// Stable address of a parallel plan's workspace (`None` for serial
    /// plans).
    ///
    /// Diagnostics hook: the address not changing across [`run`] calls
    /// proves the hot path reuses — rather than reallocates — its buffers
    /// (used by the allocation-stability tests).
    ///
    /// [`run`]: GemmPlan::run
    pub fn workspace_addr(&self) -> Option<usize> {
        self.pool.as_ref().map(|_| self.ws.base_addr())
    }
}
