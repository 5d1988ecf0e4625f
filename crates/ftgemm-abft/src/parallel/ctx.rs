//! Parallel GEMM context: the pool plus kernel/blocking configuration.

use crate::parallel::pool::ThreadPool;
use crate::Setup;
use ftgemm_core::{BlockingParams, IsaLevel, Kernel, Scalar};
use std::sync::Arc;

/// Reusable parallel GEMM state: the worker pool and kernel selection.
///
/// The pool is `Arc`-shared so one set of workers serves both the plain and
/// fault-tolerant entry points across many calls (threads are persistent,
/// like an OpenMP runtime). A serving layer builds one context and runs
/// every request on it.
#[derive(Debug, Clone)]
pub struct ParGemmContext<T: Scalar> {
    pool: Arc<ThreadPool>,
    /// Selected micro-kernel (shared by every thread).
    pub kernel: Kernel<T>,
    /// Blocking parameters.
    pub params: BlockingParams,
}

impl<T: Scalar> ParGemmContext<T> {
    /// Context using every available core and the best ISA tier.
    pub fn new() -> Self {
        Self::with_threads(ftgemm_core::cpu::num_cpus())
    }

    /// Context with an explicit thread count.
    pub fn with_threads(nthreads: usize) -> Self {
        Self::with_threads_and_isa(nthreads, IsaLevel::detect())
    }

    /// Context with explicit thread count and ISA tier.
    pub fn with_threads_and_isa(nthreads: usize, isa: IsaLevel) -> Self {
        Self::with_pool(Arc::new(ThreadPool::new(nthreads)), isa)
    }

    /// Context sharing an existing pool.
    pub fn with_pool(pool: Arc<ThreadPool>, isa: IsaLevel) -> Self {
        let Setup { kernel, params, .. } = Setup::for_isa(isa, pool.nthreads());
        ParGemmContext {
            pool,
            kernel,
            params,
        }
    }

    /// A one-thread context running this one's kernel and blocking: its
    /// regions run inline on the calling thread, and building it spawns
    /// no thread.
    pub fn solo(&self) -> Self {
        ParGemmContext {
            pool: Arc::new(ThreadPool::new(1)),
            kernel: self.kernel,
            params: self.params,
        }
    }

    /// The worker pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Number of threads per region.
    pub fn nthreads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Overrides blocking parameters (validated against the kernel tile).
    pub fn set_params(&mut self, params: BlockingParams) -> ftgemm_core::Result<()> {
        params.validate_for(&self.kernel)?;
        self.params = params;
        Ok(())
    }
}

impl<T: Scalar> Default for ParGemmContext<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A pool context's team: its kernel, its blocking and every pool thread —
/// what a [`Workspace`](crate::Workspace) is sized for and run with.
impl<T: Scalar> From<&ParGemmContext<T>> for Setup<T> {
    fn from(ctx: &ParGemmContext<T>) -> Self {
        Setup {
            kernel: ctx.kernel,
            params: ctx.params,
            nthreads: ctx.nthreads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_all_cores() {
        let ctx = ParGemmContext::<f64>::new();
        assert_eq!(ctx.nthreads(), ftgemm_core::cpu::num_cpus());
    }

    #[test]
    fn explicit_thread_count() {
        let ctx = ParGemmContext::<f64>::with_threads(3);
        assert_eq!(ctx.nthreads(), 3);
    }

    #[test]
    fn pool_sharing() {
        let a = ParGemmContext::<f64>::with_threads(2);
        let b = ParGemmContext::<f32>::with_pool(Arc::new(ThreadPool::new(2)), IsaLevel::Portable);
        assert_eq!(a.nthreads(), b.nthreads());
    }

    #[test]
    fn set_params_validates() {
        let mut ctx = ParGemmContext::<f64>::with_threads(1);
        let bad = BlockingParams {
            mr: ctx.kernel.mr + 1,
            nr: ctx.kernel.nr,
            mc: 64,
            nc: 64,
            kc: 64,
        };
        assert!(ctx.set_params(bad).is_err());
    }
}
