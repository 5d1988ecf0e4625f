//! Parallel GEMM context: the pool plus kernel/blocking configuration.

use ftgemm_abft::Setup;
use ftgemm_core::{BlockingParams, CacheInfo, IsaLevel, Kernel, Scalar};
use ftgemm_pool::{ThreadPool, Topology};
use std::sync::Arc;

/// Reusable parallel GEMM state: the worker pool and kernel selection.
///
/// The pool is `Arc`-shared so one set of workers serves both the plain and
/// fault-tolerant entry points across many calls (threads are persistent,
/// like an OpenMP runtime).
///
/// A context can be **node-scoped** ([`ParGemmContext::for_node_threads`]):
/// its pool is sized to one NUMA node's worker subset and
/// [`node`](ParGemmContext::node) reports which domain it serves. The
/// serving layer builds one such view per node so a request's compute,
/// packing buffers, and worker threads stay on the node its operands live
/// on; machine-wide contexts report `node() == None`.
#[derive(Debug, Clone)]
pub struct ParGemmContext<T: Scalar> {
    pool: Arc<ThreadPool>,
    /// Selected micro-kernel (shared by every thread).
    pub kernel: Kernel<T>,
    /// Blocking parameters.
    pub params: BlockingParams,
    /// The memory domain this context's workers are pinned to, when
    /// node-scoped.
    node: Option<usize>,
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

    /// Machine-wide context whose pool spans `topology` (one thread per
    /// core, worker subsets pinned per node).
    pub fn with_topology(topology: &Topology) -> Self {
        Self::with_pool(
            Arc::new(ThreadPool::with_topology(topology)),
            IsaLevel::detect(),
        )
    }

    /// Node-scoped worker view: a context whose `nthreads`-thread pool
    /// serves exactly one memory domain. The pool's threads *are* the
    /// node's worker subset — each worker reports the real `node` through
    /// [`WorkerCtx::node`](ftgemm_pool::WorkerCtx::node)
    /// (`PoolPartition::for_node`), so node-keyed packing or affinity
    /// logic attributes them correctly — and the context records it for
    /// schedulers and stats.
    pub fn for_node_threads(node: usize, nthreads: usize) -> Self {
        let pool = ThreadPool::with_partition(
            nthreads,
            ftgemm_pool::PoolPartition::for_node(node, nthreads),
        );
        let mut ctx = Self::with_pool(Arc::new(pool), IsaLevel::detect());
        ctx.node = Some(node);
        ctx
    }

    /// Context with explicit thread count and ISA tier.
    pub fn with_threads_and_isa(nthreads: usize, isa: IsaLevel) -> Self {
        Self::with_pool(Arc::new(ThreadPool::new(nthreads)), isa)
    }

    /// Context sharing an existing pool.
    pub fn with_pool(pool: Arc<ThreadPool>, isa: IsaLevel) -> Self {
        let kernel = ftgemm_core::select_kernel::<T>(isa);
        let params = BlockingParams::derive::<T>(&CacheInfo::detect(), kernel.mr, kernel.nr);
        ParGemmContext {
            pool,
            kernel,
            params,
            node: None,
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

    /// The memory domain this context is scoped to (`None` for
    /// machine-wide contexts).
    pub fn node(&self) -> Option<usize> {
        self.node
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
/// what a [`Workspace`](ftgemm_abft::Workspace) is sized for and run with.
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
    fn node_scoped_view_reports_node() {
        let machine = ParGemmContext::<f64>::with_threads(2);
        assert_eq!(machine.node(), None);
        let scoped = ParGemmContext::<f64>::for_node_threads(3, 2);
        assert_eq!(scoped.node(), Some(3));
        assert_eq!(scoped.nthreads(), 2);
        // Kernel selection is node-independent.
        assert_eq!(scoped.kernel.isa, machine.kernel.isa);
        // Workers of the node-scoped pool report the real node id.
        let seen = std::sync::atomic::AtomicUsize::new(usize::MAX);
        scoped.pool().run(|ctx| {
            assert_eq!(ctx.node(), 3);
            seen.store(ctx.node(), std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn topology_context_spans_all_nodes() {
        let ctx = ParGemmContext::<f64>::with_topology(&Topology::synthetic(2, 2));
        assert_eq!(ctx.nthreads(), 4);
        assert_eq!(ctx.pool().num_nodes(), 2);
        assert_eq!(ctx.node(), None);
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
