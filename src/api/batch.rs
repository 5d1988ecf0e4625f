//! [`GemmBatch`]: the batched driver under the unified API roof.

use ftgemm_abft::parallel::{
    par_batch_ft_gemm_timed, BatchItem, BatchTiming, BatchWorkspace, ParGemmContext,
};
use ftgemm_abft::{FtReport, FtResult};
use ftgemm_core::Scalar;

/// A reusable batched-GEMM executor: many small problems distributed over
/// one parallel region, each item running the serial execute path
/// ([`execute`](ftgemm_abft::execute) on a team of one) on whichever
/// thread takes it,
/// in that thread's persistent [`Workspace`](ftgemm_abft::Workspace). A
/// protected item's fault pattern follows its rank among the protected
/// items this executor has run, not the thread, so a batch replays on a
/// fresh executor of any pool size.
///
/// This is the plan-style wrapper over
/// [`par_batch_ft_gemm_timed`]: build once (the per-thread workspaces are
/// allocated here), then [`run`](GemmBatch::run) any number of
/// heterogeneous batches. [`GemmService`](crate::GemmService) keeps the
/// equivalent state alive internally; `GemmBatch` is the same capability
/// for callers that own their batching loop.
pub struct GemmBatch<'a, T: Scalar> {
    ctx: &'a ParGemmContext<T>,
    ws: BatchWorkspace<T>,
}

impl<'a, T: Scalar> GemmBatch<'a, T> {
    /// Batch executor on `ctx`'s pool with freshly allocated per-thread
    /// workspaces.
    pub fn new(ctx: &'a ParGemmContext<T>) -> Self {
        GemmBatch {
            ws: BatchWorkspace::new(ctx),
            ctx,
        }
    }

    /// Executes every item across the pool; one result per item
    /// (index-aligned). A shape error in one item is confined to its slot.
    pub fn run(&self, items: &mut [BatchItem<'_, T>]) -> Vec<FtResult<FtReport>> {
        self.run_timed(items).0
    }

    /// [`run`](GemmBatch::run) plus per-thread occupancy measurement.
    pub fn run_timed(
        &self,
        items: &mut [BatchItem<'_, T>],
    ) -> (Vec<FtResult<FtReport>>, BatchTiming) {
        par_batch_ft_gemm_timed(self.ctx, &self.ws, items)
    }
}
