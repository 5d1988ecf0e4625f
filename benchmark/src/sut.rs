//! The adapter: every call the benchmark makes into the program under test
//! goes through this file, and nothing else in the benchmark names an
//! `ftgemm` item.
//!
//! It uses the surfaces the ROADMAP keeps through consolidation — the
//! facade (`GemmOp::plan` → `GemmPlan::run`), `GemmService::submit_streamed`,
//! `NetServer` / `NetClient`, and for the layer ladder the `_with_ctx` /
//! `_with_ws` driver entry points and the public kernel, packing, checksum,
//! pool and codec functions — and none of the allocating convenience
//! wrappers (`ft_gemm`, `par_gemm`, `par_ft_gemm`) it plans to delete.
//!
//! Nothing here times anything: these are the calls, `workloads.rs` and
//! `probes.rs` hold the clocks.

use crate::stats::Arm;
use ftgemm::abft::{checksum, corrector, ft_gemm_with_ctx, FtConfig, FtGemmContext};
use ftgemm::baselines::ReferenceGemm;
use ftgemm::core::{pack, select_kernel, AlignedVec, CacheInfo, IsaLevel, Kernel, Scalar};
use ftgemm::faults::SiteStream;
use ftgemm::net::{codec, CompletionFrame, CompletionOk, Frame, OperandRef, SubmitFrame};
use ftgemm::parallel::{par_batch_ft_gemm_timed, par_ft_gemm_with_ws, par_gemm_with_ws};
use ftgemm::pool::ThreadPool;
use ftgemm::serve::{completion_channel, CompletionSink, Completions, DEFAULT_SMALL_FLOPS_CUTOFF};
use ftgemm::{
    BatchItem, BatchWorkspace, Exec, FaultInjector, FtPolicy, FtReport, GemmContext, GemmOp,
    GemmPlan, GemmRequest, GemmService, Matrix, NetClient, NetServer, NetServerConfig, NetSubmit,
    ParFtWorkspace, ParGemmContext, RoutingPolicy, ServiceConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;

// ------------------------------------------------------------- matrices --

/// An owned column-major f64 matrix in the program's own type, filled by
/// the benchmark's generator and read back as a plain slice by its checks.
#[derive(Debug, Clone)]
pub struct Mat(Matrix<f64>);

impl Mat {
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat(Matrix::zeros(rows, cols))
    }

    pub fn rows(&self) -> usize {
        self.0.nrows()
    }

    pub fn cols(&self) -> usize {
        self.0.ncols()
    }

    pub fn data(&self) -> &[f64] {
        self.0.as_slice()
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        self.0.as_mut_slice()
    }

    pub fn share(self) -> SharedMat {
        SharedMat(Arc::new(self.0))
    }
}

/// A read-only operand shared with a service by reference count.
#[derive(Debug, Clone)]
pub struct SharedMat(Arc<Matrix<f64>>);

// ----------------------------------------------------------------- host --

/// What the program detected about the machine; part of every record.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub isa: String,
    pub kernel_f64: &'static str,
    pub l1d: usize,
    pub l2: usize,
    pub l3: usize,
    pub mr: usize,
    pub nr: usize,
    pub mc: usize,
    pub nc: usize,
    pub kc: usize,
}

pub fn host() -> Host {
    let ctx = GemmContext::<f64>::new();
    let cache = CacheInfo::detect();
    Host {
        nproc: ftgemm::core::cpu::num_cpus(),
        isa: IsaLevel::detect().to_string(),
        kernel_f64: ctx.kernel.name,
        l1d: cache.l1d,
        l2: cache.l2,
        l3: cache.l3,
        mr: ctx.params.mr,
        nr: ctx.params.nr,
        mc: ctx.params.mc,
        nc: ctx.params.nc,
        kc: ctx.params.kc,
    }
}

// --------------------------------------------------- policy and reports --

fn policy(arm: Arm) -> FtPolicy {
    match arm {
        Arm::Off => FtPolicy::Off,
        Arm::Ft | Arm::Inj => FtPolicy::DetectCorrect,
    }
}

/// The program's per-operation fault-tolerance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpReport {
    pub verifications: u64,
    pub detected: u64,
    pub corrected: u64,
    pub injected: u64,
    pub retried_panels: u64,
}

impl From<FtReport> for OpReport {
    fn from(r: FtReport) -> Self {
        OpReport {
            verifications: r.verifications as u64,
            detected: r.detected as u64,
            corrected: r.corrected as u64,
            injected: r.injected as u64,
            retried_panels: r.retried_panels as u64,
        }
    }
}

impl OpReport {
    pub fn absorb(&mut self, o: OpReport) {
        self.verifications += o.verifications;
        self.detected += o.detected;
        self.corrected += o.corrected;
        self.injected += o.injected;
        self.retried_panels += o.retried_panels;
    }
}

pub type OpResult = Result<OpReport, String>;

/// A counted source-level fault injector (`count` errors per operation,
/// the repo's benchmark error model).
#[derive(Debug, Clone)]
pub struct Injector(FaultInjector);

impl Injector {
    pub fn counted(seed: u64, count: usize) -> Injector {
        Injector(FaultInjector::counted(seed, count))
    }

    /// Errors the injector itself says it fired, over its lifetime.
    pub fn injected(&self) -> u64 {
        self.0.stats().injected()
    }
}

// --------------------------------------------------- facade (lib_* arms) --

/// A caller-owned worker pool for `Exec::Parallel`.
pub struct ParCtx(ParGemmContext<f64>);

impl ParCtx {
    pub fn with_threads(threads: usize) -> ParCtx {
        ParCtx(ParGemmContext::with_threads(threads))
    }

    pub fn threads(&self) -> usize {
        self.0.nthreads()
    }
}

#[derive(Clone, Copy)]
pub enum Where<'p> {
    Serial,
    Parallel(&'p ParCtx),
}

/// `GemmOp::new(a, b).ft(policy)[.injector(..)].plan(exec)`, reused for
/// every operation of an arm.
pub struct Plan<'a>(GemmPlan<'a, f64>);

impl<'a> Plan<'a> {
    pub fn build(
        a: &'a Mat,
        b: &'a Mat,
        arm: Arm,
        injector: Option<&Injector>,
        exec: Where<'_>,
    ) -> Result<Plan<'a>, String> {
        let mut op = GemmOp::new(&a.0, &b.0).ft(policy(arm));
        if let Some(inj) = injector {
            op = op.injector(inj.0.clone());
        }
        let exec = match exec {
            Where::Serial => Exec::Serial,
            Where::Parallel(ctx) => Exec::Parallel(&ctx.0),
        };
        op.plan(exec).map(Plan).map_err(|e| e.to_string())
    }

    /// `C = A·B` into `c`.
    pub fn run(&mut self, c: &mut Mat) -> OpResult {
        self.0
            .run(&mut c.0.as_mut())
            .map(OpReport::from)
            .map_err(|e| e.to_string())
    }
}

// ------------------------------------------------ service (serve_* arms) --

/// Counters read from `StatsSnapshot`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub injected: u64,
    pub batch_wall_s: f64,
    pub batch_busy_s: f64,
    pub pool_regions: u64,
}

/// One finished request.
pub struct Done {
    pub id: u64,
    pub result: Result<(Mat, OpReport), String>,
    /// Whether the request took the batched path.
    pub batched: bool,
}

fn service_config(threads: usize, obs: bool) -> ServiceConfig {
    ServiceConfig {
        threads,
        routing: RoutingPolicy::Fixed(DEFAULT_SMALL_FLOPS_CUTOFF),
        obs_addr: obs.then(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        ..ServiceConfig::default()
    }
}

/// An in-process `GemmService<f64>` driven through `submit_streamed` and
/// one completion channel.
pub struct Service {
    svc: GemmService<f64>,
    sink: CompletionSink<f64>,
    completions: Completions<f64>,
}

impl Service {
    /// `threads` workers, routing pinned at the default small/large cutoff;
    /// `obs` turns on the metrics endpoint and lifecycle recording.
    pub fn start(threads: usize, obs: bool) -> Service {
        let (sink, completions) = completion_channel();
        Service {
            svc: GemmService::new(service_config(threads, obs)),
            sink,
            completions,
        }
    }

    pub fn submit(
        &self,
        a: &SharedMat,
        b: &SharedMat,
        arm: Arm,
        injector: Option<&Injector>,
    ) -> Result<u64, String> {
        let mut req = GemmRequest::new(&a.0, &b.0).with_policy(policy(arm));
        if let Some(inj) = injector {
            req = req.with_injector(inj.0.clone());
        }
        self.svc
            .submit_streamed(req, &self.sink)
            .map_err(|e| e.to_string())
    }

    /// Blocks for the next completion; `None` when nothing is in flight.
    pub fn recv(&mut self) -> Option<Done> {
        self.completions.recv().map(|c| match c.result {
            Ok(resp) => Done {
                id: c.id,
                batched: resp.batched,
                result: Ok((Mat(resp.c), resp.report.into())),
            },
            Err(e) => Done {
                id: c.id,
                batched: false,
                result: Err(e.to_string()),
            },
        })
    }

    pub fn stats(&self) -> ServiceStats {
        let s = self.svc.stats();
        ServiceStats {
            submitted: s.submitted,
            completed: s.completed,
            failed: s.failed,
            batches: s.batches,
            batched_requests: s.batched_requests,
            injected: s.injected,
            batch_wall_s: s.batch_wall.as_secs_f64(),
            batch_busy_s: s
                .batch_busy_per_thread
                .iter()
                .map(|d| d.as_secs_f64())
                .sum(),
            pool_regions: s.pool.regions,
        }
    }

    pub fn render_metrics(&self) -> String {
        self.svc.render_metrics()
    }
}

// ---------------------------------------------------- wire (wire_small) --

pub struct WireDone {
    pub id: u64,
    /// Column-major result data and the request's counters.
    pub result: Result<(Vec<f64>, OpReport), String>,
}

/// A `GemmService` behind a `NetServer` on an ephemeral loopback port, and
/// one `NetClient` connected to it.
pub struct Wire {
    // Field order is drop order: the client hangs up first, then the server
    // joins its connection threads, then the service drains.
    client: NetClient,
    _server: NetServer,
    _service: Arc<GemmService<f64>>,
}

impl Wire {
    pub fn start(threads: usize) -> Result<Wire, String> {
        let service = Arc::new(GemmService::new(service_config(threads, false)));
        // The server counts a request as in flight until after its
        // completion frame is queued, so a client that refills its window on
        // receipt can briefly exceed it; leave headroom over the window.
        let config = NetServerConfig {
            max_in_flight: 4 * 64,
            ..NetServerConfig::default()
        };
        let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", config)
            .map_err(|e| format!("bind: {e}"))?;
        let client = NetClient::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok(Wire {
            client,
            _server: server,
            _service: service,
        })
    }

    /// Uploads an operand once; the returned handle is resident server-side.
    pub fn upload(&mut self, m: &Mat) -> Result<u64, String> {
        self.client.upload(&m.0).map_err(|e| e.to_string())
    }

    /// Submits `C = A·B` by handle, stream delivery.
    pub fn submit(&mut self, a: u64, b: u64, arm: Arm) -> Result<u64, String> {
        self.client
            .submit(NetSubmit::new(a, b).with_policy(policy(arm)))
            .map_err(|e| e.to_string())
    }

    pub fn next_completion(&mut self) -> Result<WireDone, String> {
        let frame = self.client.next_completion().map_err(|e| e.to_string())?;
        Ok(WireDone {
            id: frame.id,
            result: match frame.result {
                Ok(ok) => {
                    let report = ok.report().into();
                    Ok((ok.data, report))
                }
                Err((code, msg)) => Err(format!("wire error {code}: {msg}")),
            },
        })
    }
}

// ------------------------------------------------------ ladder: kernels --

/// ISA tier of a micro-kernel probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// What `IsaLevel::detect()` reports.
    Detected,
    Avx2,
    Portable,
}

/// Element type of a micro-kernel probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elem {
    F64,
    F32,
}

/// A micro-kernel ready to be called in a loop.
pub trait KernelRun {
    fn flops_per_call(&self) -> f64;
    /// `calls` full-tile kernel invocations, with or without the fused
    /// row/column sums.
    fn run(&mut self, calls: usize, with_sums: bool);
}

/// The probe for `tier` and `elem`; `None` when the CPU lacks the tier.
/// `panel_bytes` bounds the packed `A` and `B` panels together.
pub fn kernel_probe(tier: Tier, elem: Elem, panel_bytes: usize) -> Option<Box<dyn KernelRun>> {
    Some(match elem {
        Elem::F64 => Box::new(KernelProbe::<f64>::new(tier, panel_bytes)?),
        Elem::F32 => Box::new(KernelProbe::<f32>::new(tier, panel_bytes)?),
    })
}

/// `select_kernel(tier).func` on packed panels small enough to stay in L1.
struct KernelProbe<T: Scalar> {
    kernel: Kernel<T>,
    k: usize,
    a: AlignedVec<T>,
    b: AlignedVec<T>,
    c: Vec<T>,
    col_sums: Vec<T>,
    row_sums: Vec<T>,
}

impl<T: Scalar> KernelProbe<T> {
    fn new(tier: Tier, panel_bytes: usize) -> Option<Self> {
        let detected = IsaLevel::detect();
        let isa = match tier {
            Tier::Detected => detected,
            Tier::Avx2 => IsaLevel::Avx2Fma,
            Tier::Portable => IsaLevel::Portable,
        };
        if isa > detected {
            return None;
        }
        let kernel = select_kernel::<T>(isa);
        let (mr, nr) = (kernel.mr, kernel.nr);
        let k = (panel_bytes / ((mr + nr) * std::mem::size_of::<T>())).max(8);
        let fill = |len: usize, step: usize| {
            let mut v = AlignedVec::<T>::zeroed(len).expect("panel allocation");
            for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
                *x = T::from_f64((((i * step) % 17) as f64 - 8.0) / 64.0);
            }
            v
        };
        Some(KernelProbe {
            kernel,
            k,
            a: fill(mr * k, 7),
            b: fill(nr * k, 5),
            c: vec![T::ZERO; mr * nr],
            col_sums: vec![T::ZERO; nr],
            row_sums: vec![T::ZERO; mr],
        })
    }
}

impl<T: Scalar> KernelRun for KernelProbe<T> {
    fn flops_per_call(&self) -> f64 {
        2.0 * (self.kernel.mr * self.kernel.nr * self.k) as f64
    }

    fn run(&mut self, calls: usize, with_sums: bool) {
        let (mr, nr) = (self.kernel.mr, self.kernel.nr);
        let (cs, rs) = if with_sums {
            (self.col_sums.as_mut_ptr(), self.row_sums.as_mut_ptr())
        } else {
            (std::ptr::null_mut(), std::ptr::null_mut())
        };
        for _ in 0..calls {
            // SAFETY: the kernel contract (core `microkernel` docs): `a` is
            // `mr * k` and `b` is `nr * k` 64-byte-aligned elements, `c` is
            // a full `mr x nr` tile with `ldc = mr`, the sums are both null
            // or valid for `nr` / `mr` elements, and `new` refused any tier
            // above what the CPU supports.
            unsafe {
                (self.kernel.func)(
                    self.k,
                    self.a.as_ptr(),
                    self.b.as_ptr(),
                    self.c.as_mut_ptr(),
                    mr,
                    mr,
                    nr,
                    cs,
                    rs,
                );
            }
        }
        std::hint::black_box(&mut self.c);
    }
}

// ------------------------------------------------------ ladder: packing --

/// `pack::pack_a` / `pack_b` and their fused variants on one block of an
/// operand, with the blocking the serial driver would use.
pub struct PackProbe {
    mr: usize,
    nr: usize,
    a_rows: usize,
    a_cols: usize,
    b_rows: usize,
    b_cols: usize,
    out_a: Vec<f64>,
    out_b: Vec<f64>,
    ar: Vec<f64>,
    bc: Vec<f64>,
    enc_row: Vec<f64>,
    enc_col: Vec<f64>,
}

impl PackProbe {
    /// Blocks are `MC x KC` of `a` and `KC x min(NC, n)` of `b`.
    pub fn new(a: &Mat, b: &Mat) -> PackProbe {
        let p = GemmContext::<f64>::new().params;
        let (a_rows, a_cols) = (p.mc.min(a.rows()), p.kc.min(a.cols()));
        let (b_rows, b_cols) = (p.kc.min(b.rows()), p.nc.min(b.cols()));
        PackProbe {
            mr: p.mr,
            nr: p.nr,
            a_rows,
            a_cols,
            b_rows,
            b_cols,
            out_a: vec![0.0; a_rows.div_ceil(p.mr) * p.mr * a_cols],
            out_b: vec![0.0; b_cols.div_ceil(p.nr) * p.nr * b_rows],
            ar: vec![0.5; b_rows],
            bc: vec![0.0; b_rows.max(a_cols)],
            enc_row: vec![0.0; a_rows],
            enc_col: vec![0.0; b_cols],
        }
    }

    /// Bytes one `pack_a` call reads plus writes, computed from the block.
    pub fn a_bytes(&self) -> f64 {
        (2 * self.a_rows * self.a_cols * 8) as f64
    }

    pub fn b_bytes(&self) -> f64 {
        (2 * self.b_rows * self.b_cols * 8) as f64
    }

    pub fn pack_a(&mut self, a: &Mat, fused: bool) {
        let block = a.0.as_ref().submatrix(0, 0, self.a_rows, self.a_cols);
        if fused {
            pack::pack_a_fused(
                &block,
                1.0,
                self.mr,
                &mut self.out_a,
                &self.bc[..self.a_cols],
                &mut self.enc_row,
            );
        } else {
            pack::pack_a(&block, 1.0, self.mr, &mut self.out_a);
        }
        std::hint::black_box(&mut self.out_a);
    }

    pub fn pack_b(&mut self, b: &Mat, fused: bool) {
        let block = b.0.as_ref().submatrix(0, 0, self.b_rows, self.b_cols);
        if fused {
            pack::pack_b_fused(
                &block,
                self.nr,
                &mut self.out_b,
                &self.ar,
                &mut self.bc[..self.b_rows],
                &mut self.enc_col,
            );
        } else {
            pack::pack_b(&block, self.nr, &mut self.out_b);
        }
        std::hint::black_box(&mut self.out_b);
    }
}

// ------------------------------------------------ ladder: serial drivers --

/// `ftgemm_core::gemm` with a reused `GemmContext`.
pub struct SerialGemm(GemmContext<f64>);

impl SerialGemm {
    pub fn new() -> SerialGemm {
        SerialGemm(GemmContext::new())
    }

    pub fn run(&mut self, a: &Mat, b: &Mat, c: &mut Mat) -> Result<(), String> {
        ftgemm::gemm(
            &mut self.0,
            1.0,
            &a.0.as_ref(),
            &b.0.as_ref(),
            0.0,
            &mut c.0.as_mut(),
        )
        .map_err(|e| e.to_string())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    Detect,
    DetectCorrect,
}

/// `ft_gemm_with_ctx` with a reused `FtGemmContext`.
pub struct SerialFt {
    ctx: FtGemmContext<f64>,
    cfg: FtConfig,
}

impl SerialFt {
    pub fn new(protection: Protection, injector: Option<&Injector>) -> SerialFt {
        let policy = match protection {
            Protection::Detect => FtPolicy::Detect,
            Protection::DetectCorrect => FtPolicy::DetectCorrect,
        };
        SerialFt {
            ctx: FtGemmContext::new(),
            cfg: policy
                .to_config(injector.map(|i| i.0.clone()))
                .expect("a protected policy has a driver configuration"),
        }
    }

    pub fn run(&mut self, a: &Mat, b: &Mat, c: &mut Mat) -> OpResult {
        ft_gemm_with_ctx(
            &mut self.ctx,
            &self.cfg,
            1.0,
            &a.0.as_ref(),
            &b.0.as_ref(),
            0.0,
            &mut c.0.as_mut(),
        )
        .map(OpReport::from)
        .map_err(|e| e.to_string())
    }
}

/// `corrector::find_discrepancies`; returns how many it flagged.
pub fn find_discrepancies(enc: &[f64], reference: &[f64], threshold: f64) -> usize {
    corrector::find_discrepancies(enc, reference, threshold).len()
}

/// `checksum::encode_c` over a whole matrix.
pub fn encode_c(c: &Mat, row_sums: &mut [f64], col_sums: &mut [f64]) {
    checksum::encode_c(&c.0.as_ref(), row_sums, col_sums);
}

/// A `SiteStream` polled the way a driver polls it: once per site.
pub struct SitePoller(SiteStream);

impl SitePoller {
    pub fn new(injector: &Injector, stream_id: u64, expected_sites: usize) -> SitePoller {
        SitePoller(injector.0.stream(stream_id, expected_sites))
    }

    pub fn poll(&mut self) -> bool {
        self.0.poll().is_some()
    }
}

/// The three stand-in reference GEMMs (`ReferenceGemm::{mkl,openblas,blis}`).
pub struct Reference(ReferenceGemm<f64>);

impl Reference {
    pub fn all() -> Vec<Reference> {
        vec![
            Reference(ReferenceGemm::mkl()),
            Reference(ReferenceGemm::openblas()),
            Reference(ReferenceGemm::blis()),
        ]
    }

    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    pub fn run(&mut self, a: &Mat, b: &Mat, c: &mut Mat) -> Result<(), String> {
        self.0
            .run(1.0, &a.0.as_ref(), &b.0.as_ref(), 0.0, &mut c.0.as_mut())
            .map_err(|e| e.to_string())
    }
}

// ----------------------------------------------- ladder: pool, parallel --

/// A bare `ThreadPool`.
pub struct Pool(ThreadPool);

impl Pool {
    pub fn new(threads: usize) -> Pool {
        Pool(ThreadPool::new(threads))
    }

    /// One region whose closure crosses `barriers` in-region barriers
    /// (0 = an empty region).
    pub fn region(&self, barriers: usize) {
        self.0.run(|w| {
            for _ in 0..barriers {
                w.barrier();
            }
        });
    }
}

/// `par_gemm_with_ws` / `par_ft_gemm_with_ws` on a reused workspace.
pub struct ParDriver<'p> {
    ctx: &'p ParCtx,
    ws: ParFtWorkspace<f64>,
    cfg: FtConfig,
}

impl<'p> ParDriver<'p> {
    pub fn new(ctx: &'p ParCtx, (m, n, k): (usize, usize, usize)) -> ParDriver<'p> {
        ParDriver {
            ctx,
            ws: ParFtWorkspace::for_problem(&ctx.0, m, n, k),
            cfg: FtConfig::from(FtPolicy::DetectCorrect),
        }
    }

    pub fn run_plain(&mut self, a: &Mat, b: &Mat, c: &mut Mat) -> Result<(), String> {
        par_gemm_with_ws(
            &self.ctx.0,
            &mut self.ws,
            1.0,
            &a.0.as_ref(),
            &b.0.as_ref(),
            0.0,
            &mut c.0.as_mut(),
        )
        .map_err(|e| e.to_string())
    }

    pub fn run_ft(&mut self, a: &Mat, b: &Mat, c: &mut Mat) -> OpResult {
        par_ft_gemm_with_ws(
            &self.ctx.0,
            &mut self.ws,
            &self.cfg,
            1.0,
            &a.0.as_ref(),
            &b.0.as_ref(),
            0.0,
            &mut c.0.as_mut(),
        )
        .map(OpReport::from)
        .map_err(|e| e.to_string())
    }
}

/// `ParFtWorkspace::for_problem`, built and dropped: what `run_large` pays
/// per request today.
pub fn alloc_par_workspace(ctx: &ParCtx, (m, n, k): (usize, usize, usize)) {
    std::hint::black_box(ParFtWorkspace::for_problem(&ctx.0, m, n, k).base_addr());
}

/// `par_batch_ft_gemm_timed` on a reused `BatchWorkspace`.
pub struct BatchDriver<'p> {
    ctx: &'p ParCtx,
    ws: BatchWorkspace<f64>,
    cfg: FtConfig,
}

pub struct BatchRun {
    pub failed: usize,
    pub occupancy: f64,
}

impl<'p> BatchDriver<'p> {
    pub fn new(ctx: &'p ParCtx) -> BatchDriver<'p> {
        BatchDriver {
            ctx,
            ws: BatchWorkspace::new(&ctx.0),
            cfg: FtConfig::from(FtPolicy::DetectCorrect),
        }
    }

    /// One batched region over `pairs`, results into `outs` (same length,
    /// shaped to match).
    pub fn run(&self, pairs: &[(SharedMat, SharedMat)], outs: &mut [Mat]) -> BatchRun {
        let mut items: Vec<BatchItem<'_, f64>> = pairs
            .iter()
            .zip(outs.iter_mut())
            .map(|((a, b), c)| BatchItem {
                alpha: 1.0,
                a: Matrix::as_ref(&a.0),
                b: Matrix::as_ref(&b.0),
                beta: 0.0,
                c: c.0.as_mut(),
                cfg: Some(&self.cfg),
            })
            .collect();
        let (results, timing) = par_batch_ft_gemm_timed(&self.ctx.0, &self.ws, &mut items);
        BatchRun {
            failed: results.iter().filter(|r| r.is_err()).count(),
            occupancy: timing.occupancy(),
        }
    }
}

// -------------------------------------------------------- ladder: codec --

/// A wire frame, for timing `codec::encode_frame` / `decode_frame` alone.
pub struct WireFrame(Frame);

impl WireFrame {
    /// A submit that names both operands by handle: what `wire_small` sends.
    pub fn submit_by_handle() -> WireFrame {
        WireFrame(Frame::Submit(SubmitFrame {
            hold: false,
            policy: 2,
            priority: 1,
            tenant: 0,
            deadline_ns: 0,
            alpha: 1.0,
            beta: 0.0,
            a: OperandRef::Handle(1),
            b: OperandRef::Handle(2),
            c: None,
        }))
    }

    /// The server's answer to a submit.
    pub fn submit_ack() -> WireFrame {
        WireFrame(Frame::SubmitAck { id: 7 })
    }

    /// A successful completion carrying a `rows x cols` result.
    pub fn completion(rows: usize, cols: usize) -> WireFrame {
        WireFrame(Frame::Completion(CompletionFrame {
            id: 7,
            result: Ok(CompletionOk {
                rows: rows as u32,
                cols: cols as u32,
                data: (0..rows * cols).map(|i| i as f64 * 0.25).collect(),
                verifications: 1,
                detected: 0,
                corrected: 0,
                injected: 0,
                retried_panels: 0,
            }),
        }))
    }

    pub fn encode(&self) -> Vec<u8> {
        codec::encode_frame(&self.0)
    }

    /// Decodes a complete wire message (`[len u32][verb][payload]`).
    pub fn decode(bytes: &[u8]) -> Result<WireFrame, String> {
        let (verb, payload) = bytes
            .get(4..)
            .and_then(|body| body.split_first())
            .ok_or("short frame")?;
        codec::decode_frame(*verb, payload)
            .map(WireFrame)
            .map_err(|e| e.to_string())
    }
}
