//! The six workloads and the round protocol they share.
//!
//! One process runs one workload: set-up (once here and four times more in
//! fresh processes, median reported), then rounds until `--seconds` have
//! passed and at least `MIN_ROUNDS` are in. A round is: calibrate, then one burst per arm (off / ft / inj, order
//! rotated per round) with a calibration after each, so every burst has an
//! FMA-peak reading on both sides of it. Op counts per burst are fixed; the
//! run length decides only how many rounds there are. All loops are closed:
//! a caller that waits for its reply, with the stated window.

use crate::calib::{self, Width};
use crate::gen::Rng;
use crate::json::Json;
use crate::stats::{arm_order, summarize, Arm, Summary};
use crate::sut::{self, Injector, Mat, OpReport, SharedMat};
use crate::trace::Tracer;
use crate::verify::{matches_expected, naive_gemm, Freivalds, Outcome, Tally};
use crate::watchdog::Watchdog;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Rounds every run completes, however slow the host.
pub const MIN_ROUNDS: usize = 24;
/// A traced run's minimum: eight recorded rounds and eight unrecorded.
const TRACED_MIN_ROUNDS: usize = 16;
const SMOKE_ROUNDS: usize = 4;
/// Set-ups per run, each in a process of its own; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Length of one calibration reading.
const CAL_TARGET: Duration = Duration::from_millis(4);
/// In-flight requests of the small-request workloads.
pub const SMALL_WINDOW: usize = 64;
const SMALL_POOL: usize = 64;
pub const SMALL_DIMS: [usize; 5] = [32, 48, 64, 96, 128];

pub type Dims = (usize, usize, usize);

pub fn flops((m, n, k): Dims) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Compute threads the parallel workloads use: `min(nproc, 4)`.
pub fn compute_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny shapes and bursts, three rounds: for `cargo test`.
    pub smoke: bool,
}

// --------------------------------------------------------------- bursts --

/// What one timed burst did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Burst {
    /// Wall time of the timed region.
    pub seconds: f64,
    /// `2mnk` of the operations that completed and, where checked, verified.
    pub useful_flops: f64,
    pub ops_ok: u64,
}

/// Shared bookkeeping a burst writes into.
pub struct Ledger {
    pub tally: Tally,
    pub tracer: Tracer,
    /// Sum of the program's per-operation reports, per arm.
    pub reports: [OpReport; 3],
    /// Operations whose own counters contradict each other.
    pub counter_mismatches: u64,
    next_op: u64,
}

impl Ledger {
    pub fn new(trace: bool) -> Ledger {
        Ledger {
            tally: Tally::default(),
            tracer: Tracer::new(trace),
            reports: [OpReport::default(); 3],
            counter_mismatches: 0,
            next_op: 0,
        }
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Adds a successful operation's report and cross-checks it: every
    /// detected error was corrected, and unless a panel was rolled back
    /// (which discards that panel's injections) every injected one was
    /// detected; a clean arm detects nothing.
    fn absorb(&mut self, arm: Arm, r: OpReport) {
        self.reports[arm.index()].absorb(r);
        let consistent = r.detected == r.corrected
            && r.detected <= r.injected
            && (r.retried_panels > 0 || r.detected == r.injected)
            && (arm == Arm::Inj || r.injected == 0);
        if !consistent {
            self.counter_mismatches += 1;
            self.tally.note(format!(
                "{} op with inconsistent counters: {r:?}",
                arm.name()
            ));
        }
    }

    fn fail(&mut self, arm: Arm, outcome: Outcome, why: String) {
        self.tally.record(arm, outcome);
        self.tally.note(format!("{}: {why}", arm.name()));
    }
}

/// A set-up workload: something that can run a burst on an arm.
pub trait Bursts {
    /// Threads the workload keeps busy — the program's compute threads, the
    /// load generator where it is a thread of its own, the connection's
    /// threads on the wire — capped at `compute_threads()`. Calibration runs
    /// on as many, so the peak it reads falls when the host takes away a
    /// CPU the workload needs, as the workload's rate does.
    fn calib_threads(&self) -> usize;
    /// Operations one burst owes (what the watchdog counts if it hangs).
    fn ops_per_burst(&self) -> u64;
    /// Whether the inj arm really injects (the wire carries no injector).
    fn inj_applied(&self) -> bool {
        true
    }
    /// Errors the benchmark's injectors say they fired.
    fn injector_fired(&self) -> u64;
    /// Errors the service behind the workload says were injected, if there
    /// is a service to ask.
    fn service_injected(&self) -> Option<u64> {
        None
    }
    fn burst(&mut self, arm: Arm, ledger: &mut Ledger) -> Burst;
}

fn arm_span(arm: Arm) -> &'static str {
    match arm {
        Arm::Off => "arm.off",
        Arm::Ft => "arm.ft",
        Arm::Inj => "arm.inj",
    }
}

// ------------------------------------------------------------- rounds --

#[derive(Debug, Clone, Copy, Default)]
pub struct ArmRound {
    pub burst: Burst,
    /// Mean of the calibration readings before and after the burst, GF/s.
    pub peak_gflops: f64,
}

impl ArmRound {
    pub fn gflops(&self) -> f64 {
        self.burst.useful_flops / self.burst.seconds / 1e9
    }

    pub fn eff(&self) -> f64 {
        self.gflops() / self.peak_gflops
    }

    pub fn ops_per_s(&self) -> f64 {
        self.burst.ops_ok as f64 / self.burst.seconds
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Whether spans were recorded during this round.
    pub traced: bool,
    pub arms: [ArmRound; 3],
}

impl Round {
    fn arm(&self, arm: Arm) -> &ArmRound {
        &self.arms[arm.index()]
    }

    /// Cost of `arm` against `off` in this round: seconds per useful flop of
    /// the one over the other. The two bursts ran within a fraction of a
    /// second of each other, which is the pairing that makes the ratio
    /// repeat on a host whose speed drifts.
    pub fn cost_ratio(&self, arm: Arm) -> f64 {
        self.arm(Arm::Off).gflops() / self.arm(arm).gflops()
    }

    /// The same ratio with each side scaled by the FMA peak read around its
    /// own burst. Kept in the record as context: on the reference host the
    /// calibration readings add more noise than the drift they remove.
    pub fn calibrated_cost_ratio(&self, arm: Arm) -> f64 {
        self.arm(Arm::Off).eff() / self.arm(arm).eff()
    }
}

/// Runs rounds on a set-up workload until the time budget and the minimum
/// round count are both met.
pub fn measure(
    w: &mut dyn Bursts,
    opts: &Options,
    width: Width,
    ledger: &mut Ledger,
    watchdog: &Watchdog,
) -> Vec<Round> {
    let threads = w.calib_threads();
    let min_rounds = match (opts.smoke, opts.trace) {
        (true, _) => SMOKE_ROUNDS,
        (false, true) => TRACED_MIN_ROUNDS,
        (false, false) => MIN_ROUNDS,
    };
    // A traced run spends the other half of its time on the layer ladder.
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let started = Instant::now();
    let mut rounds = Vec::new();
    let workload_span = ledger.tracer.open("workload", 0);
    loop {
        // A traced run records every other round, so the same run shows
        // what recording costs.
        let traced = opts.trace && rounds.len() % 2 == 0;
        ledger.tracer.set_paused(!traced);
        let round_span = ledger.tracer.open("round", 0);
        let mut arms = [ArmRound::default(); 3];
        let mut peak_before = calib::peak_gflops(width, threads, CAL_TARGET);
        for arm in arm_order(rounds.len()) {
            watchdog.begin_burst(arm, w.ops_per_burst());
            let span = ledger.tracer.open(arm_span(arm), 0);
            let burst = w.burst(arm, ledger);
            ledger.tracer.close(span);
            watchdog.end_burst(&ledger.tally);
            let peak_after = calib::peak_gflops(width, threads, CAL_TARGET);
            arms[arm.index()] = ArmRound {
                burst,
                peak_gflops: 0.5 * (peak_before + peak_after),
            };
            peak_before = peak_after;
        }
        ledger.tracer.close(round_span);
        rounds.push(Round { traced, arms });
        if rounds.len() >= min_rounds && started.elapsed() >= budget {
            break;
        }
    }
    ledger.tracer.set_paused(false);
    ledger.tracer.close(workload_span);
    rounds
}

/// One warm-up burst per arm, part of set-up: lets caches, lazily sized
/// scratch and the pools' threads settle before anything is timed.
fn warm_up(w: &mut dyn Bursts, ledger: &mut Ledger) {
    ledger.tracer.set_paused(true);
    for arm in Arm::ALL {
        w.burst(arm, ledger);
    }
    ledger.tracer.set_paused(false);
}

// --------------------------------------------------- lib_* (the facade) --

#[derive(Debug, Clone, Copy)]
pub enum LibExec {
    Serial,
    Parallel,
}

#[derive(Debug, Clone, Copy)]
pub struct LibShape {
    pub dims: Dims,
    pub exec: LibExec,
    pub ops_per_burst: usize,
    pub errors_per_op: usize,
}

pub fn lib_shape(workload: &str, smoke: bool) -> Option<LibShape> {
    let (dims, small, exec, ops) = match workload {
        "lib_square" => ((1280, 1280, 1280), (160, 160, 160), LibExec::Serial, 1),
        "lib_panel" => ((2048, 2048, 128), (256, 256, 64), LibExec::Serial, 3),
        "lib_parallel" => ((1280, 1280, 1280), (160, 160, 160), LibExec::Parallel, 2),
        _ => return None,
    };
    Some(LibShape {
        dims: if smoke { small } else { dims },
        exec,
        ops_per_burst: if smoke { 1 } else { ops },
        // The paper's Fig. 2c/2d: 20 errors per run.
        errors_per_op: 20,
    })
}

/// The operands of a `lib_*` workload, owned outside the plans that borrow
/// them.
pub struct LibOperands {
    a: Mat,
    b: Mat,
    dims: Dims,
}

impl LibOperands {
    pub fn alloc(dims: Dims) -> LibOperands {
        let (m, n, k) = dims;
        LibOperands {
            a: Mat::zeros(m, k),
            b: Mat::zeros(k, n),
            dims,
        }
    }

    /// (Re)generates both operands from the seed: same seed, same values.
    pub fn fill(&mut self, seed: u64) {
        let mut rng = Rng::new(seed, 1);
        rng.fill_symmetric(self.a.data_mut());
        rng.fill_symmetric(self.b.data_mut());
    }
}

struct LibState<'a> {
    plans: [sut::Plan<'a>; 3],
    c: Mat,
    check: Freivalds,
    injector: Injector,
    dims: Dims,
    threads: usize,
    ops: usize,
}

impl<'a> LibState<'a> {
    fn build(
        ops: &'a LibOperands,
        shape: LibShape,
        par: Option<&sut::ParCtx>,
        seed: u64,
    ) -> Result<LibState<'a>, String> {
        let injector = Injector::counted(seed ^ 0x1A7E, shape.errors_per_op);
        let exec = match par {
            Some(ctx) => sut::Where::Parallel(ctx),
            None => sut::Where::Serial,
        };
        let plan = |arm| {
            let inj = (arm == Arm::Inj).then_some(&injector);
            sut::Plan::build(&ops.a, &ops.b, arm, inj, exec)
        };
        let plans = [plan(Arm::Off)?, plan(Arm::Ft)?, plan(Arm::Inj)?];
        let (m, n, _) = ops.dims;
        let x = Rng::new(seed, 2).probe_vector(n);
        Ok(LibState {
            plans,
            c: Mat::zeros(m, n),
            check: Freivalds::new(ops.a.data(), ops.b.data(), ops.dims, x),
            injector,
            dims: ops.dims,
            threads: par.map_or(1, sut::ParCtx::threads),
            ops: shape.ops_per_burst,
        })
    }
}

impl Bursts for LibState<'_> {
    fn calib_threads(&self) -> usize {
        self.threads
    }

    fn ops_per_burst(&self) -> u64 {
        self.ops as u64
    }

    fn injector_fired(&self) -> u64 {
        self.injector.injected()
    }

    /// Each operation is timed on its own and the burst is their sum, so
    /// the output check between operations stays outside the timed region.
    fn burst(&mut self, arm: Arm, ledger: &mut Ledger) -> Burst {
        let mut burst = Burst::default();
        for i in 0..self.ops {
            // Every injected operation is checked, and one per arm per
            // round otherwise.
            let checked = arm == Arm::Inj || i == 0;
            if checked {
                // The previous result would pass the check: wipe it, so an
                // operation that did nothing cannot.
                self.c.data_mut().fill(f64::NAN);
            }
            let op_id = ledger.op_id();
            let start = Instant::now();
            let result = self.plans[arm.index()].run(&mut self.c);
            let end = Instant::now();
            burst.seconds += (end - start).as_secs_f64();
            ledger.tracer.record("op", start, end, None, op_id);
            match result {
                Err(e) => ledger.fail(arm, Outcome::Errored, e),
                Ok(report) => {
                    ledger.absorb(arm, report);
                    if checked && !self.check.check(self.c.data()) {
                        ledger.fail(
                            arm,
                            Outcome::SilentCorruption,
                            format!("Ok result fails Freivalds' check ({report:?})"),
                        );
                        continue;
                    }
                    ledger.tally.record(
                        arm,
                        if checked {
                            Outcome::Verified
                        } else {
                            Outcome::Unchecked
                        },
                    );
                    burst.useful_flops += flops(self.dims);
                    burst.ops_ok += 1;
                }
            }
        }
        burst
    }
}

// ------------------------------------------- request streams (serve, wire) --

/// How a request's result is checked.
enum Check {
    /// Against the benchmark's own triple loop (small requests).
    Exact(Vec<f64>),
    /// Freivalds' check (large requests).
    Probe(Freivalds),
}

impl Check {
    fn passes(&self, c: &[f64]) -> bool {
        match self {
            Check::Exact(want) => matches_expected(c, want),
            Check::Probe(f) => f.check(c),
        }
    }
}

/// A seeded pool of `(A, B)` pairs that a request stream cycles over.
pub struct RequestPool {
    pub pairs: Vec<(Mat, Mat)>,
    pub dims: Vec<Dims>,
    checks: Vec<Check>,
}

impl RequestPool {
    /// The `serve_small` / `wire_small` mix: `m`, `n`, `k` drawn
    /// independently from `SMALL_DIMS`. The shapes come from a fixed stream,
    /// so every seed serves the same multiset of shapes (and the same flops
    /// per cycle of the pool); the seed decides their order and every value.
    pub fn small(seed: u64, smoke: bool) -> RequestPool {
        let mut shape_rng = Rng::new(0x5A4E, 3);
        let count = if smoke { 8 } else { SMALL_POOL };
        let mut dims: Vec<Dims> = (0..count)
            .map(|_| {
                (
                    shape_rng.pick(&SMALL_DIMS),
                    shape_rng.pick(&SMALL_DIMS),
                    shape_rng.pick(&SMALL_DIMS),
                )
            })
            .collect();
        let mut order_rng = Rng::new(seed, 3);
        for i in (1..dims.len()).rev() {
            dims.swap(i, (order_rng.next_u64() % (i as u64 + 1)) as usize);
        }
        RequestPool::generate(seed, dims, false)
    }

    /// The `serve_large` mix: squares, two of each size, all above the
    /// service's small/large cutoff.
    pub fn large(seed: u64, smoke: bool) -> RequestPool {
        let sizes: &[usize] = if smoke { &[208, 224] } else { &[256, 384, 512] };
        let twice: Vec<usize> = sizes.iter().chain(sizes).copied().collect();
        RequestPool::squares(seed, &twice)
    }

    /// Square requests of the given sizes, checked with Freivalds' check.
    pub fn squares(seed: u64, sizes: &[usize]) -> RequestPool {
        RequestPool::generate(seed, sizes.iter().map(|&s| (s, s, s)).collect(), true)
    }

    fn generate(seed: u64, dims: Vec<Dims>, probe: bool) -> RequestPool {
        let mut rng = Rng::new(seed, 4);
        let mut pairs = Vec::with_capacity(dims.len());
        let mut checks = Vec::with_capacity(dims.len());
        for &(m, n, k) in &dims {
            let (mut a, mut b) = (Mat::zeros(m, k), Mat::zeros(k, n));
            rng.fill_symmetric(a.data_mut());
            rng.fill_symmetric(b.data_mut());
            checks.push(if probe {
                let x = rng.probe_vector(n);
                Check::Probe(Freivalds::new(a.data(), b.data(), (m, n, k), x))
            } else {
                Check::Exact(naive_gemm(a.data(), b.data(), (m, n, k)))
            });
            pairs.push((a, b));
        }
        RequestPool {
            pairs,
            dims,
            checks,
        }
    }
}

/// A request's result as its transport hands it over, unconverted.
pub enum ResultData {
    Matrix(Mat),
    Flat(Vec<f64>),
}

impl ResultData {
    fn as_slice(&self) -> &[f64] {
        match self {
            ResultData::Matrix(m) => m.data(),
            ResultData::Flat(v) => v,
        }
    }
}

type Completed = (u64, Result<(ResultData, OpReport), String>);

/// Where a request stream is sent: the in-process service or the wire.
pub trait Transport {
    fn submit(&mut self, pair: usize, arm: Arm, injector: Option<&Injector>)
        -> Result<u64, String>;
    /// Blocks for the next completion; `Ok(None)` when nothing is in
    /// flight. The result data is column-major.
    fn next(&mut self) -> Result<Option<Completed>, String>;
    fn service_injected(&self) -> Option<u64> {
        None
    }
    const SUBMIT_SPAN: &'static str;
    const WAIT_SPAN: &'static str;
    const CARRIES_INJECTOR: bool;
    /// Threads busy besides the service's workers: the load generator, and
    /// on the wire the connection's reader, writer and completion pump.
    const EXTRA_BUSY_THREADS: usize;
}

pub struct InProcess {
    svc: sut::Service,
    pairs: Vec<(SharedMat, SharedMat)>,
    /// Which path every request of this stream must take.
    expect_batched: bool,
}

impl Transport for InProcess {
    const SUBMIT_SPAN: &'static str = "serve.submit";
    const WAIT_SPAN: &'static str = "serve.wait";
    const CARRIES_INJECTOR: bool = true;
    const EXTRA_BUSY_THREADS: usize = 1;

    fn submit(
        &mut self,
        pair: usize,
        arm: Arm,
        injector: Option<&Injector>,
    ) -> Result<u64, String> {
        let (a, b) = &self.pairs[pair];
        self.svc.submit(a, b, arm, injector)
    }

    fn service_injected(&self) -> Option<u64> {
        Some(self.svc.stats().injected)
    }

    fn next(&mut self) -> Result<Option<Completed>, String> {
        let Some(done) = self.svc.recv() else {
            return Ok(None);
        };
        let result = match done.result {
            Ok(_) if done.batched != self.expect_batched => Err(format!(
                "request took the {} path",
                if done.batched {
                    "batched"
                } else {
                    "matrix-parallel"
                }
            )),
            Ok((c, report)) => Ok((ResultData::Matrix(c), report)),
            Err(e) => Err(e),
        };
        Ok(Some((done.id, result)))
    }
}

pub struct OverWire {
    wire: sut::Wire,
    handles: Vec<(u64, u64)>,
    in_flight: usize,
}

impl Transport for OverWire {
    const SUBMIT_SPAN: &'static str = "net.submit";
    const WAIT_SPAN: &'static str = "net.wait";
    // `conn::build_request` sets `injector: None`: nothing to attach.
    const CARRIES_INJECTOR: bool = false;
    const EXTRA_BUSY_THREADS: usize = 4;

    fn submit(&mut self, pair: usize, arm: Arm, _: Option<&Injector>) -> Result<u64, String> {
        let (a, b) = self.handles[pair];
        let id = self.wire.submit(a, b, arm)?;
        self.in_flight += 1;
        Ok(id)
    }

    fn next(&mut self) -> Result<Option<Completed>, String> {
        if self.in_flight == 0 {
            return Ok(None);
        }
        let done = self.wire.next_completion()?;
        self.in_flight -= 1;
        let result = done.result.map(|(c, report)| (ResultData::Flat(c), report));
        Ok(Some((done.id, result)))
    }
}

/// Per-request timings a stream keeps when asked to (the layer ladder).
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds inside the transport's submit call.
    pub submit: Vec<f64>,
    /// Seconds from submit entry to the completion's receipt.
    pub turnaround: Vec<f64>,
}

/// A closed-loop request stream over a pool, through a transport.
pub struct Stream<T: Transport> {
    transport: T,
    dims: Vec<Dims>,
    checks: Vec<Check>,
    injector: Injector,
    window: usize,
    requests: usize,
    /// The service's worker threads.
    threads: usize,
    /// Next pair of the cycle; carries over between bursts.
    cursor: usize,
    /// `Some` to keep per-request timings.
    pub samples: Option<Samples>,
}

impl Stream<InProcess> {
    pub fn stats(&self) -> sut::ServiceStats {
        self.transport.svc.stats()
    }

    pub fn render_metrics(&self) -> String {
        self.transport.svc.render_metrics()
    }
}

impl Stream<OverWire> {
    /// Uploads one more operand over the stream's connection.
    pub fn upload(&mut self, m: &Mat) -> Result<u64, String> {
        self.transport.wire.upload(m)
    }
}

struct Pending {
    pair: usize,
    op_id: u64,
    /// Submit entry and return, taken only while spans or samples are kept.
    submit: Option<(Instant, Instant)>,
}

impl<T: Transport> Bursts for Stream<T> {
    fn calib_threads(&self) -> usize {
        (self.threads + T::EXTRA_BUSY_THREADS).min(compute_threads())
    }

    fn ops_per_burst(&self) -> u64 {
        self.requests as u64
    }

    fn inj_applied(&self) -> bool {
        T::CARRIES_INJECTOR
    }

    fn injector_fired(&self) -> u64 {
        self.injector.injected()
    }

    fn service_injected(&self) -> Option<u64> {
        self.transport.service_injected()
    }

    fn burst(&mut self, arm: Arm, ledger: &mut Ledger) -> Burst {
        let injector = (arm == Arm::Inj && T::CARRIES_INJECTOR).then_some(&self.injector);
        // Every operation that had errors injected is checked; otherwise one
        // per burst.
        let check_all = injector.is_some();
        let clocks = ledger.tracer.recording() || self.samples.is_some();
        let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(self.window * 2);
        // Results kept for checking once the clock has stopped.
        let mut kept: Vec<(usize, ResultData)> = Vec::new();
        let mut burst = Burst::default();
        let (mut submitted, mut finished) = (0, 0);
        let mut transport_down = None;

        let started = Instant::now();
        while finished < self.requests {
            while submitted < self.requests && pending.len() < self.window {
                let pair = self.cursor % self.dims.len();
                self.cursor += 1;
                submitted += 1;
                let op_id = ledger.op_id();
                let entry = clocks.then(Instant::now);
                match self.transport.submit(pair, arm, injector) {
                    Ok(id) => {
                        let submit = entry.map(|t| (t, Instant::now()));
                        pending.insert(
                            id,
                            Pending {
                                pair,
                                op_id,
                                submit,
                            },
                        );
                    }
                    Err(e) => {
                        finished += 1;
                        ledger.fail(arm, Outcome::Errored, format!("submit: {e}"));
                    }
                }
            }
            if pending.is_empty() {
                continue;
            }
            let (id, result) = match self.transport.next() {
                Ok(Some(done)) => done,
                Ok(None) => {
                    transport_down = Some("requests in flight but no completion due".to_string());
                    break;
                }
                Err(e) => {
                    transport_down = Some(e);
                    break;
                }
            };
            let Some(p) = pending.remove(&id) else {
                ledger
                    .tally
                    .note(format!("completion for unknown request {id}"));
                continue;
            };
            finished += 1;
            if let Some((entry, returned)) = p.submit {
                let done = Instant::now();
                let op = ledger.tracer.record("op", entry, done, None, p.op_id);
                ledger
                    .tracer
                    .record(T::SUBMIT_SPAN, entry, returned, Some(op), p.op_id);
                ledger
                    .tracer
                    .record(T::WAIT_SPAN, returned, done, Some(op), p.op_id);
                if let Some(samples) = &mut self.samples {
                    samples.submit.push((returned - entry).as_secs_f64());
                    samples.turnaround.push((done - entry).as_secs_f64());
                }
            }
            match result {
                Err(e) => ledger.fail(arm, Outcome::Errored, e),
                Ok((c, report)) => {
                    ledger.absorb(arm, report);
                    if check_all || kept.is_empty() {
                        kept.push((p.pair, c));
                    } else {
                        ledger.tally.record(arm, Outcome::Unchecked);
                        burst.useful_flops += flops(self.dims[p.pair]);
                        burst.ops_ok += 1;
                    }
                }
            }
        }
        burst.seconds = started.elapsed().as_secs_f64();

        if let Some(why) = transport_down {
            // Whatever was still owed never completed.
            let owed = (self.requests - finished) as u64;
            ledger.tally.record_unfinished(arm, owed);
            ledger
                .tally
                .note(format!("{}: {why}; {owed} requests lost", arm.name()));
        }
        for (pair, c) in kept {
            if self.checks[pair].passes(c.as_slice()) {
                ledger.tally.record(arm, Outcome::Verified);
                burst.useful_flops += flops(self.dims[pair]);
                burst.ops_ok += 1;
            } else {
                ledger.fail(
                    arm,
                    Outcome::SilentCorruption,
                    format!(
                        "Ok result for pair {pair} {:?} fails its check",
                        self.dims[pair]
                    ),
                );
            }
        }
        burst
    }
}

#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub window: usize,
    pub requests: usize,
    pub errors_per_request: usize,
    /// Service worker threads.
    pub threads: usize,
    pub large: bool,
}

pub fn stream_shape(workload: &str, smoke: bool) -> Option<StreamShape> {
    let t = compute_threads();
    let shape = match workload {
        "serve_small" => StreamShape {
            window: SMALL_WINDOW,
            requests: if smoke { 48 } else { 512 },
            errors_per_request: 1,
            threads: 1,
            large: false,
        },
        "serve_large" => StreamShape {
            window: 4,
            requests: if smoke { 4 } else { 6 },
            errors_per_request: 4,
            threads: t,
            large: true,
        },
        "wire_small" => StreamShape {
            window: SMALL_WINDOW,
            requests: if smoke { 32 } else { 256 },
            errors_per_request: 1,
            threads: 1,
            large: false,
        },
        _ => return None,
    };
    Some(shape)
}

pub fn pool_for(shape: StreamShape, opts: &Options) -> RequestPool {
    if shape.large {
        RequestPool::large(opts.seed, opts.smoke)
    } else {
        RequestPool::small(opts.seed, opts.smoke)
    }
}

/// A service behind a closed-loop stream over `pool`; `obs` turns the
/// service's metrics endpoint on (off in every timed run).
pub fn serve_stream(
    shape: StreamShape,
    pool: RequestPool,
    seed: u64,
    obs: bool,
) -> Stream<InProcess> {
    Stream {
        transport: InProcess {
            svc: sut::Service::start(shape.threads, obs),
            pairs: pool
                .pairs
                .into_iter()
                .map(|(a, b)| (a.share(), b.share()))
                .collect(),
            expect_batched: !shape.large,
        },
        dims: pool.dims,
        checks: pool.checks,
        injector: Injector::counted(seed ^ 0x5E7E, shape.errors_per_request),
        window: shape.window,
        requests: shape.requests,
        threads: shape.threads,
        cursor: 0,
        samples: None,
    }
}

/// Server, one client, and `pool`'s operands uploaded once.
pub fn wire_stream(
    shape: StreamShape,
    pool: RequestPool,
    seed: u64,
) -> Result<Stream<OverWire>, String> {
    let mut wire = sut::Wire::start(shape.threads)?;
    let mut handles = Vec::with_capacity(pool.pairs.len());
    for (a, b) in &pool.pairs {
        handles.push((wire.upload(a)?, wire.upload(b)?));
    }
    Ok(Stream {
        transport: OverWire {
            wire,
            handles,
            in_flight: 0,
        },
        dims: pool.dims,
        checks: pool.checks,
        injector: Injector::counted(seed ^ 0x5E7E, shape.errors_per_request),
        window: shape.window,
        requests: shape.requests,
        threads: shape.threads,
        cursor: 0,
        samples: None,
    })
}

// ------------------------------------------------------ a workload's run --

/// Everything one workload run measured.
pub struct Measured {
    pub rounds: Vec<Round>,
    /// Set-up seconds: those of the fresh processes that only set up, then
    /// this process's own.
    pub setup_seconds: Vec<f64>,
    pub inj_applied: bool,
    /// Errors the benchmark's injectors fired.
    pub injector_fired: u64,
    /// Errors the service of the run counted, where there is a service.
    pub service_injected: Option<u64>,
    pub calib_threads: usize,
}

/// Sets one workload up — operands from the seed, the program's plans /
/// pool / service / server, connect and upload, one warm-up burst per arm —
/// and hands the ready workload and the seconds set-up took to `then`.
///
/// A process sets up exactly once. The allocator's state after a torn-down
/// set-up decides whether `serve_large`'s per-request workspaces fault
/// their pages in again (a 4x difference in its rate, flipping with the
/// number of earlier set-ups), so the repeats behind `setup_s` run in fresh
/// processes of their own (`SETUPS`, `set_up_only`).
fn with_set_up<R>(
    workload: &str,
    opts: &Options,
    ledger: &mut Ledger,
    then: impl FnOnce(&mut dyn Bursts, f64, &mut Ledger) -> R,
) -> Result<R, String> {
    let started = Instant::now();
    if let Some(shape) = lib_shape(workload, opts.smoke) {
        // Plans borrow the operands, and a parallel plan its pool.
        let mut operands = LibOperands::alloc(shape.dims);
        operands.fill(opts.seed);
        let par = matches!(shape.exec, LibExec::Parallel)
            .then(|| sut::ParCtx::with_threads(compute_threads()));
        let mut state = LibState::build(&operands, shape, par.as_ref(), opts.seed)?;
        warm_up(&mut state, ledger);
        return Ok(then(&mut state, started.elapsed().as_secs_f64(), ledger));
    }
    let shape = stream_shape(workload, opts.smoke)
        .ok_or_else(|| format!("no workload named {workload}"))?;
    let pool = pool_for(shape, opts);
    if workload == "wire_small" {
        let mut stream = wire_stream(shape, pool, opts.seed)?;
        warm_up(&mut stream, ledger);
        Ok(then(&mut stream, started.elapsed().as_secs_f64(), ledger))
    } else {
        let mut stream = serve_stream(shape, pool, opts.seed, false);
        warm_up(&mut stream, ledger);
        Ok(then(&mut stream, started.elapsed().as_secs_f64(), ledger))
    }
}

/// One set-up in this process and nothing else; returns its seconds. What
/// the `setup` subcommand runs, once per fresh process.
pub fn set_up_only(workload: &str, opts: &Options, ledger: &mut Ledger) -> Result<f64, String> {
    with_set_up(workload, opts, ledger, |_, seconds, _| seconds)
}

/// Sets up and measures one workload. `earlier_setups` are the set-up
/// seconds fresh processes reported before this one started.
pub fn run(
    workload: &str,
    opts: &Options,
    width: Width,
    earlier_setups: Vec<f64>,
    ledger: &mut Ledger,
    watchdog: &Watchdog,
) -> Result<Measured, String> {
    watchdog.phase("set-up");
    with_set_up(workload, opts, ledger, |w, seconds, ledger| {
        let mut setup_seconds = earlier_setups;
        setup_seconds.push(seconds);
        watchdog.phase("rounds");
        let rounds = measure(w, opts, width, ledger, watchdog);
        Measured {
            rounds,
            setup_seconds,
            inj_applied: w.inj_applied(),
            injector_fired: w.injector_fired(),
            service_injected: w.service_injected(),
            calib_threads: w.calib_threads(),
        }
    })
}

// --------------------------------------------------------------- results --

fn finite(values: impl Iterator<Item = f64>) -> Vec<f64> {
    values.filter(|v| v.is_finite()).collect()
}

/// A summary that is all zeros when nothing finite was measured (a run
/// whose operations all failed; it is reported as incorrect anyway).
fn summarize_or_zero(values: &[f64]) -> Summary {
    if values.is_empty() {
        Summary {
            n: 0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        }
    } else {
        summarize(values)
    }
}

pub fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::U64(s.n as u64)),
        ("q1", Json::F64(s.q1)),
        ("median", Json::F64(s.median)),
        ("q3", Json::F64(s.q3)),
    ])
}

impl Measured {
    /// Rounds that count for the end-to-end metrics: all of them in an
    /// untraced run, only the unrecorded ones in a traced run.
    fn clean_rounds(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    pub fn arm_summary(&self, arm: Arm, f: impl Fn(&ArmRound) -> f64) -> Summary {
        summarize_or_zero(&finite(self.clean_rounds().map(|r| f(r.arm(arm)))))
    }

    pub fn cost_summary(&self, arm: Arm) -> Summary {
        summarize_or_zero(&finite(self.clean_rounds().map(|r| r.cost_ratio(arm))))
    }

    pub fn calibrated_cost_summary(&self, arm: Arm) -> Summary {
        summarize_or_zero(&finite(
            self.clean_rounds().map(|r| r.calibrated_cost_ratio(arm)),
        ))
    }

    pub fn peak_summary(&self) -> Summary {
        summarize_or_zero(&finite(
            self.rounds
                .iter()
                .flat_map(|r| r.arms.iter().map(|a| a.peak_gflops)),
        ))
    }

    /// `ft_eff` with span recording off against on, in percent: what the
    /// tracing costs on this workload. Zero for an untraced run.
    pub fn trace_overhead_pct(&self) -> f64 {
        let eff = |traced: bool| {
            summarize_or_zero(&finite(
                self.rounds
                    .iter()
                    .filter(|r| r.traced == traced)
                    .map(|r| r.arm(Arm::Ft).eff()),
            ))
            .median
        };
        let (on, off) = (eff(true), eff(false));
        if on > 0.0 && off > 0.0 {
            (off / on - 1.0) * 100.0
        } else {
            0.0
        }
    }

    /// The seven end-to-end values, in `spec::END_TO_END` order, with the
    /// process's peak resident set.
    ///
    /// An efficiency is the *upper quartile* of its rounds, not their
    /// median: the host's interference only ever slows a burst, so the upper
    /// quartile sits nearer the undisturbed rate and moved less between runs
    /// (worst ten-run spread 18% against 27% for the median, README "Host
    /// noise"). The paired cost ratios have no such one-sidedness and stay
    /// medians.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> [(&'static str, f64); 7] {
        [
            ("setup_s", summarize(&self.setup_seconds).median),
            ("off_eff", self.arm_summary(Arm::Off, ArmRound::eff).q3),
            ("ft_eff", self.arm_summary(Arm::Ft, ArmRound::eff).q3),
            ("inj_eff", self.arm_summary(Arm::Inj, ArmRound::eff).q3),
            ("ft_cost_ratio", self.cost_summary(Arm::Ft).median),
            ("inj_cost_ratio", self.cost_summary(Arm::Inj).median),
            ("peak_rss_mb", peak_rss_mb),
        ]
    }

    /// Per-round raw readings, for checking an estimator offline.
    pub fn rounds_json(&self) -> Json {
        Json::Arr(
            self.rounds
                .iter()
                .map(|r| {
                    Json::obj(std::iter::once(("traced", Json::Bool(r.traced))).chain(
                        Arm::ALL.map(|arm| {
                            let a = r.arm(arm);
                            (
                                arm.name(),
                                Json::obj([
                                    ("seconds", Json::F64(a.burst.seconds)),
                                    ("useful_flops", Json::F64(a.burst.useful_flops)),
                                    ("ops_ok", Json::U64(a.burst.ops_ok)),
                                    ("peak_gflops", Json::F64(a.peak_gflops)),
                                ]),
                            )
                        }),
                    ))
                })
                .collect(),
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_are_fixed_and_repeat_for_a_seed() {
        for name in ["lib_square", "lib_panel", "lib_parallel"] {
            let (a, b) = (
                lib_shape(name, false).unwrap(),
                lib_shape(name, false).unwrap(),
            );
            assert_eq!((a.dims, a.ops_per_burst), (b.dims, b.ops_per_burst));
        }
        assert_eq!(
            lib_shape("lib_square", false).unwrap().dims,
            (1280, 1280, 1280)
        );
        assert_eq!(
            lib_shape("lib_panel", false).unwrap().dims,
            (2048, 2048, 128)
        );
        assert_eq!(stream_shape("serve_small", false).unwrap().requests, 512);
        assert_eq!(
            stream_shape("wire_small", false).unwrap().window,
            SMALL_WINDOW
        );
        assert!(
            lib_shape("serve_small", false).is_none()
                && stream_shape("lib_square", false).is_none()
        );

        let (p, q) = (RequestPool::small(5, false), RequestPool::small(5, false));
        assert_eq!(p.dims, q.dims);
        assert_eq!(p.dims.len(), SMALL_POOL);
        // Another seed serves the same shapes in another order.
        let other = RequestPool::small(6, false);
        assert_ne!(p.dims, other.dims);
        let sorted = |pool: &RequestPool| {
            let mut d = pool.dims.clone();
            d.sort_unstable();
            d
        };
        assert_eq!(sorted(&p), sorted(&other));
        assert!(p
            .dims
            .iter()
            .all(|(m, n, k)| [m, n, k].iter().all(|d| SMALL_DIMS.contains(d))));
        assert_eq!(p.pairs[7].0.data(), q.pairs[7].0.data());
    }

    #[test]
    fn large_requests_sit_above_the_service_cutoff() {
        for smoke in [false, true] {
            let pool = RequestPool::large(1, smoke);
            assert!(pool.dims.iter().all(|d| flops(*d) > 2.0 * 192f64.powi(3)));
        }
        // ... and every small one at or below it.
        assert!(flops((128, 128, 128)) <= 2.0 * 192f64.powi(3));
    }

    #[test]
    fn pool_checks_accept_the_right_answer_and_refuse_a_wrong_one() {
        for pool in [RequestPool::small(2, true), RequestPool::large(2, true)] {
            let (a, b) = &pool.pairs[0];
            let mut c = naive_gemm(a.data(), b.data(), pool.dims[0]);
            assert!(pool.checks[0].passes(&c));
            c[3] += 1e-3;
            assert!(!pool.checks[0].passes(&c));
        }
    }

    #[test]
    fn cost_ratios_pair_the_arms_of_a_round() {
        let arm = |seconds: f64, peak: f64| ArmRound {
            burst: Burst {
                seconds,
                useful_flops: 1e9,
                ops_ok: 1,
            },
            peak_gflops: peak,
        };
        // ft took 1.2x the cycles of off, but ran while the clock was 2x
        // faster: wall times say 0.6, the calibrated ratio says 1.2.
        let round = Round {
            traced: false,
            arms: [arm(1.0, 50.0), arm(0.6, 100.0), arm(1.2, 50.0)],
        };
        assert!((round.cost_ratio(Arm::Ft) - 0.6).abs() < 1e-12);
        assert!((round.calibrated_cost_ratio(Arm::Ft) - 1.2).abs() < 1e-12);
        assert!((round.cost_ratio(Arm::Inj) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn ledger_flags_contradictory_counters() {
        let mut l = Ledger::new(false);
        let clean = OpReport {
            verifications: 4,
            ..OpReport::default()
        };
        l.absorb(Arm::Ft, clean);
        let fixed = OpReport {
            verifications: 4,
            detected: 3,
            corrected: 3,
            injected: 3,
            retried_panels: 0,
        };
        l.absorb(Arm::Inj, fixed);
        let retried = OpReport {
            verifications: 5,
            detected: 2,
            corrected: 2,
            injected: 4,
            retried_panels: 1,
        };
        l.absorb(Arm::Inj, retried);
        assert_eq!(l.counter_mismatches, 0);
        let missed = OpReport {
            verifications: 4,
            detected: 2,
            corrected: 2,
            injected: 3,
            retried_panels: 0,
        };
        l.absorb(Arm::Inj, missed);
        let phantom = OpReport {
            verifications: 4,
            detected: 1,
            corrected: 1,
            injected: 1,
            retried_panels: 0,
        };
        l.absorb(Arm::Ft, phantom);
        assert_eq!(l.counter_mismatches, 2);
        assert_eq!(l.reports[Arm::Inj.index()].injected, 10);
    }
}
