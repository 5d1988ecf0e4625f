//! The persistent worker pool and its OpenMP-style **parallel regions**,
//! the runtime the paper's threaded FT-GEMM (§2.3 / Fig. 1) runs on.
//!
//! The paper's threaded algorithm is structured as one `#pragma omp
//! parallel` region containing cooperative packing, barriers, and per-thread
//! private buffers. Rayon-style fork-join does not map cleanly onto that
//! (threads must meet at barriers *inside* one long-lived region, keeping
//! thread-private state across phases), so this module provides the runtime
//! the C code gets from OpenMP:
//!
//! * [`ThreadPool::run`] — execute a closure on every thread of the pool
//!   simultaneously (the parallel region); returns when all threads finish;
//! * [`WorkerCtx::barrier`] — epoch barrier across the region;
//! * [`partition_aligned`] — static loop partitioning with alignment (the
//!   `M`-dimension split must respect the micro-tile height `MR`).
//!
//! That is all of the paper's threaded runtime, and all this module holds: a
//! pool knows nothing of memory domains, and no worker is pinned to a CPU.
//!
//! Workers park on a condvar between regions, so an idle pool costs nothing;
//! inside a region, barriers spin briefly and then yield.

// Concurrency contract (checked by `scripts/orderings.sh`): `run` and
// `Drop` publish each job through `generation` (Release increment under the
// `job` lock), and workers wait for a generation they have not run (Acquire
// loads). `regions` and `barrier_crossings` are Relaxed tallies.

mod barrier;
mod partition;

pub use partition::partition_aligned;

use barrier::EpochBarrier;
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Type-erased reference to the region closure.
///
/// `run` publishes a pointer to a stack closure; the completion barrier at
/// the end of the region guarantees the closure outlives every use, making
/// the lifetime erasure sound.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    call: unsafe fn(*const (), &WorkerCtx<'_>),
}

// SAFETY: JobRef is only dereferenced while the publishing `run` call is
// blocked on the completion barrier, and the underlying closure is Sync.
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

/// Lock order: `region`, then `job`. [`ThreadPool::run`] is the one function
/// in the workspace that holds two guards at once (it publishes the job
/// while it holds the region); workers take `job` alone, and nothing takes
/// `region` while it holds `job`.
struct Shared {
    /// Held by the caller of `run` for a whole multi-thread region: the job
    /// slot and `done_barrier` below serve exactly one region at a time.
    region: Mutex<()>,
    /// Latest published job; `None` tells workers to exit.
    job: Mutex<Option<JobRef>>,
    wake: Condvar,
    /// Barrier used by `WorkerCtx::barrier` inside regions.
    region_barrier: EpochBarrier,
    /// Barrier marking the end of a region (main thread participates).
    done_barrier: EpochBarrier,
    /// Jobs published so far. Bumped only while `job` is held, so a worker
    /// holding `job` that sees a generation it has not run reads its job.
    generation: AtomicU64,
    /// Lifetime counters, readable while regions run (relaxed loads); the
    /// hook a serving layer uses to report pool utilization without
    /// instrumenting every call site.
    regions: AtomicU64,
    barrier_crossings: AtomicU64,
}

/// Snapshot of a pool's lifetime activity counters.
///
/// `regions` counts [`ThreadPool::run`] invocations; `barrier_crossings`
/// counts individual thread arrivals at [`WorkerCtx::barrier`] (one region
/// with `t` threads and `b` barriers contributes `t * b`). Both are
/// monotonically increasing, so a monitor can difference two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions executed so far.
    pub regions: u64,
    /// Thread arrivals at in-region barriers so far.
    pub barrier_crossings: u64,
}

/// Per-thread context handed to the region closure.
pub struct WorkerCtx<'a> {
    /// Thread index in `0..nthreads` (0 is the caller of [`ThreadPool::run`]).
    pub tid: usize,
    /// Number of threads in the region.
    pub nthreads: usize,
    shared: &'a Shared,
}

impl WorkerCtx<'_> {
    /// Synchronizes all threads of the region (OpenMP `#pragma omp barrier`).
    pub fn barrier(&self) {
        self.shared
            .barrier_crossings
            .fetch_add(1, Ordering::Relaxed);
        self.shared.region_barrier.wait();
    }

    /// This thread's aligned chunk of `0..len` (paper's M/N partitioning).
    pub fn partition(&self, len: usize, align: usize) -> Range<usize> {
        partition_aligned(len, self.nthreads, self.tid, align)
    }
}

/// A pool of `nthreads - 1` persistent workers; the thread calling
/// [`ThreadPool::run`] acts as thread 0 of every region.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("nthreads", &self.nthreads)
            .finish()
    }
}

impl ThreadPool {
    /// Pool with `nthreads` total region participants (`>= 1`).
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads >= 1, "pool needs at least one thread");
        let shared = Arc::new(Shared {
            region: Mutex::new(()),
            job: Mutex::new(None),
            wake: Condvar::new(),
            region_barrier: EpochBarrier::new(nthreads),
            done_barrier: EpochBarrier::new(nthreads),
            generation: AtomicU64::new(0),
            regions: AtomicU64::new(0),
            barrier_crossings: AtomicU64::new(0),
        });
        let mut handles = Vec::new();
        for tid in 1..nthreads {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ftgemm-worker-{tid}"))
                    .spawn(move || worker_loop(shared, tid))
                    .expect("failed to spawn pool worker"),
            );
        }
        pool_workers_gauge().add(handles.len() as f64);
        ThreadPool {
            shared,
            handles,
            nthreads,
        }
    }

    /// Number of threads participating in each region.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Lifetime activity counters (regions run, barrier crossings).
    ///
    /// Safe to call concurrently with running regions; the snapshot is a
    /// pair of independent relaxed loads.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            regions: self.shared.regions.load(Ordering::Relaxed),
            barrier_crossings: self.shared.barrier_crossings.load(Ordering::Relaxed),
        }
    }

    /// Executes `f` as a parallel region on all threads; returns when every
    /// thread has finished. Panics in workers propagate as a pool poison
    /// (abort) rather than deadlocks: the closure is required to be
    /// panic-free in practice (compute kernels do not panic).
    ///
    /// One region at a time per pool: concurrent callers queue on a region
    /// lock and run one after another, each as thread 0 of its own region.
    /// A 1-thread pool runs `f` inline on the caller and takes no lock.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&WorkerCtx<'_>) + Sync,
    {
        self.shared.regions.fetch_add(1, Ordering::Relaxed);
        ftgemm_obs::global_counter!(
            "ftgemm_pool_regions_total",
            "Parallel regions executed across every pool in the process."
        )
        .inc();
        if self.nthreads == 1 {
            // Degenerate pool: run inline, still providing barrier semantics.
            let ctx = WorkerCtx {
                tid: 0,
                nthreads: 1,
                shared: &self.shared,
            };
            f(&ctx);
            return;
        }

        // Taken after the inline return above, so 1-thread pools pay nothing.
        let _region = self.shared.region.lock();

        unsafe fn call_impl<F: Fn(&WorkerCtx<'_>) + Sync>(data: *const (), ctx: &WorkerCtx<'_>) {
            // SAFETY: `data` was created from an `&F` in this function and
            // remains alive until the done-barrier below releases.
            let f = unsafe { &*data.cast::<F>() };
            f(ctx);
        }
        let job = JobRef {
            data: (&f as *const F).cast::<()>(),
            call: call_impl::<F>,
        };

        // Publish the job and wake workers.
        {
            let mut slot = self.shared.job.lock();
            *slot = Some(job);
            self.shared.generation.fetch_add(1, Ordering::Release);
            self.shared.wake.notify_all();
        }

        // Participate as thread 0.
        let ctx = WorkerCtx {
            tid: 0,
            nthreads: self.nthreads,
            shared: &self.shared,
        };
        f(&ctx);

        // Wait for all workers to finish the region; after this, `f` may be
        // dropped safely.
        self.shared.done_barrier.wait();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.job.lock();
            *slot = None; // shutdown signal
            self.shared.generation.fetch_add(1, Ordering::Release);
            self.shared.wake.notify_all();
        }
        let joined = self.handles.len();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        pool_workers_gauge().add(-(joined as f64));
    }
}

/// Process-wide gauge of live pool worker threads (region-calling threads
/// excluded — a 1-thread pool contributes 0).
fn pool_workers_gauge() -> &'static ftgemm_obs::Gauge {
    ftgemm_obs::global_gauge!(
        "ftgemm_pool_workers",
        "Live worker threads across every pool in the process."
    )
}

fn worker_loop(shared: Arc<Shared>, tid: usize) {
    let mut seen_gen = 0u64;
    loop {
        let job = {
            let mut slot = shared.job.lock();
            while shared.generation.load(Ordering::Acquire) == seen_gen {
                shared.wake.wait(&mut slot);
            }
            // Still under `job`, so this is the generation of `*slot`.
            seen_gen = shared.generation.load(Ordering::Acquire);
            *slot
        };
        let Some(job) = job else {
            return; // shutdown
        };
        let nthreads = shared.done_barrier.participants();
        let ctx = WorkerCtx {
            tid,
            nthreads,
            shared: &shared,
        };
        // SAFETY: the publishing thread blocks on done_barrier until we
        // arrive below, so the closure behind `job` is still alive.
        unsafe { (job.call)(job.data, &ctx) };
        shared.done_barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_threads_run_once() {
        let pool = ThreadPool::new(6);
        let hits = AtomicUsize::new(0);
        let tid_mask = AtomicUsize::new(0);
        pool.run(|ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
            tid_mask.fetch_or(1 << ctx.tid, Ordering::Relaxed);
            assert_eq!(ctx.nthreads, 6);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 6);
        assert_eq!(tid_mask.load(Ordering::Relaxed), 0b11_1111);
    }

    #[test]
    fn regions_run_sequentially() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        for round in 0..50 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), (round + 1) * 4);
        }
    }

    #[test]
    fn barrier_inside_region() {
        let pool = ThreadPool::new(8);
        let stage = AtomicUsize::new(0);
        pool.run(|ctx| {
            stage.fetch_add(1, Ordering::Relaxed);
            ctx.barrier();
            // Every thread must see all 8 first-stage increments.
            assert!(stage.load(Ordering::Relaxed) >= 8);
            ctx.barrier();
            stage.fetch_add(100, Ordering::Relaxed);
        });
        assert_eq!(stage.load(Ordering::Relaxed), 8 + 800);
    }

    #[test]
    fn writes_to_disjoint_partitions() {
        let pool = ThreadPool::new(5);
        let n = 1003;
        let mut data = vec![0usize; n];
        let ptr = SendPtr(data.as_mut_ptr());
        pool.run(|ctx| {
            let range = ctx.partition(n, 8);
            let p = ptr;
            for i in range {
                // SAFETY: partitions are disjoint per partition_aligned.
                unsafe { *p.0.add(i) = ctx.tid + 1 };
            }
        });
        assert!(data.iter().all(|&v| v != 0));
    }

    #[derive(Clone, Copy)]
    struct SendPtr(*mut usize);
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut touched = false;
        let cell = std::cell::Cell::new(&mut touched);
        pool.run(|ctx| {
            assert_eq!(ctx.tid, 0);
            ctx.barrier(); // must not deadlock
        });
        let _ = cell;
    }

    #[test]
    fn closure_captures_by_reference() {
        let pool = ThreadPool::new(3);
        let input: Vec<usize> = (0..100).collect();
        let total = AtomicUsize::new(0);
        pool.run(|ctx| {
            let r = ctx.partition(input.len(), 1);
            let s: usize = input[r].iter().sum();
            total.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn stats_count_regions_and_barriers() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.stats(), PoolStats::default());
        for _ in 0..5 {
            pool.run(|ctx| {
                ctx.barrier();
                ctx.barrier();
            });
        }
        let s = pool.stats();
        assert_eq!(s.regions, 5);
        assert_eq!(s.barrier_crossings, 5 * 3 * 2);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        pool.run(|_| {});
        drop(pool); // must not hang
    }

    /// `callers` threads hammer one shared `workers`-thread pool with
    /// `regions` regions each; every region must run its closure exactly
    /// once per tid. Runs under a watchdog so that a pool which lets two
    /// callers into a region at once (overwritten job slot, mis-counted
    /// `done_barrier`) fails with a message instead of hanging the suite.
    fn hammer(callers: usize, workers: usize, regions: usize) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = ThreadPool::new(workers);
            let start = EpochBarrier::new(callers);
            std::thread::scope(|s| {
                for caller in 0..callers {
                    let (pool, start) = (&pool, &start);
                    s.spawn(move || {
                        start.wait(); // all callers enter the loop together
                        for region in 0..regions {
                            let hits: Vec<AtomicUsize> =
                                (0..workers).map(|_| AtomicUsize::new(0)).collect();
                            pool.run(|ctx| {
                                assert_eq!(ctx.nthreads, workers);
                                hits[ctx.tid].fetch_add(1, Ordering::Relaxed);
                            });
                            for (tid, h) in hits.iter().enumerate() {
                                assert_eq!(
                                    h.load(Ordering::Relaxed),
                                    1,
                                    "caller {caller} region {region}: tid {tid} ran its closure a wrong number of times"
                                );
                            }
                        }
                    });
                }
            });
            assert_eq!(pool.stats().regions, (callers * regions) as u64);
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!(
                "{callers} concurrent callers of ThreadPool::run on one {workers}-thread pool \
                 deadlocked (regions must be serialised per pool)"
            ),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                panic!("a hammer thread panicked: a region ran with the wrong participants")
            }
        }
    }

    #[test]
    fn two_callers_share_one_pool() {
        hammer(2, 3, 3000);
    }

    #[test]
    fn four_callers_share_one_pool() {
        hammer(4, 2, 2000);
    }

    #[test]
    fn many_small_regions_stress() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..2000 {
            pool.run(|ctx| {
                counter.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000 * 4 * 2);
    }
}
