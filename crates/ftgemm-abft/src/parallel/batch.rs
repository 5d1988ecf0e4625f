//! Batched (FT-)GEMM: many small problems through one parallel region.
//!
//! [`par_ft_gemm_with_ws`](crate::parallel::par_ft_gemm_with_ws) parallelizes
//! *inside* one matrix — the right shape when a single GEMM is large enough
//! to feed every core. A serving workload is the opposite: thousands of
//! small GEMMs, each far too small to amortize a parallel region of its
//! own. [`par_batch_ft_gemm_timed`] flips the partitioning axis: the
//! **batch** is distributed over the pool's threads, and every item runs
//! the *serial* execute path on its owning thread, reusing that thread's
//! [`Workspace`] across items (and across batches, via [`BatchWorkspace`]).
//!
//! Scheduling is dynamic (an atomic cursor over the item array, OpenMP
//! `schedule(dynamic)` style) so heterogeneous batches do not leave threads
//! idle behind one long item. Which thread takes which item is therefore a
//! race, and nothing an item computes depends on it: its injection streams
//! derive from the batch's count of protected items, not from the slot that
//! ran it, so a batch's fault pattern replays on any pool.

use crate::ft_gemm::execute_call;
use crate::nest::Shared;
use crate::parallel::ParGemmContext;
use crate::{FtConfig, FtReport, FtResult, Setup, Workspace};
use ftgemm_core::{MatMut, MatRef, Scalar};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One GEMM problem inside a batch: `C = alpha*A*B + beta*C`.
///
/// `cfg: None` runs the plain (unprotected) serial driver; `Some(cfg)` runs
/// the fused-ABFT driver with that per-item configuration — items of one
/// batch may freely mix protection levels.
pub struct BatchItem<'a, T: Scalar> {
    /// Scaling factor applied to `A*B`.
    pub alpha: T,
    /// Left operand.
    pub a: MatRef<'a, T>,
    /// Right operand.
    pub b: MatRef<'a, T>,
    /// Scaling factor applied to the input `C`.
    pub beta: T,
    /// Output (accumulated in place).
    pub c: MatMut<'a, T>,
    /// Per-item fault-tolerance configuration; `None` = no protection.
    pub cfg: Option<&'a FtConfig>,
}

/// One serial [`Workspace`] per pool thread, reused across batches so packed
/// `A~`/`B~` buffers and checksum vectors are allocated once per thread
/// rather than once per request, and the count of protected items the
/// batches run on it have drawn their ids from.
///
/// Slot `t` is only ever locked by pool thread `t` during a batch region, so
/// the mutexes are uncontended; they exist to keep the type `Sync` and to
/// allow the owner to be dropped independently of the pool.
pub struct BatchWorkspace<T: Scalar> {
    slots: Vec<Mutex<Workspace<T>>>,
    /// Protected items run so far, by every workspace sharing the count:
    /// the `r`-th protected item of a batch (from 1) draws from call
    /// `calls + r`, `calls` read at batch start.
    calls: Arc<AtomicU64>,
}

impl<T: Scalar> BatchWorkspace<T> {
    /// One empty workspace slot per pool thread, running the context's
    /// kernel and blocking parameters, with a count of its own.
    pub fn new(ctx: &ParGemmContext<T>) -> Self {
        Self::with_calls(ctx, Arc::default())
    }

    /// [`new`](Self::new) for `ctx`, drawing its protected items' ids from
    /// this workspace's count: batches run on either never share an id, so
    /// never an injection stream.
    pub fn sharing_calls(&self, ctx: &ParGemmContext<T>) -> Self {
        Self::with_calls(ctx, Arc::clone(&self.calls))
    }

    fn with_calls(ctx: &ParGemmContext<T>, calls: Arc<AtomicU64>) -> Self {
        let solo = Setup {
            nthreads: 1,
            ..Setup::from(ctx)
        };
        let slots = (0..ctx.nthreads())
            .map(|_| Mutex::new(Workspace::for_problem(solo, 0, 0, 0)))
            .collect();
        BatchWorkspace { slots, calls }
    }
}

/// Per-thread occupancy measurements of one batched parallel region,
/// returned by [`par_batch_ft_gemm_timed`].
///
/// `thread_busy[t]` is the time pool thread `t` spent inside the region
/// (from entering the region closure to exhausting the work cursor —
/// i.e. workspace lock, item compute, and cursor traffic). With dynamic
/// scheduling a thread that drew the one long item shows a busy time near
/// `wall` while its peers finish early, so the spread of `thread_busy` is
/// exactly the occupancy imbalance a serving layer wants to watch.
#[derive(Debug, Clone, Default)]
pub struct BatchTiming {
    /// Wall time of the whole parallel region (region entry to barrier exit,
    /// measured on the calling thread).
    pub wall: Duration,
    /// Busy time per pool thread, indexed by thread id (`len == nthreads`).
    pub thread_busy: Vec<Duration>,
}

impl BatchTiming {
    /// Summed busy time across threads.
    pub fn busy_total(&self) -> Duration {
        self.thread_busy.iter().sum()
    }

    /// Mean fraction of the region each thread spent busy:
    /// `busy_total / (wall * nthreads)`, in `[0, 1]` up to timer noise.
    /// `0.0` for an empty/degenerate region.
    pub fn occupancy(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.thread_busy.len() as f64;
        if denom <= 0.0 {
            0.0
        } else {
            self.busy_total().as_secs_f64() / denom
        }
    }
}

/// Executes every item of `items` across the pool, one serial driver per
/// item, and returns one `FtResult<FtReport>` per item (index-aligned)
/// plus a [`BatchTiming`] describing how evenly the batch loaded the pool.
/// The instrumentation is two `Instant` reads per thread per region —
/// negligible against any real batch.
///
/// Plain items (`cfg: None`) report `FtReport::default()` on success. A
/// shape error in one item is recorded in that item's slot and does not
/// affect the rest of the batch.
pub fn par_batch_ft_gemm_timed<T: Scalar>(
    ctx: &ParGemmContext<T>,
    ws: &BatchWorkspace<T>,
    items: &mut [BatchItem<'_, T>],
) -> (Vec<FtResult<FtReport>>, BatchTiming) {
    let n = items.len();
    let mut results: Vec<FtResult<FtReport>> = Vec::with_capacity(n);
    results.resize_with(n, || Ok(FtReport::default()));
    if n == 0 {
        return (
            results,
            BatchTiming {
                wall: Duration::ZERO,
                thread_busy: vec![Duration::ZERO; ctx.nthreads()],
            },
        );
    }
    assert!(
        ws.slots.len() >= ctx.nthreads(),
        "workspace has {} slots for a {}-thread pool",
        ws.slots.len(),
        ctx.nthreads()
    );

    // Ids by rank among the protected items, taken from the count at once,
    // so they do not depend on the thread that runs an item.
    let protected = items.iter().filter(|item| item.cfg.is_some()).count();
    let mut next = ws.calls.fetch_add(protected as u64, Ordering::Relaxed);
    let calls: Vec<Option<u64>> = items
        .iter()
        .map(|item| {
            item.cfg.map(|_| {
                next += 1;
                next
            })
        })
        .collect();

    let (items, outs) = (Shared::new(items), Shared::new(&mut results));
    let cursor = AtomicUsize::new(0);
    let busy_ns: Vec<AtomicU64> = (0..ctx.nthreads()).map(|_| AtomicU64::new(0)).collect();

    let region_start = Instant::now();
    ctx.pool().run(|w| {
        let thread_start = Instant::now();
        let mut slot = ws.slots[w.tid].lock();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // SAFETY: the atomic cursor hands out each index exactly once,
            // so item/result accesses are disjoint across threads, and the
            // region barrier in `run` orders them against the caller.
            let item = unsafe { &mut items.slice_mut(i..i + 1)[0] };
            let out = unsafe { &mut outs.slice_mut(i..i + 1)[0] };
            *out = execute_call(
                None,
                &mut slot,
                item.cfg,
                calls[i],
                true,
                item.alpha,
                &item.a,
                &item.b,
                item.beta,
                &mut item.c,
            );
        }
        busy_ns[w.tid].store(
            thread_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    });
    let wall = region_start.elapsed();

    let timing = BatchTiming {
        wall,
        thread_busy: busy_ns
            .iter()
            .map(|ns| Duration::from_nanos(ns.load(Ordering::Relaxed)))
            .collect(),
    };
    (results, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ErrorModel, FaultInjector, Rate};
    use crate::ft_gemm_with_ctx;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;

    fn random_problem(
        m: usize,
        n: usize,
        k: usize,
        seed: u64,
    ) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Matrix::<f64>::random(m, k, seed),
            Matrix::<f64>::random(k, n, seed + 1),
            Matrix::<f64>::random(m, n, seed + 2),
        )
    }

    #[test]
    fn batch_matches_serial_loop() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let ws = BatchWorkspace::new(&ctx);
        let shapes = [
            (17, 23, 9),
            (64, 64, 64),
            (5, 80, 33),
            (40, 1, 12),
            (1, 1, 1),
            (96, 31, 50),
        ];
        let cfg = FtConfig::default();

        let mut problems: Vec<_> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, k))| random_problem(m, n, k, 100 + i as u64 * 7))
            .collect();
        let mut expected: Vec<Matrix<f64>> = problems.iter().map(|(_, _, c)| c.clone()).collect();
        for ((a, b, _), c_exp) in problems.iter().zip(expected.iter_mut()) {
            ft_gemm_with_ctx(
                &mut Workspace::new(),
                &cfg,
                1.5,
                &a.as_ref(),
                &b.as_ref(),
                0.5,
                &mut c_exp.as_mut(),
            )
            .unwrap();
        }

        let mut items: Vec<BatchItem<'_, f64>> = problems
            .iter_mut()
            .map(|(a, b, c)| BatchItem {
                alpha: 1.5,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.5,
                c: c.as_mut(),
                cfg: Some(&cfg),
            })
            .collect();
        let results = par_batch_ft_gemm_timed(&ctx, &ws, &mut items).0;
        drop(items);

        for (i, r) in results.iter().enumerate() {
            let rep = r.as_ref().unwrap();
            assert_eq!(rep.detected, 0, "item {i}");
            assert!(rep.verifications > 0, "item {i}");
        }
        for (i, ((_, _, c), c_exp)) in problems.iter().zip(expected.iter()).enumerate() {
            assert!(c.rel_max_diff(c_exp) < 1e-12, "item {i}");
        }
    }

    #[test]
    fn mixed_protection_batch() {
        let ctx = ParGemmContext::<f64>::with_threads(3);
        let ws = BatchWorkspace::new(&ctx);
        let cfg = FtConfig::default();
        let (a, b, c0) = random_problem(30, 40, 20, 9);
        let mut c_ft = c0.clone();
        let mut c_plain = c0.clone();
        let mut c_exp = c0.clone();
        naive_gemm(2.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_exp.as_mut());

        let mut items = vec![
            BatchItem {
                alpha: 2.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 1.0,
                c: c_ft.as_mut(),
                cfg: Some(&cfg),
            },
            BatchItem {
                alpha: 2.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 1.0,
                c: c_plain.as_mut(),
                cfg: None,
            },
        ];
        let results = par_batch_ft_gemm_timed(&ctx, &ws, &mut items).0;
        drop(items);
        assert!(results[0].as_ref().unwrap().verifications > 0);
        assert_eq!(results[1].as_ref().unwrap(), &FtReport::default());
        assert!(c_ft.rel_max_diff(&c_exp) < 1e-10);
        assert!(c_plain.rel_max_diff(&c_exp) < 1e-10);
    }

    #[test]
    fn injected_errors_corrected_per_item() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let ws = BatchWorkspace::new(&ctx);
        let inj = FaultInjector::new(3, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(1));
        let cfg = FtConfig::with_injector(inj);
        let clean_cfg = FtConfig::default();

        let mut problems: Vec<_> = (0..8)
            .map(|i| random_problem(48, 48, 32, 500 + i))
            .collect();
        let mut expected: Vec<Matrix<f64>> = problems.iter().map(|(_, _, c)| c.clone()).collect();
        for ((a, b, _), c_exp) in problems.iter().zip(expected.iter_mut()) {
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_exp.as_mut());
        }

        let mut items: Vec<BatchItem<'_, f64>> = problems
            .iter_mut()
            .enumerate()
            .map(|(i, (a, b, c))| BatchItem {
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 1.0,
                c: c.as_mut(),
                cfg: Some(if i % 2 == 0 { &cfg } else { &clean_cfg }),
            })
            .collect();
        let results = par_batch_ft_gemm_timed(&ctx, &ws, &mut items).0;
        drop(items);

        let total = FtReport::merged(results.iter().map(|r| *r.as_ref().unwrap()));
        assert!(total.injected > 0);
        assert_eq!(total.corrected, total.injected);
        for (i, ((_, _, c), c_exp)) in problems.iter().zip(expected.iter()).enumerate() {
            assert!(c.rel_max_diff(c_exp) < 1e-9, "item {i}");
        }
    }

    #[test]
    fn shape_error_isolated_to_its_item() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let ws = BatchWorkspace::new(&ctx);
        let (a, _b, mut c) = random_problem(10, 10, 10, 1);
        let bad_b = Matrix::<f64>::zeros(3, 10); // k mismatch
        let (a2, b2, mut c2) = random_problem(12, 8, 6, 2);
        let mut c_exp = c2.clone();
        naive_gemm(1.0, &a2.as_ref(), &b2.as_ref(), 0.0, &mut c_exp.as_mut());

        let mut items = vec![
            BatchItem {
                alpha: 1.0,
                a: a.as_ref(),
                b: bad_b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
                cfg: None,
            },
            BatchItem {
                alpha: 1.0,
                a: a2.as_ref(),
                b: b2.as_ref(),
                beta: 0.0,
                c: c2.as_mut(),
                cfg: None,
            },
        ];
        let results = par_batch_ft_gemm_timed(&ctx, &ws, &mut items).0;
        drop(items);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert!(c2.rel_max_diff(&c_exp) < 1e-10);
    }

    #[test]
    fn empty_batch() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let ws = BatchWorkspace::new(&ctx);
        let mut items: Vec<BatchItem<'_, f64>> = Vec::new();
        assert!(par_batch_ft_gemm_timed(&ctx, &ws, &mut items).0.is_empty());
        let (_, timing) = par_batch_ft_gemm_timed(&ctx, &ws, &mut items);
        assert_eq!(timing.thread_busy, vec![Duration::ZERO; 2]);
        assert_eq!(timing.occupancy(), 0.0);
    }

    #[test]
    fn single_thread_busy_tracks_wall() {
        // With one thread the region closure runs inline on the caller, so
        // its busy time and the region wall time bracket the same work: the
        // busy sum must be ≈ the wall time (within scheduling overhead).
        let ctx = ParGemmContext::<f64>::with_threads(1);
        let ws = BatchWorkspace::new(&ctx);
        let mut problems: Vec<_> = (0..6).map(|i| random_problem(96, 96, 96, 40 + i)).collect();
        let cfg = FtConfig::default();
        let mut items: Vec<BatchItem<'_, f64>> = problems
            .iter_mut()
            .map(|(a, b, c)| BatchItem {
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
                cfg: Some(&cfg),
            })
            .collect();
        let (results, timing) = par_batch_ft_gemm_timed(&ctx, &ws, &mut items);
        drop(items);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(timing.thread_busy.len(), 1);
        assert!(timing.wall > Duration::ZERO);
        assert!(timing.thread_busy[0] <= timing.wall);
        assert!(
            timing.busy_total() >= timing.wall / 2,
            "busy {:?} vs wall {:?}",
            timing.busy_total(),
            timing.wall
        );
        assert!(timing.occupancy() > 0.0 && timing.occupancy() <= 1.0 + 1e-6);
    }

    #[test]
    fn multi_thread_busy_bounded_by_wall() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let ws = BatchWorkspace::new(&ctx);
        let mut problems: Vec<_> = (0..16)
            .map(|i| random_problem(64, 64, 64, 70 + i))
            .collect();
        let cfg = FtConfig::default();
        let mut items: Vec<BatchItem<'_, f64>> = problems
            .iter_mut()
            .map(|(a, b, c)| BatchItem {
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
                cfg: Some(&cfg),
            })
            .collect();
        let (results, timing) = par_batch_ft_gemm_timed(&ctx, &ws, &mut items);
        drop(items);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(timing.thread_busy.len(), 4);
        // Per-thread busy time cannot exceed the region wall time (small
        // slack for clock granularity across threads).
        let slack = Duration::from_millis(2);
        for (t, busy) in timing.thread_busy.iter().enumerate() {
            assert!(
                *busy <= timing.wall + slack,
                "thread {t}: {busy:?} > {:?}",
                timing.wall
            );
        }
        assert!(timing.busy_total() > Duration::ZERO);
    }
}
