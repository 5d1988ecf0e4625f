//! Pins the `GemmPlan` zero-allocation contract with a counting global
//! allocator: once a plan exists, `plan.run` must not touch the heap.
//! Serial plans are measured allocation-by-allocation; so is the calling
//! thread of a parallel plan (thread 0 of its regions — everything the nest
//! could grow, the base snapshot included, it would grow there, before the
//! region), which is additionally pinned by workspace-pointer stability.
//!
//! The counter is per thread: the test harness runs sibling tests on other
//! threads of this process, and their allocations are not the measured
//! plan's. It also sums requested bytes, which pins what a `DetectCorrect`
//! plan holds for rollback: nothing at `beta == 0`, serial or parallel.
//! A buffer `ftgemm::core::aligned` serves from a dropped one of its length
//! never reaches the allocator, so the thread's spares taken back count as
//! allocations too, with their bytes.

use ftgemm::core::aligned::spares_taken_here;
use ftgemm::{Exec, FtPolicy, GemmOp, Matrix, ParGemmContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread, and the bytes they asked for.
    /// `const`-initialised and without a destructor, so touching them from
    /// inside the allocator never allocates or registers anything itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations are nobody's measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: delegates verbatim to the system allocator; the counter is a
// plain thread-local cell with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread, spares taken included.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get) + spares_taken_here().0
}

/// Bytes requested so far by the calling thread, spares taken included.
fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get) + spares_taken_here().1 as u64
}

#[test]
fn serial_protected_plan_runs_allocation_free() {
    let a = Matrix::<f64>::random(96, 72, 1);
    let b = Matrix::<f64>::random(72, 80, 2);
    let mut c = Matrix::<f64>::zeros(96, 80);

    // beta == 0 holds no rollback state; beta != 0 holds the column block's
    // base snapshot, which the plan must have reserved up front.
    for beta in [0.0, 0.5] {
        let mut plan = GemmOp::new(&a, &b)
            .beta(beta)
            .ft(FtPolicy::DetectCorrect)
            .plan(Exec::Serial)
            .unwrap();

        // Warm-up run (first call may still touch lazily initialized
        // globals, e.g. CPU feature detection).
        plan.run(&mut c.as_mut()).unwrap();

        let before = allocations();
        for _ in 0..5 {
            let report = plan.run(&mut c.as_mut()).unwrap();
            assert_eq!(report.detected, 0);
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "serial protected plan.run (beta {beta}) allocated {} times",
            after - before
        );
    }
}

/// What a `DetectCorrect` plan on `exec` holds for rollback, in bytes
/// requested to build the plan and run it once: nothing beyond a `Detect`
/// plan at `beta == 0`, the `m x NC` base snapshot at `beta != 0`.
fn holds_a_base_snapshot_only_at_nonzero_beta(exec: Exec<'_, f64>) {
    let (m, n, k) = (96, 80, 72);
    let a = Matrix::<f64>::random(m, k, 1);
    let b = Matrix::<f64>::random(k, n, 2);
    let plan_bytes = |policy, beta| {
        let mut c = Matrix::<f64>::zeros(m, n);
        let before = bytes_allocated();
        let mut plan = GemmOp::new(&a, &b)
            .beta(beta)
            .ft(policy)
            .plan(exec)
            .unwrap();
        plan.run(&mut c.as_mut()).unwrap();
        bytes_allocated() - before
    };
    plan_bytes(FtPolicy::Detect, 0.0); // lazily initialized globals
    let detect = plan_bytes(FtPolicy::Detect, 0.0);
    let dc_zero = plan_bytes(FtPolicy::DetectCorrect, 0.0);
    let dc_scaled = plan_bytes(FtPolicy::DetectCorrect, 0.5);
    assert!(
        dc_zero <= detect,
        "DetectCorrect at beta == 0 requested {dc_zero} bytes, Detect {detect}"
    );
    // The counter does see the m x NC base snapshot where one is kept.
    let snapshot = (m * n * std::mem::size_of::<f64>()) as u64;
    assert!(
        dc_scaled >= detect + snapshot,
        "DetectCorrect at beta != 0 requested {dc_scaled} bytes, Detect {detect}"
    );
}

#[test]
fn detect_correct_at_beta_zero_holds_no_more_than_detect() {
    holds_a_base_snapshot_only_at_nonzero_beta(Exec::Serial);
}

#[test]
fn parallel_detect_correct_holds_no_base_snapshot_at_beta_zero() {
    let ctx = ParGemmContext::<f64>::with_threads(2);
    holds_a_base_snapshot_only_at_nonzero_beta(Exec::Parallel(&ctx));
}

#[test]
fn parallel_protected_plan_runs_allocation_free() {
    let ctx = ParGemmContext::<f64>::with_threads(3);
    let a = Matrix::<f64>::random(120, 90, 5);
    let b = Matrix::<f64>::random(90, 100, 6);
    let mut c = Matrix::<f64>::zeros(120, 100);
    let plan = |beta| {
        GemmOp::new(&a, &b)
            .beta(beta)
            .ft(FtPolicy::DetectCorrect)
            .plan(Exec::Parallel(&ctx))
            .unwrap()
    };
    // Lazily initialized globals (CPU detection, metric registration) go to
    // a plan of their own, so the measured one is counted from its first
    // run: the base snapshot it restores from at beta != 0 was reserved at
    // plan time, not grown by the first call.
    plan(0.5).run(&mut c.as_mut()).unwrap();
    for beta in [0.0, 0.5] {
        let mut plan = plan(beta);
        let before = allocations();
        for _ in 0..5 {
            let report = plan.run(&mut c.as_mut()).unwrap();
            assert_eq!(report.detected, 0);
        }
        assert_eq!(
            allocations() - before,
            0,
            "parallel protected plan.run (beta {beta}) allocated"
        );
    }
}

#[test]
fn serial_plain_plan_runs_allocation_free() {
    let a = Matrix::<f64>::random(64, 64, 3);
    let b = Matrix::<f64>::random(64, 64, 4);
    let mut c = Matrix::<f64>::zeros(64, 64);

    let mut plan = GemmOp::new(&a, &b)
        .ft(FtPolicy::Off)
        .plan(Exec::Serial)
        .unwrap();
    plan.run(&mut c.as_mut()).unwrap();

    let before = allocations();
    for _ in 0..5 {
        plan.run(&mut c.as_mut()).unwrap();
    }
    assert_eq!(allocations() - before, 0);
}

#[test]
fn parallel_plan_workspace_is_pointer_stable() {
    let ctx = ParGemmContext::<f64>::with_threads(3);
    let a = Matrix::<f64>::random(120, 90, 5);
    let b = Matrix::<f64>::random(90, 100, 6);
    let mut c = Matrix::<f64>::zeros(120, 100);

    let mut plan = GemmOp::new(&a, &b)
        .ft(FtPolicy::DetectCorrect)
        .plan(Exec::Parallel(&ctx))
        .unwrap();
    let addr = plan
        .workspace_addr()
        .expect("parallel plan has a workspace");
    for _ in 0..5 {
        plan.run(&mut c.as_mut()).unwrap();
        assert_eq!(
            plan.workspace_addr(),
            Some(addr),
            "workspace reallocated across runs"
        );
    }
}
