//! Pins what `GemmService`'s large path costs in memory once it is warm:
//! nothing. The service keeps one matrix-parallel workspace (paper §2.3:
//! the shared `B~` and each thread's `A~` are requested once and reused),
//! so after the shapes it serves have been seen, a large request makes no
//! allocation of packing-buffer size on any service thread, and what the
//! service holds stays under the bound its blocking sets.
//!
//! A counting global allocator tallies allocations of at least 64 KiB made
//! by every thread *except* the submitting one — the dispatcher and its
//! pool; the submitter builds operand and result matrices, which are the
//! request, not the service. Buffers large enough to be mapped from the OS
//! never reach a global allocator (`ftgemm::core::aligned`), so those are
//! counted process-wide, mapped fresh or taken back from the spares dropped
//! mappings leave, and held to the request's own result; a repeated burst
//! of results maps nothing at all. Its own binary,
//! with one test: a sibling test's service threads would be counted too.

use ftgemm::abft::nest::packed_lens;
use ftgemm::core::aligned::{huge_buffers, mapped_buffers, recycled_buffers};
use ftgemm::serve::{
    FtPolicy, GemmRequest, GemmService, RequestHandle, RoutingPolicy, ServiceConfig,
};
use ftgemm::{Matrix, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const LARGE: usize = 64 * 1024;

struct CountingAlloc;

/// Allocations of at least [`LARGE`] bytes by threads that are not submitting.
static LARGE_OFF_SUBMITTER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `const`-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates or registers anything itself.
    static SUBMITTING: Cell<bool> = const { Cell::new(false) };
}

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; nothing that large happens there.
    if bytes >= LARGE && !SUBMITTING.try_with(Cell::get).unwrap_or(true) {
        LARGE_OFF_SUBMITTER.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to the system allocator; the counters are an
// atomic and a plain thread-local cell with no allocation of their own.
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

#[test]
fn a_warm_node_serves_large_requests_without_large_allocations() {
    const THREADS: usize = 2;
    SUBMITTING.with(|s| s.set(true));

    // What a request maps by itself is its result, which `GemmRequest::new`
    // makes and the client drops; the operands are shared, as a served
    // client's uploaded operands are. Measured before anything of that size
    // was dropped, so on fresh mappings: one buffer, and at 512^2 one on
    // huge pages when the kernel takes the advice at all.
    let own = {
        let before = mapped_buffers();
        let _c = Matrix::<f64>::zeros(256, 256);
        mapped_buffers() - before
    };
    let own_huge = {
        let before = huge_buffers();
        let _c = Matrix::<f64>::zeros(512, 512);
        huge_buffers() - before
    };
    assert!(own_huge <= own, "{own_huge} advised of {own}");

    let service = GemmService::<f64>::new(ServiceConfig {
        threads: THREADS,
        routing: RoutingPolicy::Fixed(0), // everything runs matrix-parallel
        ..ServiceConfig::default()
    });
    let operands = [256, 384, 512].map(|dim| {
        let a = Matrix::<f64>::random(dim, dim, dim as u64);
        let b = Matrix::<f64>::random(dim, dim, dim as u64 + 100);
        (dim, Arc::new(a), Arc::new(b))
    });
    let run = |step: usize, policy: FtPolicy| {
        let (dim, a, b) = &operands[step % 3];
        let resp = service
            .run(GemmRequest::new(a, b).with_policy(policy))
            .unwrap();
        assert!(
            !resp.batched,
            "request {step} ({dim}^3) left the matrix-parallel path"
        );
    };
    assert_eq!(service.stats().large_workspace_bytes, 0);

    for step in 0..3 {
        run(step, FtPolicy::DetectCorrect);
    }
    let held = service.stats().large_workspace_bytes;
    assert!(held > 0, "the service keeps its workspace");

    let (before, mapped_before, recycled_before, huge_before) = (
        LARGE_OFF_SUBMITTER.load(Ordering::Relaxed),
        mapped_buffers(),
        recycled_buffers(),
        huge_buffers(),
    );
    for step in 0..12 {
        let policy = [FtPolicy::Off, FtPolicy::DetectCorrect][step % 2];
        run(step, policy);
    }
    let made = LARGE_OFF_SUBMITTER.load(Ordering::Relaxed) - before;
    assert_eq!(
        made, 0,
        "steady-state large requests allocated {made} times"
    );
    // Each result is a fresh mapping or the spare a dropped result left.
    let mapped = mapped_buffers() - mapped_before;
    let recycled = recycled_buffers() - recycled_before;
    assert_eq!(
        mapped + recycled,
        12 * own,
        "steady-state large requests took more buffers than their results"
    );
    assert_eq!(
        recycled > 0,
        own > 0,
        "no result of a warm service came from a spare ({mapped} mapped)"
    );
    // Four of the twelve results are 512^2, and only those of them mapped
    // fresh advise; 256^2 and 384^2 results, and the warm workspace, advise
    // nothing.
    let huge = huge_buffers() - huge_before;
    assert!(
        huge <= 4 * own_huge,
        "{huge} huge-page buffers beyond the 512^2 results"
    );

    // A window-4 burst of `serve_large`'s six results (two of each size,
    // 7.4 MiB) ends with all six dropped, and the spare list keeps them
    // whole: from the second burst on every result is a spare, and nothing
    // is mapped.
    let burst = || {
        let mut window: VecDeque<RequestHandle<f64>> = VecDeque::new();
        for step in 0..6 {
            if window.len() == 4 {
                window.pop_front().unwrap().wait().unwrap();
            }
            let (_, a, b) = &operands[step % 3];
            window.push_back(service.submit(GemmRequest::new(a, b)).unwrap());
        }
        for handle in window {
            handle.wait().unwrap();
        }
    };
    burst();
    let (mapped, recycled) = (mapped_buffers(), recycled_buffers());
    burst();
    assert_eq!(mapped_buffers(), mapped, "a repeated burst mapped results");
    assert_eq!(recycled_buffers() - recycled, 6 * own);

    // What the service holds did not move, and it is the largest shape served:
    // one `kc x nc` panel and one `mc x kc` block per thread, each clamped to
    // 512^3 — so under the ceiling the blocking sets — plus O(m + n + k) sums.
    assert_eq!(service.stats().large_workspace_bytes, held);
    let (a_len, b_len) = packed_lens(&Workspace::<f64>::new().params, 512, 512, 512);
    let sums = (2 + 2 * THREADS) * 3 * 512;
    let bound = (b_len + THREADS * a_len + sums) * std::mem::size_of::<f64>();
    assert!(held as usize <= bound, "{held} bytes held, bound {bound}");
    assert_eq!(service.shutdown().failed, 0);
}
