//! Pins what `GemmService`'s large path costs in memory once it is warm:
//! nothing. A node keeps one matrix-parallel workspace (paper §2.3: the
//! shared `B~` and each thread's `A~` are requested once and reused), so
//! after the shapes a node serves have been seen, a large request makes no
//! allocation of packing-buffer size on any service thread, and what the
//! node holds stays under the bound its blocking sets.
//!
//! A counting global allocator tallies allocations of at least 64 KiB made
//! by every thread *except* the submitting one — the dispatcher and its
//! pool; the submitter builds operand and result matrices, which are the
//! request, not the service. Buffers large enough to be mapped from the OS
//! never reach a global allocator (`ftgemm::core::aligned`), so those are
//! counted process-wide and held to the request's own three matrices. Its own
//! binary, with one test: a sibling test's service threads would be counted
//! too.

use ftgemm::abft::nest::packed_lens;
use ftgemm::core::aligned::{huge_buffers, mapped_buffers};
use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig};
use ftgemm::{GemmContext, Matrix, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

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
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: THREADS,
        topology: Some(Topology::single(THREADS)),
        routing: RoutingPolicy::Fixed(0), // everything runs matrix-parallel
        ..ServiceConfig::default()
    });
    let run = |step: u64, dim: usize, policy: FtPolicy| {
        let a = Matrix::<f64>::random(dim, dim, step);
        let b = Matrix::<f64>::random(dim, dim, step + 100);
        let resp = service
            .run(GemmRequest::new(a, b).with_policy(policy))
            .unwrap();
        assert!(
            !resp.batched,
            "request {step} left the matrix-parallel path"
        );
    };
    assert_eq!(service.stats().per_node[0].large_workspace_bytes, 0);

    for (step, dim) in [256, 384, 512].into_iter().enumerate() {
        run(step as u64, dim, FtPolicy::DetectCorrect);
    }
    let held = service.stats().per_node[0].large_workspace_bytes;
    assert!(held > 0, "the node keeps its workspace");

    // What a request maps by itself: `A`, `B` and the result. Of those, only
    // a 512^2 request's are 2 MiB and go on huge pages (when the kernel
    // takes the advice at all).
    let own = {
        let before = mapped_buffers();
        let _abc = [(); 3].map(|()| Matrix::<f64>::zeros(256, 256));
        mapped_buffers() - before
    };
    let own_huge = {
        let before = huge_buffers();
        let _abc = [(); 3].map(|()| Matrix::<f64>::zeros(512, 512));
        huge_buffers() - before
    };
    assert!(own_huge == 0 || own_huge == 3, "{own_huge} of 3");
    let (before, mapped_before, huge_before) = (
        LARGE_OFF_SUBMITTER.load(Ordering::Relaxed),
        mapped_buffers(),
        huge_buffers(),
    );
    for step in 0..12u64 {
        let dim = [512, 256, 384][step as usize % 3];
        let policy = [FtPolicy::Off, FtPolicy::DetectCorrect][step as usize % 2];
        run(10 + step, dim, policy);
    }
    let made = LARGE_OFF_SUBMITTER.load(Ordering::Relaxed) - before;
    assert_eq!(
        made, 0,
        "steady-state large requests allocated {made} times"
    );
    let mapped = mapped_buffers() - mapped_before;
    assert_eq!(
        mapped,
        12 * own,
        "steady-state large requests mapped more than their own matrices"
    );
    // Four of the twelve are 512^2; 256^2 and 384^2 matrices, and the warm
    // workspace, advise nothing.
    let huge = huge_buffers() - huge_before;
    assert_eq!(
        huge,
        4 * own_huge,
        "huge-page buffers beyond the 512^2 matrices"
    );

    // What the node holds did not move, and it is the largest shape served:
    // one `kc x nc` panel and one `mc x kc` block per thread, each clamped to
    // 512^3 — so under the ceiling the blocking sets — plus O(m + n + k) sums.
    assert_eq!(service.stats().per_node[0].large_workspace_bytes, held);
    let (a_len, b_len) = packed_lens(&GemmContext::<f64>::new().params, 512, 512, 512);
    let sums = (2 + 2 * THREADS) * 3 * 512;
    let bound = (b_len + THREADS * a_len + sums) * std::mem::size_of::<f64>();
    assert!(held as usize <= bound, "{held} bytes held, bound {bound}");
    assert_eq!(service.shutdown().failed, 0);
}
