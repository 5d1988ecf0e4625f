//! 64-byte aligned heap buffers for packed panels and matrices, and the one
//! place in the workspace that allocates, maps, frees and unmaps memory.
//!
//! SIMD micro-kernels issue aligned vector loads against packed panels, and
//! cache-line (64 B) alignment avoids split loads on every x86-64
//! micro-architecture the paper targets (Cascade Lake). `Vec<T>` makes no
//! alignment promise beyond `align_of::<T>()`, so we own the allocation.
//!
//! Where a buffer's memory comes from is a property of its size. Under one
//! page it is the global allocator's. From 256 KiB on (Linux) it is its own
//! anonymous mapping: zero pages that nobody has touched yet, so each is
//! faulted in by the thread that first writes it — the pool thread that
//! packs into it or computes on it, not the thread that asked for it.
//! Through `malloc` such a size was a fresh mapping or recycled heap by a
//! threshold that slides with what the process freed before, so a service
//! handing out one result matrix per request ran 20% faster or slower by
//! which of the two a process happened to settle into. In between, from one
//! page to 256 KiB, it is a heap block of the page-rounded length.
//!
//! A dropped buffer of one page to 8 MiB is neither freed nor unmapped but
//! kept, whole, on one process-wide list of spares, and the next buffer of
//! exactly the same page-rounded length and placement (heap, mapping, or
//! mapping on huge pages) takes the most recently dropped such spare — the
//! one likeliest still in cache — instead of faulting in fresh pages: a
//! service that hands out one result per request pays that result's page
//! faults once per process, not once per request (size-class caches such as
//! Hoard's, ASPLOS 2000). Between requests `malloc` would have trimmed the
//! heap a kept burst of small results leaves, and faulted it in again for
//! the next burst. A buffer of a length no spare has is made fresh.
//!
//! The list holds at most `max(8 MiB, high-water - live)` bytes, where live
//! is what listed buffers hold right now and high-water the most they ever
//! held at once; the oldest spares are freed or unmapped past it, on every
//! drop and every fresh buffer. So a kept burst of any size comes back
//! whole, and live buffers and spares together never hold more than the
//! process already held at once or 8 MiB past what is live: the list adds
//! nothing to the peak. Nor does it give anything back after a spike: what
//! a spike held stays, as spares, up to the high-water mark. Each take and
//! each drop is O(1) amortized, and nothing is zeroed, mapped, freed or
//! unmapped under the list's lock.
//!
//! [`AlignedVec::zeroed`] zeroes a spare on the thread that asks for it.
//! [`AlignedVec::for_overwrite`] does not zero a mapped one: it is for a
//! buffer whose every element is stored before any is read (a `beta == 0`
//! output, a packing buffer), and hands a mapped spare back holding what its
//! last owner wrote. A heap spare it zeroes all the same, as a buffer under
//! 256 KiB has always come, on pages the spare keeps resident.
//!
//! A buffer of 2 MiB or more (x86-64) starts on a 2 MiB boundary and is
//! advised onto transparent huge pages, so each whole 2 MiB extent of it is
//! one fault and one TLB entry instead of 512 of each — GotoBLAS sizes its
//! blocks by TLB reach as well as by cache. Its length is not rounded up: the
//! partial extent at its end stays on 4 KiB pages, so what it makes resident
//! is what is written. Where the kernel refuses the advice the buffer keeps
//! 4 KiB pages and is otherwise the same. A spare keeps its placement and its
//! advice, and only a buffer that wants huge pages takes one that has them.

use crate::error::{CoreError, Result};
use crate::scalar::Scalar;
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::Ordering;

/// Cache-line alignment (bytes) used for every buffer in the workspace.
pub const ALIGN: usize = 64;

/// The unit lengths are rounded to, and the shortest buffer the spare list
/// holds.
const PAGE: usize = 4096;

/// Buffers mapped from the OS so far, process-wide: what a counting global
/// allocator cannot see. Zero where buffers are never mapped.
pub fn mapped_buffers() -> u64 {
    pages::MAPPED.load(Ordering::Relaxed)
}

/// Of [`mapped_buffers`], those placed on a 2 MiB boundary and accepted onto
/// huge pages by the kernel. Zero where huge pages are never asked for.
pub fn huge_buffers() -> u64 {
    pages::ADVISED.load(Ordering::Relaxed)
}

/// Buffers of one page to 8 MiB served from a dropped buffer of the same
/// length and placement instead of fresh memory, process-wide.
pub fn recycled_buffers() -> u64 {
    spares::RECYCLED.load(Ordering::Relaxed)
}

/// Bytes of dropped buffers held for reuse right now: whole pages, at most
/// `max(8 MiB, high-water - live)` bytes of listed buffers.
pub fn spare_bytes() -> usize {
    spares::held()
}

/// Spares the calling thread has taken back so far, and their page-rounded
/// bytes: the requests a counting global allocator does not see.
pub fn spares_taken_here() -> (u64, usize) {
    spares::TAKEN.with(Cell::get)
}

/// Where a listed buffer's memory comes from; a spare keeps it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Place {
    /// A heap block of the page-rounded length, at [`ALIGN`].
    Heap,
    /// Its own mapping.
    Mapped,
    /// Its own mapping, on a 2 MiB boundary and advised onto huge pages.
    Huge,
}

/// What a listed buffer is kept and found by: its page-rounded length, and
/// its placement (a 2 MiB buffer and one a few bytes short of it round to
/// the same length, placed differently).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    len: usize,
    place: Place,
}

impl Key {
    /// The key of a buffer of `bytes`, when [`listed`] holds.
    fn of(bytes: usize) -> Self {
        let place = if bytes >= pages::HUGE_BYTES {
            Place::Huge
        } else if bytes >= pages::MIN_BYTES {
            Place::Mapped
        } else {
            Place::Heap
        };
        Self {
            len: bytes.next_multiple_of(PAGE),
            place,
        }
    }

    /// Fresh zeroed memory for a buffer of `bytes` of this key, or null.
    fn fresh(self, bytes: usize) -> *mut u8 {
        match self.place {
            // SAFETY: a listed length is at least a page, so non-zero.
            Place::Heap => unsafe { alloc_zeroed(heap_layout(self.len)) },
            Place::Mapped | Place::Huge => pages::map(bytes),
        }
    }

    /// Frees or unmaps a spare of this key.
    ///
    /// # Safety
    /// `at` came from [`Key::fresh`] for this key and is not used again.
    unsafe fn free(self, at: usize) {
        match self.place {
            // SAFETY: the caller's contract.
            Place::Heap => unsafe { dealloc(at as *mut u8, heap_layout(self.len)) },
            // SAFETY: the caller's contract; `map` left exactly the
            // page-rounded length mapped.
            Place::Mapped | Place::Huge => unsafe { pages::unmap(at, self.len) },
        }
    }
}

/// The layout of a heap spare of `len` bytes.
fn heap_layout(len: usize) -> Layout {
    Layout::from_size_align(len, ALIGN).expect("a listed length is at most 8 MiB")
}

/// Whether a buffer of `bytes` at `align` is on the spare list: one page to
/// 8 MiB, at the cache-line alignment every numeric type gets.
fn listed(bytes: usize, align: usize) -> bool {
    (PAGE..=spares::MAX_BYTES).contains(&bytes) && align == ALIGN
}

/// The process-wide list of spares.
mod spares {
    use super::Key;
    use std::cell::Cell;
    use std::collections::{HashMap, VecDeque};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

    /// The longest buffer kept, and the least the list may hold.
    pub const MAX_BYTES: usize = 8 << 20;
    pub static RECYCLED: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Spares this thread took, and their bytes. `const` and without a
        /// destructor, so a take during thread teardown still counts.
        pub static TAKEN: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
    }

    #[derive(Default)]
    struct List {
        /// Each key's spares, oldest first, with the number of the drop
        /// that left each: taken from the back, evicted from the front.
        stacks: HashMap<Key, VecDeque<(u64, usize)>>,
        /// The number and key of every drop, oldest first, the spares since
        /// taken included until [`List::compact`] drops them.
        drops: VecDeque<(u64, Key)>,
        /// Drops so far.
        dropped: u64,
        /// Spares held, and their bytes.
        count: usize,
        held: usize,
        /// Bytes of listed buffers in use, and the most there ever were.
        live: usize,
        high: usize,
    }

    impl List {
        fn pop_newest(&mut self, key: Key) -> Option<usize> {
            let (_, at) = self.stacks.get_mut(&key)?.pop_back()?;
            self.count -= 1;
            self.held -= key.len;
            Some(at)
        }

        fn push(&mut self, key: Key, at: usize) {
            self.dropped += 1;
            let stack = self.stacks.entry(key).or_default();
            stack.push_back((self.dropped, at));
            self.drops.push_back((self.dropped, key));
            self.count += 1;
            self.held += key.len;
            if self.drops.len() > 2 * self.count + 64 {
                self.compact();
            }
        }

        /// The oldest spare, off the list, while the list holds more than
        /// its bound.
        fn pop_excess(&mut self) -> Option<(Key, usize)> {
            while self.held > MAX_BYTES.max(self.high - self.live) {
                let (n, key) = self.drops.pop_front()?;
                let stack = self.stacks.get_mut(&key)?;
                // Every older drop of this key is gone from both ends, so
                // the front of its stack is this drop's spare unless that
                // spare was taken.
                if stack.front().is_some_and(|&(d, _)| d == n) {
                    let (_, at) = stack.pop_front()?;
                    self.count -= 1;
                    self.held -= key.len;
                    return Some((key, at));
                }
            }
            None
        }

        /// Forgets the drops whose spares were taken. Both `drops` and each
        /// stack are in drop order, so one pass with a cursor per key finds
        /// them: O(drops), at most once per `count + 64` drops.
        fn compact(&mut self) {
            let stacks = &self.stacks;
            let mut next: HashMap<Key, usize> = HashMap::new();
            self.drops.retain(|&(n, key)| {
                let i = next.entry(key).or_default();
                let held = stacks[&key].get(*i).is_some_and(|&(d, _)| d == n);
                *i += usize::from(held);
                held
            });
        }
    }

    /// A leaf lock: nothing else is taken, and no buffer is zeroed, mapped,
    /// freed or unmapped, while it is held.
    static LIST: LazyLock<Mutex<List>> = LazyLock::new(Mutex::default);

    fn list() -> MutexGuard<'static, List> {
        // Nothing panics while the list is held; were something to, the
        // list is still a set of whole, unused buffers.
        LIST.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn held() -> usize {
        list().held
    }

    /// Counts a buffer of `key` live and hands back its most recently
    /// dropped spare, if there is one. If not, the caller makes one fresh,
    /// which may lower the bound.
    pub fn take(key: Key) -> Option<usize> {
        let at = {
            let mut list = list();
            list.live += key.len;
            list.high = list.high.max(list.live);
            list.pop_newest(key)
        };
        if at.is_some() {
            RECYCLED.fetch_add(1, Ordering::Relaxed);
            TAKEN.with(|t| {
                let (n, bytes) = t.get();
                t.set((n + 1, bytes + key.len));
            });
        } else {
            evict();
        }
        at
    }

    /// Keeps a dropped buffer as the newest spare of `key`.
    ///
    /// # Safety
    /// `at` came from [`Key::fresh`] for `key`, was counted live by
    /// [`take`], and is not used again.
    pub unsafe fn put(key: Key, at: usize) {
        {
            let mut list = list();
            list.live -= key.len;
            list.push(key, at);
        }
        evict();
    }

    /// Frees or unmaps the oldest spares while the list holds more than its
    /// bound, one at a time and outside the lock.
    fn evict() {
        loop {
            let excess = list().pop_excess();
            let Some((key, at)) = excess else { return };
            // SAFETY: off the list, a spare is nobody's.
            unsafe { key.free(at) };
        }
    }
}

/// Anonymous zero-filled mappings, for the buffers `malloc` would place by
/// its history rather than by their size.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod pages {
    use super::PAGE;
    use std::ffi::{c_int, c_void};
    use std::ops::Range;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Smallest buffer that is mapped, in bytes.
    pub const MIN_BYTES: usize = 256 * 1024;
    /// Smallest buffer placed on huge pages, in bytes: one x86-64 huge page.
    /// aarch64 kernels run 4, 16 or 64 KiB base pages (and huge pages to
    /// match), so the trim below is only done where the base page is known.
    pub const HUGE_BYTES: usize = if cfg!(target_arch = "x86_64") {
        2 << 20
    } else {
        usize::MAX
    };
    pub static MAPPED: AtomicU64 = AtomicU64::new(0);
    pub static ADVISED: AtomicU64 = AtomicU64::new(0);

    // <sys/mman.h> on Linux, x86-64 and aarch64.
    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// How much is mapped for a huge buffer of `bytes`: its pages plus one
    /// huge page of slack, so that a 2 MiB boundary falls inside.
    pub fn span(bytes: usize) -> usize {
        bytes.next_multiple_of(PAGE) + HUGE_BYTES
    }

    /// Splits the [`span`] mapped at `start` into the head before the first
    /// 2 MiB boundary, the buffer's pages from that boundary on, and the tail
    /// after them. All three are page-aligned, as `munmap` requires: given an
    /// unaligned start it fails with `EINVAL` and the range stays mapped.
    pub fn trim(start: usize, bytes: usize) -> [Range<usize>; 3] {
        let kept = start.next_multiple_of(HUGE_BYTES);
        let end = kept + bytes.next_multiple_of(PAGE);
        [start..kept, kept..end, end..start + span(bytes)]
    }

    /// A fresh mapping of zero pages for `bytes`, none of them resident yet,
    /// or null. From [`HUGE_BYTES`] on, 2 MiB-aligned and advised onto huge
    /// pages. Exactly the page-rounded length stays mapped.
    pub fn map(bytes: usize) -> *mut u8 {
        let huge = bytes >= HUGE_BYTES;
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                if huge { span(bytes) } else { bytes },
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        // MAP_FAILED is `(void *) -1`.
        if p as isize == -1 {
            return std::ptr::null_mut();
        }
        MAPPED.fetch_add(1, Ordering::Relaxed);
        if !huge {
            return p.cast();
        }
        let [head, kept, tail] = trim(p as usize, bytes);
        let at = p.cast::<u8>().wrapping_add(head.len());
        // SAFETY: head, buffer and tail are page-aligned pieces of the
        // mapping just made, which nothing else has seen; the tail is never
        // empty.
        unsafe {
            if !head.is_empty() {
                munmap(p, head.len());
            }
            munmap(at.wrapping_add(kept.len()).cast(), tail.len());
            if madvise(at.cast(), kept.len(), MADV_HUGEPAGE) == 0 {
                ADVISED.fetch_add(1, Ordering::Relaxed);
            }
        }
        at
    }

    /// # Safety
    /// `at` came from [`map`] for a buffer of `len` page-rounded bytes and is
    /// not used again.
    pub unsafe fn unmap(at: usize, len: usize) {
        // SAFETY: the caller's contract; `map` left exactly the pages of
        // `at..at + len` mapped, so unmapping them cannot fail.
        unsafe { munmap(at as *mut c_void, len) };
    }
}

/// Nothing is mapped on other targets: every buffer is the allocator's, and
/// every spare a heap block.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod pages {
    use std::sync::atomic::AtomicU64;

    pub const MIN_BYTES: usize = usize::MAX;
    pub const HUGE_BYTES: usize = usize::MAX;
    pub static MAPPED: AtomicU64 = AtomicU64::new(0);
    pub static ADVISED: AtomicU64 = AtomicU64::new(0);

    pub fn map(_bytes: usize) -> *mut u8 {
        std::ptr::null_mut()
    }

    /// # Safety
    /// Never called: no length reaches `MIN_BYTES`.
    pub unsafe fn unmap(_at: usize, _len: usize) {}
}

/// A fixed-length, 64-byte aligned, zero-initialized heap buffer.
///
/// Semantically a `Box<[T]>` with stronger alignment. The element type is
/// restricted to `Copy` types without drop glue, which is all the numeric
/// code needs; this keeps deallocation trivially correct.
pub struct AlignedVec<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively, exactly like Box<[T]>.
unsafe impl<T: Copy + Send> Send for AlignedVec<T> {}
// SAFETY: &AlignedVec only hands out &T / &[T].
unsafe impl<T: Copy + Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    /// Allocates a zeroed buffer of `len` elements.
    ///
    /// Returns an error if the byte size overflows `isize` or the layout is
    /// invalid; aborts (via `handle_alloc_error`) if the allocator itself
    /// fails, matching `Vec` behaviour.
    pub fn zeroed(len: usize) -> Result<Self> {
        Self::alloc(len, true)
    }

    /// A buffer of `len` elements: a spare of its [`Key`] if the list holds
    /// one, zeroed if `zero` or on the heap; else fresh zeroed memory.
    fn alloc(len: usize, zero: bool) -> Result<Self> {
        if len == 0 {
            return Ok(Self {
                ptr: NonNull::dangling(),
                len: 0,
            });
        }
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(CoreError::AllocationFailed { bytes: usize::MAX })?;
        let layout = Layout::from_size_align(bytes, ALIGN.max(std::mem::align_of::<T>()))
            .map_err(|_| CoreError::AllocationFailed { bytes })?;
        // SAFETY: layout has non-zero size (len > 0, size_of::<T>() > 0 for
        // the numeric types used here; zero-sized T would make bytes == 0 and
        // is rejected by the layout construction below).
        if bytes == 0 {
            return Err(CoreError::AllocationFailed { bytes });
        }
        let raw = if listed(bytes, layout.align()) {
            let key = Key::of(bytes);
            match spares::take(key) {
                Some(at) => {
                    let at = at as *mut u8;
                    if zero || key.place == Place::Heap {
                        // SAFETY: a spare's `key.len >= bytes` bytes are
                        // nobody's but this caller's once off the list.
                        unsafe { at.write_bytes(0, bytes) };
                    }
                    at
                }
                None => key.fresh(bytes),
            }
        } else if bytes >= pages::MIN_BYTES {
            pages::map(bytes)
        } else {
            // SAFETY: `layout` has non-zero size, checked above.
            unsafe { alloc_zeroed(layout) }
        };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout);
        };
        Ok(Self { ptr, len })
    }

    /// Allocates a zeroed buffer, panicking on failure.
    ///
    /// Convenience for contexts (tests, benches) where allocation failure is
    /// not meaningfully recoverable.
    pub fn zeroed_or_panic(len: usize) -> Self {
        Self::zeroed(len).expect("aligned allocation failed")
    }

    /// Builds a buffer by copying from a slice.
    pub fn from_slice(src: &[T]) -> Result<Self> {
        let mut v = Self::zeroed(src.len())?;
        v.as_mut_slice().copy_from_slice(src);
        Ok(v)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable slice view.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr/len describe an owned, initialized allocation.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable slice view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: exclusive access through &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Raw const pointer to the first element.
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Raw mutable pointer to the first element.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }

    /// Overwrites every element with `value`.
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }
}

impl<T: Scalar> AlignedVec<T> {
    /// [`zeroed`](Self::zeroed) for a caller that stores every element
    /// before it reads any: the same, except that a recycled spare mapping
    /// comes back as its last owner left it, holding values some buffer of
    /// this process wrote, where `zeroed` would spend a pass zeroing it. A
    /// fresh mapping is still zero pages and a buffer under 256 KiB, spare
    /// or fresh, still comes zeroed, so nothing uninitialized is ever read.
    /// `T: Scalar` because every bit pattern is an `f32` / `f64`.
    pub fn for_overwrite(len: usize) -> Result<Self> {
        Self::alloc(len, false)
    }
}

impl<T: Copy> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let bytes = self.len * std::mem::size_of::<T>();
        let layout =
            Layout::from_size_align(bytes, ALIGN.max(std::mem::align_of::<T>())).expect("layout");
        let at = self.ptr.as_ptr().cast::<u8>();
        if listed(bytes, layout.align()) {
            // SAFETY: taken or made for the identical key in `alloc`.
            unsafe { spares::put(Key::of(bytes), at as usize) };
        } else if bytes >= pages::MIN_BYTES {
            // SAFETY: mapped for the identical length in `alloc`.
            unsafe { pages::unmap(at as usize, bytes.next_multiple_of(PAGE)) };
        } else {
            // SAFETY: allocated with the identical layout in `alloc`.
            unsafe { dealloc(at, layout) };
        }
    }
}

impl<T: Copy> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice()).expect("aligned allocation failed")
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedVec")
            .field("len", &self.len)
            .field("align", &ALIGN)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let v = AlignedVec::<f64>::zeroed(1000).unwrap();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.as_ptr() as usize % ALIGN, 0);
        let w = AlignedVec::<f32>::for_overwrite(16).unwrap();
        assert_eq!(w.as_ptr() as usize % ALIGN, 0);
    }

    /// Buffers on either side of the huge-page floor keep the whole contract
    /// — zeroed, aligned, writable to their last element — each is one
    /// mapping, and only those of 2 MiB or more start on a 2 MiB boundary.
    /// The only test in this binary that maps, so the counts are exact.
    #[test]
    fn buffers_at_the_huge_page_floor_are_mapped_once_and_placed() {
        const MIB2: usize = 2 << 20;
        let mapping = pages::MIN_BYTES != usize::MAX;
        let huge = cfg!(target_arch = "x86_64") && mapping;
        let before = mapped_buffers();
        let small = AlignedVec::<f64>::zeroed(128 * 128).unwrap();
        assert_eq!(mapped_buffers(), before, "128 KiB stays with malloc");
        let (mapped, advised) = (mapped_buffers(), huge_buffers());
        let mut kept = Vec::new();
        for bytes in [MIB2 - 8, MIB2, MIB2 + 24] {
            let mut v = AlignedVec::<f64>::zeroed(bytes / 8).unwrap();
            let made = u64::from(mapping) * (kept.len() as u64 + 1);
            assert_eq!(mapped_buffers() - mapped, made, "{bytes} B is one mapping");
            let start = v.as_ptr() as usize;
            assert_eq!(start % if mapping { 4096 } else { ALIGN }, 0, "{bytes} B");
            if huge && bytes >= MIB2 {
                assert_eq!(start % MIB2, 0, "{bytes} B is not on a 2 MiB boundary");
            }
            assert!(v.iter().all(|&x| x == 0.0), "{bytes} B");
            let last = v.len() - 1;
            v[last] = 7.0;
            assert_eq!((v[0], v[last]), (0.0, 7.0));
            kept.push(v);
        }
        let w = kept[2].clone();
        drop(kept);
        assert_eq!((w[w.len() - 1], w[0], small[0]), (7.0, 0.0, 0.0));
        // The clone is a fourth buffer of 2 MiB + 24 B. Whether the kernel
        // takes the advice is its choice: where it has no huge pages at all
        // it refuses every time, and the buffers are only placed.
        assert_eq!(mapped_buffers() - mapped, u64::from(mapping) * 4);
        let took = huge_buffers() - advised;
        assert!(took == 0 || (huge && took == 3), "{took} advised of 3");
    }

    /// Head, buffer and tail are page-aligned, cover the mapping exactly, and
    /// the buffer starts on the first 2 MiB boundary inside it — for every
    /// page offset of the mapping within a huge page, and lengths on either
    /// side of a page and of a huge page.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn the_trim_tiles_the_mapping_and_aligns_the_buffer() {
        const MIB2: usize = 2 << 20;
        for bytes in [MIB2, MIB2 + 8, MIB2 + 4096, 3 * MIB2 - 8, 1280 * 1280 * 8] {
            for start in (0..MIB2).step_by(4096).map(|off| (7 << 30) + off) {
                let [head, kept, tail] = pages::trim(start, bytes);
                for r in [&head, &kept, &tail] {
                    assert_eq!((r.start % 4096, r.end % 4096), (0, 0), "{r:?}");
                }
                assert_eq!(head.start, start);
                assert_eq!((head.end, kept.end), (kept.start, tail.start));
                assert_eq!(tail.end, start + pages::span(bytes));
                assert_eq!((kept.start % MIB2, head.len() < MIB2), (0, true));
                assert!(kept.len() >= bytes && kept.len() - bytes < 4096);
                assert!(!tail.is_empty());
            }
        }
    }

    #[test]
    fn zero_length_ok() {
        let v = AlignedVec::<f32>::zeroed(0).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f32]);
    }

    #[test]
    fn from_slice_round_trip() {
        let src = [1.0f64, 2.0, 3.0, 4.5];
        let v = AlignedVec::from_slice(&src).unwrap();
        assert_eq!(v.as_slice(), &src);
    }

    #[test]
    fn deref_and_fill() {
        let mut v = AlignedVec::<f32>::zeroed(8).unwrap();
        v.fill(2.5);
        assert_eq!(v[7], 2.5);
        v[0] = 1.0;
        assert_eq!(v.as_slice()[0], 1.0);
    }

    #[test]
    fn clone_copies() {
        let mut v = AlignedVec::<f64>::zeroed(4).unwrap();
        v[2] = 9.0;
        let w = v.clone();
        assert_eq!(w[2], 9.0);
        assert_ne!(v.as_ptr(), w.as_ptr());
    }

    #[test]
    fn overflow_rejected() {
        let r = AlignedVec::<f64>::zeroed(usize::MAX / 2);
        assert!(r.is_err());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignedVec<f64>>();
    }
}
