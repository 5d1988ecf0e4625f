//! Server-resident operand store: ref-counted matrices behind `u64`
//! handles, with a byte budget enforced by LRU eviction and an idle-cycle
//! integrity scrubber.
//!
//! This is the server half of the clients-cache-operands-and-re-fire
//! pattern: a client uploads `A`/`B` once, then fires any number of
//! submits against the handles. [`OperandStore::get`] hands back an
//! `Arc<Matrix<f64>>` clone, which flows into
//! [`Operand::Shared`](ftgemm_serve::Operand) — zero matrix bytes are
//! copied per submit.
//!
//! Handles are minted from one store-wide counter, so a handle is never
//! reused and a stale handle (released or evicted) misses cleanly. The
//! store is shared by all connections of a server; each connection tracks
//! the handles it owns and releases them on disconnect, so a killed client
//! cannot leak resident bytes.
//!
//! ## Scrubbing
//!
//! A resident operand can bit-rot *after* upload, and because submits
//! reuse its handle, one corrupted cached matrix would poison every
//! subsequent request — the per-request ABFT verification catches errors
//! in the *computation*, not errors already baked into its inputs. So the
//! store remembers each operand's row and column checksums from insert
//! time and [`OperandStore::scrub`] re-verifies them (bit-exact — the
//! sums are recomputed in the same deterministic order). A mismatching
//! entry is **quarantined**: evicted immediately, and later `get`s of its
//! handle fail with [`StoreGetError::Quarantined`] (surfaced on the wire
//! as `OPERAND_QUARANTINED`) rather than a plain miss, so the client
//! knows to re-upload rather than suspect its own bookkeeping. Scrub
//! passes walk the handle space in ascending order from a rotating
//! cursor, bounded per pass, so a background scrubber visits every
//! resident operand without ever holding the store lock across checksum
//! work. The known blind spot is a corruption that exactly preserves both
//! sum vectors bit-for-bit — compensating multi-element corruptions —
//! which is the same algebraic blind spot row+column ABFT itself has.

// Concurrency contract (checked by `scripts/orderings.sh`): the
// byte/handle gauges, scrub tallies, and scrub cursor are advisory
// accounting read by metrics and the admission check; the authoritative
// state lives under `inner`'s lock. A change is counted before it can be
// observed: its adds come before the `inner` release that publishes it (an
// insert, eviction, release or quarantine), so a reader that sees the
// change through the lock sees its count too.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ftgemm_core::Matrix;

use crate::metrics;

/// Upload rejection: the operand alone exceeds the store's byte budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Bytes the rejected operand would occupy.
    pub bytes: u64,
    /// The store's configured budget.
    pub budget: u64,
}

/// Why [`OperandStore::try_get`] failed to resolve a handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreGetError {
    /// Never minted, released, or evicted by the byte budget.
    Unknown,
    /// Quarantined by the scrubber: the operand's resident bytes no
    /// longer matched its insert-time checksums. The client must
    /// re-upload; the handle stays poisoned until released.
    Quarantined,
}

/// What one [`OperandStore::scrub`] pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Operands whose checksums re-verified clean.
    pub verified: u64,
    /// Operands whose resident bytes mismatched their insert-time
    /// checksums (each is also quarantined, unless it was released in the
    /// window between verification and quarantine).
    pub corrupted: u64,
    /// Corrupted operands actually evicted and marked this pass.
    pub quarantined: u64,
}

struct Entry {
    m: Arc<Matrix<f64>>,
    bytes: u64,
    /// Monotonic use tick; smallest = least recently used.
    last_used: u64,
    /// Insert-time per-row sums, in fixed recompute order (scrub compares
    /// bit-for-bit).
    row_sums: Vec<f64>,
    /// Insert-time per-column sums.
    col_sums: Vec<f64>,
}

/// Authoritative store state behind the lock.
struct StoreMap {
    entries: HashMap<u64, Entry>,
    /// Handles the scrubber evicted for checksum mismatch; `get`s fail
    /// typed until the owner releases them.
    quarantined: HashSet<u64>,
}

/// Ref-counted server-resident operand matrices with byte-budget LRU
/// eviction and checksum scrubbing. See the module docs for semantics.
pub struct OperandStore {
    inner: Mutex<StoreMap>,
    budget: u64,
    next_handle: AtomicU64,
    tick: AtomicU64,
    // Authoritative copies of the store gauges: the global metric families
    // are process-wide and shared across tests, so deterministic
    // assertions read these instead.
    resident: AtomicU64,
    handles: AtomicU64,
    evictions: AtomicU64,
    /// Last handle a scrub pass visited; the next pass resumes above it
    /// (wrapping), so bounded passes cover the whole store over time.
    scrub_cursor: AtomicU64,
    scrub_passes: AtomicU64,
    scrub_verified: AtomicU64,
    scrub_corrupted: AtomicU64,
}

/// Row and column sums of `m` in a fixed deterministic order — recomputed
/// identically at scrub time, so clean data compares bit-for-bit.
fn checksums(m: &Matrix<f64>) -> (Vec<f64>, Vec<f64>) {
    let row_sums: Vec<f64> = (0..m.nrows())
        .map(|i| (0..m.ncols()).map(|j| m.get(i, j)).sum())
        .collect();
    let col_sums: Vec<f64> = (0..m.ncols())
        .map(|j| (0..m.nrows()).map(|i| m.get(i, j)).sum())
        .collect();
    (row_sums, col_sums)
}

/// Bit-exact vector comparison (NaN-safe, unlike `==`).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl OperandStore {
    /// A store that evicts past `budget_bytes` of resident operand data.
    pub fn new(budget_bytes: u64) -> Self {
        OperandStore {
            inner: Mutex::new(StoreMap {
                entries: HashMap::new(),
                quarantined: HashSet::new(),
            }),
            budget: budget_bytes,
            next_handle: AtomicU64::new(1),
            tick: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            handles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            scrub_cursor: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
            scrub_verified: AtomicU64::new(0),
            scrub_corrupted: AtomicU64::new(0),
        }
    }

    /// Inserts a matrix, evicting least-recently-used entries if the
    /// budget requires it (never the matrix being inserted). Returns the
    /// minted handle and the resident bytes after insertion.
    pub fn insert(&self, m: Matrix<f64>) -> Result<(u64, u64), BudgetExceeded> {
        let bytes = std::mem::size_of_val(m.as_slice()) as u64;
        if bytes > self.budget {
            return Err(BudgetExceeded {
                bytes,
                budget: self.budget,
            });
        }
        // Checksums are computed outside the lock: uploads of large
        // operands must not stall every concurrent submit's handle lookup.
        let (row_sums, col_sums) = checksums(&m);
        let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let mut map = self.inner.lock();
        // Evict until the newcomer fits.
        while self.resident.load(Ordering::Relaxed) + bytes > self.budget {
            // Resident bytes over budget implies a resident entry; if the
            // gauge ever drifts from the map, stop evicting rather than
            // panic the connection thread mid-upload.
            let Some(victim) = map
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h)
            else {
                break;
            };
            let Some(gone) = map.entries.remove(&victim) else {
                break;
            };
            self.account_removal(gone.bytes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            metrics::operand_evictions_total().inc();
        }
        // Counted before the handle resolves, as a removal is counted
        // before its lock is released.
        let resident = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.handles.fetch_add(1, Ordering::Relaxed);
        metrics::resident_operand_bytes().add(bytes as f64);
        metrics::operand_handles().add(1.0);
        map.entries.insert(
            handle,
            Entry {
                m: Arc::new(m),
                bytes,
                last_used: self.tick.fetch_add(1, Ordering::Relaxed),
                row_sums,
                col_sums,
            },
        );
        Ok((handle, resident))
    }

    /// Resolves a handle to its shared matrix (bumping its LRU position),
    /// with a typed miss: a handle the scrubber quarantined fails
    /// [`StoreGetError::Quarantined`], anything else absent fails
    /// [`StoreGetError::Unknown`].
    pub fn try_get(&self, handle: u64) -> Result<Arc<Matrix<f64>>, StoreGetError> {
        let mut map = self.inner.lock();
        if map.quarantined.contains(&handle) {
            return Err(StoreGetError::Quarantined);
        }
        match map.entries.get_mut(&handle) {
            Some(e) => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::clone(&e.m))
            }
            None => Err(StoreGetError::Unknown),
        }
    }

    /// Resolves a handle to its shared matrix (bumping its LRU position),
    /// or `None` if the handle was never minted, released, evicted, or
    /// quarantined. Use [`try_get`](Self::try_get) to tell a quarantine
    /// apart from a plain miss.
    pub fn get(&self, handle: u64) -> Option<Arc<Matrix<f64>>> {
        self.try_get(handle).ok()
    }

    /// Drops a handle; returns whether it was resident. In-flight requests
    /// holding the `Arc` keep the data alive until they finish — release
    /// only un-counts it from the store. Releasing a quarantined handle
    /// clears its quarantine marker (and returns `false`: the bytes were
    /// already evicted at quarantine time).
    pub fn release(&self, handle: u64) -> bool {
        let mut map = self.inner.lock();
        if map.quarantined.remove(&handle) {
            metrics::scrub_quarantined().add(-1.0);
            return false;
        }
        match map.entries.remove(&handle) {
            Some(e) => {
                self.account_removal(e.bytes);
                true
            }
            None => false,
        }
    }

    /// One bounded scrub pass: re-verifies the insert-time checksums of up
    /// to `max_entries` resident operands (ascending handle order from the
    /// rotating cursor, wrapping), quarantining every mismatch. Checksum
    /// recomputation runs **outside** the store lock — concurrent submits
    /// keep resolving handles while a pass works through its snapshot.
    ///
    /// Intended for idle cycles
    /// ([`NetServerConfig::scrub_interval`](crate::NetServerConfig)), but
    /// safe to call from anywhere, concurrently with everything.
    pub fn scrub(&self, max_entries: usize) -> ScrubReport {
        self.scrub_then(max_entries, || {})
    }

    /// [`scrub`](Self::scrub), calling `counted` after the pass is counted
    /// and before it quarantines anything: a test pauses there.
    fn scrub_then(&self, max_entries: usize, counted: impl FnOnce()) -> ScrubReport {
        struct ScrubItem {
            handle: u64,
            m: Arc<Matrix<f64>>,
            row_sums: Vec<f64>,
            col_sums: Vec<f64>,
        }
        let cursor = self.scrub_cursor.load(Ordering::Relaxed);
        // Snapshot the slice of the handle space this pass covers.
        let snapshot: Vec<ScrubItem> = {
            let map = self.inner.lock();
            let mut handles: Vec<u64> = map.entries.keys().copied().collect();
            handles.sort_unstable();
            let split = handles.partition_point(|&h| h <= cursor);
            handles.rotate_left(split);
            handles.truncate(max_entries.max(1));
            handles
                .iter()
                .filter_map(|h| {
                    map.entries.get(h).map(|e| ScrubItem {
                        handle: *h,
                        m: Arc::clone(&e.m),
                        row_sums: e.row_sums.clone(),
                        col_sums: e.col_sums.clone(),
                    })
                })
                .collect()
        };
        let mut verified = 0u64;
        let mut corrupted: Vec<u64> = Vec::new();
        let mut last_visited = None;
        for item in &snapshot {
            let (rows_now, cols_now) = checksums(&item.m);
            if bits_eq(&rows_now, &item.row_sums) && bits_eq(&cols_now, &item.col_sums) {
                verified += 1;
            } else {
                corrupted.push(item.handle);
            }
            last_visited = Some(item.handle);
        }
        if let Some(h) = last_visited {
            self.scrub_cursor.store(h, Ordering::Relaxed);
        }
        // Counted before anything is quarantined: the lock below orders
        // these adds before every reader that can see a quarantine.
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        self.scrub_verified.fetch_add(verified, Ordering::Relaxed);
        self.scrub_corrupted
            .fetch_add(corrupted.len() as u64, Ordering::Relaxed);
        metrics::scrub_passes_total().inc();
        metrics::scrub_operands_verified_total().add(verified);
        metrics::scrub_corrupted_total().add(corrupted.len() as u64);
        counted();
        let mut quarantined = 0u64;
        if !corrupted.is_empty() {
            let mut map = self.inner.lock();
            for h in &corrupted {
                // Handles are never reused, so presence means "still the
                // entry we verified" — released-in-the-window handles just
                // miss here and stay un-quarantined.
                if let Some(e) = map.entries.remove(h) {
                    self.account_removal(e.bytes);
                    map.quarantined.insert(*h);
                    quarantined += 1;
                    metrics::scrub_quarantined().add(1.0);
                }
            }
        }
        ScrubReport {
            verified,
            corrupted: corrupted.len() as u64,
            quarantined,
        }
    }

    /// Flips one element of a resident operand *without* updating its
    /// stored checksums — simulates post-upload bit rot for scrubber
    /// tests. Returns whether the handle was resident.
    #[doc(hidden)]
    pub fn corrupt_resident_for_test(&self, handle: u64) -> bool {
        let mut map = self.inner.lock();
        let Some(e) = map.entries.get_mut(&handle) else {
            return false;
        };
        let mut m = (*e.m).clone();
        let Some(v) = m.as_mut_slice().first_mut() else {
            return false;
        };
        *v += 1.0;
        e.m = Arc::new(m);
        true
    }

    /// Un-counts a removed entry from the byte/handle gauges (store-local
    /// and global).
    fn account_removal(&self, bytes: u64) {
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
        self.handles.fetch_sub(1, Ordering::Relaxed);
        metrics::resident_operand_bytes().add(-(bytes as f64));
        metrics::operand_handles().add(-1.0);
    }

    /// Bytes currently held by resident operands.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Live handle count.
    pub fn handle_count(&self) -> u64 {
        self.handles.load(Ordering::Relaxed)
    }

    /// Operands evicted by the byte budget since the store was created.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Scrub passes run against this store.
    pub fn scrub_passes(&self) -> u64 {
        self.scrub_passes.load(Ordering::Relaxed)
    }

    /// Operands whose checksums re-verified clean, summed over all passes.
    pub fn scrub_verified(&self) -> u64 {
        self.scrub_verified.load(Ordering::Relaxed)
    }

    /// Checksum mismatches found, summed over all passes.
    pub fn scrub_corrupted(&self) -> u64 {
        self.scrub_corrupted.load(Ordering::Relaxed)
    }

    /// Handles currently quarantined (poisoned until released).
    pub fn quarantined_count(&self) -> u64 {
        self.inner.lock().quarantined.len() as u64
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(n: usize) -> Matrix<f64> {
        Matrix::filled(n, n, 1.0)
    }

    #[test]
    fn insert_get_release_accounting() {
        let s = OperandStore::new(1 << 20);
        let (h, resident) = s.insert(mat(4)).unwrap();
        assert_eq!(resident, 16 * 8);
        assert_eq!(s.resident_bytes(), 16 * 8);
        assert_eq!(s.handle_count(), 1);
        let m = s.get(h).unwrap();
        assert_eq!(m.nrows(), 4);
        assert!(s.release(h));
        assert!(!s.release(h));
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.handle_count(), 0);
        assert!(s.get(h).is_none());
        assert_eq!(s.try_get(h).err(), Some(StoreGetError::Unknown));
    }

    #[test]
    fn lru_eviction_spares_the_recently_used() {
        // Budget fits exactly two 4x4 operands.
        let s = OperandStore::new(2 * 16 * 8);
        let (h1, _) = s.insert(mat(4)).unwrap();
        let (h2, _) = s.insert(mat(4)).unwrap();
        // Touch h1 so h2 becomes the LRU victim.
        s.get(h1).unwrap();
        let (h3, _) = s.insert(mat(4)).unwrap();
        assert!(s.get(h1).is_some());
        assert!(s.get(h2).is_none());
        assert!(s.get(h3).is_some());
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.resident_bytes(), 2 * 16 * 8);
    }

    #[test]
    fn oversized_operand_is_rejected_not_inserted() {
        let s = OperandStore::new(100);
        let err = s.insert(mat(8)).unwrap_err();
        assert_eq!(err.bytes, 64 * 8);
        assert_eq!(err.budget, 100);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.handle_count(), 0);
    }

    #[test]
    fn in_flight_arc_survives_eviction() {
        let s = OperandStore::new(16 * 8);
        let (h1, _) = s.insert(mat(4)).unwrap();
        let held = s.get(h1).unwrap();
        let (_h2, _) = s.insert(mat(4)).unwrap();
        assert!(s.get(h1).is_none());
        // The evicted matrix stays readable through the Arc.
        assert_eq!(held.get(0, 0), 1.0);
    }

    #[test]
    fn scrub_verifies_clean_operands() {
        let s = OperandStore::new(1 << 20);
        let (h1, _) = s.insert(mat(4)).unwrap();
        let (h2, _) = s.insert(Matrix::random(6, 3, 42)).unwrap();
        let report = s.scrub(16);
        assert_eq!(report.verified, 2);
        assert_eq!(report.corrupted, 0);
        assert_eq!(report.quarantined, 0);
        assert!(s.get(h1).is_some());
        assert!(s.get(h2).is_some());
        assert_eq!(s.scrub_passes(), 1);
        assert_eq!(s.scrub_verified(), 2);
        assert_eq!(s.quarantined_count(), 0);
    }

    #[test]
    fn scrub_quarantines_corrupted_operand_and_poisons_its_handle() {
        let s = OperandStore::new(1 << 20);
        let (good, _) = s.insert(mat(4)).unwrap();
        let (bad, _) = s.insert(mat(4)).unwrap();
        assert!(s.corrupt_resident_for_test(bad));
        // Corruption is invisible until a scrub pass re-verifies.
        assert!(s.get(bad).is_some());
        let report = s.scrub(16);
        assert_eq!(report.verified, 1);
        assert_eq!(report.corrupted, 1);
        assert_eq!(report.quarantined, 1);
        // The poisoned handle now fails typed; the clean one still works.
        assert_eq!(s.try_get(bad).err(), Some(StoreGetError::Quarantined));
        assert!(s.get(good).is_some());
        assert_eq!(s.quarantined_count(), 1);
        assert_eq!(s.scrub_corrupted(), 1);
        // Bytes were returned at quarantine; release clears the marker.
        assert_eq!(s.resident_bytes(), 16 * 8);
        assert!(!s.release(bad));
        assert_eq!(s.quarantined_count(), 0);
        assert_eq!(s.try_get(bad).err(), Some(StoreGetError::Unknown));
    }

    /// A reader that sees a quarantine sees its corruption counted: the
    /// pass is paused between its two steps, where the count must already
    /// hold what the quarantine is about to show.
    #[test]
    fn corruption_is_counted_before_its_quarantine_is_visible() {
        let s = OperandStore::new(1 << 20);
        let (_clean, _) = s.insert(mat(4)).unwrap();
        let (bad, _) = s.insert(mat(4)).unwrap();
        assert!(s.corrupt_resident_for_test(bad));
        let mut paused = false;
        let report = s.scrub_then(16, || {
            paused = true;
            assert!(s.scrub_corrupted() >= s.quarantined_count());
            assert_eq!((s.scrub_passes(), s.scrub_verified()), (1, 1));
            assert_eq!(s.scrub_corrupted(), 1);
        });
        assert!(paused);
        assert_eq!(report.quarantined, 1);
        assert!(s.scrub_corrupted() >= s.quarantined_count());
        assert_eq!(s.quarantined_count(), 1);
    }

    #[test]
    fn bounded_scrub_passes_cover_the_store_via_the_cursor() {
        let s = OperandStore::new(1 << 20);
        let mut handles = Vec::new();
        for _ in 0..5 {
            handles.push(s.insert(mat(2)).unwrap().0);
        }
        // Two-entry passes: three passes cover all five and wrap.
        let r1 = s.scrub(2);
        let r2 = s.scrub(2);
        let r3 = s.scrub(2);
        assert_eq!(r1.verified + r2.verified + r3.verified, 6, "5 + 1 wrap");
        assert_eq!(s.scrub_passes(), 3);
    }

    #[test]
    fn scrub_on_empty_store_is_a_clean_noop() {
        let s = OperandStore::new(1 << 20);
        let report = s.scrub(8);
        assert_eq!(report, ScrubReport::default());
        assert_eq!(s.scrub_passes(), 1);
    }
}
