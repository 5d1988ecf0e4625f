//! Server-resident operand store: ref-counted matrices behind `u64`
//! handles, with a byte budget enforced by LRU eviction, and a quarantine
//! for operands that changed after upload.
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
//! ## Operands that change after upload
//!
//! A resident operand can bit-rot *after* upload, and because submits
//! reuse its handle, one corrupted cached matrix would poison every
//! subsequent request. So [`OperandStore::insert`] pins each operand's
//! sums on the matrix itself ([`Matrix::pin_sums`]: `eᵀA`, `B·e` and
//! `|B|·e`), and every protected product that reads it checks the data
//! where it uses it: as `A` when a verification fails, as `B` on every
//! depth panel. A product that finds the data changed fails stop
//! (`Unrecoverable`, never `Ok`) and marks the matrix suspect. The next
//! [`OperandStore::try_get`] of its handle, or the byte budget if it needs
//! the room first, **quarantines** it: the entry is evicted, and every
//! later `get` fails with [`StoreGetError::Quarantined`] (on the wire,
//! `OPERAND_QUARANTINED`) rather than a plain miss, so the client knows to
//! re-upload rather than suspect its own bookkeeping. Releasing the handle clears the marker.
//!
//! `Off` requests verify nothing, so they cannot see a changed operand: an
//! `Off` submit over one returns the product of the changed data. The
//! check's blind spots are those of the checksums themselves: a change of
//! `A` that the verification does not see (the GEMM's column checksums see
//! every change of size above the verification threshold that meets a
//! nonzero row of `B`), and a change of `B` that keeps every row sum
//! within roundoff (compensating changes within one row).

// Concurrency contract (checked by `scripts/orderings.sh`): the
// byte/handle gauges are advisory accounting read by metrics and the
// admission check; the authoritative state lives under `inner`'s lock. A
// change is counted before it can be observed: its adds come before the
// `inner` release that publishes it (an insert, eviction, release or
// quarantine), so a reader that sees the change through the lock sees its
// count too.

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
    /// Quarantined: a protected product found the operand's resident bytes
    /// changed since upload. The client must re-upload; the handle stays
    /// poisoned until released.
    Quarantined,
}

struct Entry {
    m: Arc<Matrix<f64>>,
    bytes: u64,
    /// Monotonic use tick; smallest = least recently used.
    last_used: u64,
}

/// Authoritative store state behind the lock.
struct StoreMap {
    entries: HashMap<u64, Entry>,
    /// Handles evicted for a changed operand; `get`s fail typed until the
    /// owner releases them.
    quarantined: HashSet<u64>,
}

/// Ref-counted server-resident operand matrices with byte-budget LRU
/// eviction and a quarantine. See the module docs for semantics.
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
        }
    }

    /// Pins the matrix's sums ([`Matrix::pin_sums`]) and inserts it,
    /// making room if the budget requires it (never by the matrix being
    /// inserted): first by quarantining entries a product marked suspect,
    /// then by evicting the least recently used. Returns the minted handle
    /// and the resident bytes after insertion.
    pub fn insert(&self, mut m: Matrix<f64>) -> Result<(u64, u64), BudgetExceeded> {
        let bytes = std::mem::size_of_val(m.as_slice()) as u64;
        if bytes > self.budget {
            return Err(BudgetExceeded {
                bytes,
                budget: self.budget,
            });
        }
        // Outside the lock: uploads of large operands must not stall every
        // concurrent submit's handle lookup.
        m.pin_sums();
        let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let mut map = self.inner.lock();
        // Evict until the newcomer fits.
        while self.resident.load(Ordering::Relaxed) + bytes > self.budget {
            // Resident bytes over budget implies a resident entry; if the
            // gauge ever drifts from the map, stop evicting rather than
            // panic the connection thread mid-upload. A suspect entry goes
            // first, and into quarantine, so its handle still answers
            // `Quarantined` and its bytes do not crowd out healthy ones.
            let Some(victim) = map
                .entries
                .iter()
                .min_by_key(|(_, e)| (!e.m.is_suspect(), e.last_used))
                .map(|(h, _)| *h)
            else {
                break;
            };
            let Some(gone) = map.entries.remove(&victim) else {
                break;
            };
            self.account_removal(gone.bytes);
            if gone.m.is_suspect() {
                map.quarantined.insert(victim);
            } else {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                metrics::operand_evictions_total().inc();
            }
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
            },
        );
        Ok((handle, resident))
    }

    /// Resolves a handle to its shared matrix (bumping its LRU position),
    /// with a typed miss: a quarantined handle, or one whose matrix a
    /// product marked suspect ([`Matrix::is_suspect`], quarantined here),
    /// fails [`StoreGetError::Quarantined`]; anything else absent fails
    /// [`StoreGetError::Unknown`].
    pub fn try_get(&self, handle: u64) -> Result<Arc<Matrix<f64>>, StoreGetError> {
        let mut map = self.inner.lock();
        if map.quarantined.contains(&handle) {
            return Err(StoreGetError::Quarantined);
        }
        let map = &mut *map;
        let Some(e) = map.entries.get_mut(&handle) else {
            return Err(StoreGetError::Unknown);
        };
        if e.m.is_suspect() {
            self.account_removal(e.bytes);
            map.entries.remove(&handle);
            map.quarantined.insert(handle);
            return Err(StoreGetError::Quarantined);
        }
        e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(&e.m))
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

    /// Moves the first element of a resident operand by `+1.0` while its
    /// pinned sums stay as they were uploaded ([`Matrix::changed_keeping_sums`])
    /// — post-upload bit rot, for tests. Returns whether the handle was
    /// resident.
    #[doc(hidden)]
    pub fn corrupt_resident_for_test(&self, handle: u64) -> bool {
        let mut map = self.inner.lock();
        let Some(e) = map.entries.get_mut(&handle) else {
            return false;
        };
        if e.m.as_slice().is_empty() {
            return false;
        }
        e.m = Arc::new(e.m.changed_keeping_sums(0, 1.0));
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

    /// Healthy operands evicted by the byte budget since the store was
    /// created (a suspect one it pushes out is quarantined instead).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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

    /// The hook changes the data and keeps the pinned sums, so the sums it
    /// leaves disagree with the data: a hook that cloned would leave no
    /// sums, and tests built on it would check nothing.
    #[test]
    fn a_corrupted_operand_keeps_sums_that_disagree_with_it() {
        let s = OperandStore::new(1 << 20);
        let m = Matrix::<f64>::random(5, 3, 7);
        let (h, _) = s.insert(m.clone()).unwrap();
        let pinned = |m: &Matrix<f64>| {
            let view = m.as_ref();
            let (rows, _) = view.pinned_row_sums().expect("pinned at insert");
            (view.col_sums().unwrap()[0], rows[0])
        };
        let clean = s.get(h).unwrap();
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let (col, row) = pinned(&clean);
        assert!((col - sum(Matrix::as_ref(&clean).col(0))).abs() < 1e-12);
        assert!(s.corrupt_resident_for_test(h));
        let bad = s.get(h).unwrap();
        assert_eq!(bad.get(0, 0), m.get(0, 0) + 1.0);
        assert_eq!(pinned(&bad), (col, row), "the sums are the upload's");
        assert!((col - sum(Matrix::as_ref(&bad).col(0)) + 1.0).abs() < 1e-12);
        let row_now: f64 = (0..3).map(|j| bad.get(0, j)).sum();
        assert!((row - row_now + 1.0).abs() < 1e-12);
        assert!(!bad.is_suspect());
    }

    /// A matrix a product marked suspect is quarantined by the next get:
    /// evicted, typed, and cleared by release.
    #[test]
    fn a_suspect_operand_is_quarantined_on_its_next_get() {
        let s = OperandStore::new(1 << 20);
        let (good, _) = s.insert(mat(4)).unwrap();
        let (bad, _) = s.insert(mat(4)).unwrap();
        let held = s.get(bad).unwrap();
        Matrix::as_ref(&held).reject_sums();
        assert!(held.is_suspect());
        assert_eq!(s.try_get(bad).err(), Some(StoreGetError::Quarantined));
        assert_eq!(s.try_get(bad).err(), Some(StoreGetError::Quarantined));
        assert!(s.get(good).is_some());
        assert_eq!(s.quarantined_count(), 1);
        // Bytes were returned at quarantine; release clears the marker.
        assert_eq!(s.resident_bytes(), 16 * 8);
        assert_eq!(s.handle_count(), 1);
        assert!(!s.release(bad));
        assert_eq!(s.quarantined_count(), 0);
        assert_eq!(s.try_get(bad).err(), Some(StoreGetError::Unknown));
    }

    /// A suspect operand that the budget pushes out before any get is
    /// quarantined, not evicted: its handle answers `Quarantined`, no
    /// eviction is counted, and it goes before a healthy entry used less
    /// recently than it.
    #[test]
    fn a_suspect_operand_is_quarantined_when_the_budget_pushes_it_out() {
        // Budget fits exactly two 4x4 operands.
        let s = OperandStore::new(2 * 16 * 8);
        let suspect = |h| Matrix::as_ref(&s.get(h).unwrap()).reject_sums();
        let (oldest, _) = s.insert(mat(4)).unwrap();
        suspect(oldest);
        let (healthy, _) = s.insert(mat(4)).unwrap();
        let (newest, _) = s.insert(mat(4)).unwrap();
        assert_eq!(s.try_get(oldest).err(), Some(StoreGetError::Quarantined));
        suspect(newest);
        s.insert(mat(4)).unwrap();
        assert_eq!(s.try_get(newest).err(), Some(StoreGetError::Quarantined));
        assert!(s.get(healthy).is_some());
        assert_eq!((s.evictions(), s.quarantined_count()), (0, 2));
        assert_eq!((s.resident_bytes(), s.handle_count()), (2 * 16 * 8, 2));
    }
}
