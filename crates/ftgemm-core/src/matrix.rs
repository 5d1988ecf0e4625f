//! Column-major dense matrices and borrowed views.
//!
//! BLAS convention throughout: element `(i, j)` of an `m x n` matrix with
//! leading dimension `ld >= m` lives at linear offset `i + j * ld`. Views
//! ([`MatRef`], [`MatMut`]) carry an arbitrary leading dimension so
//! submatrices (the blocks the GEMM loops walk) are zero-copy.
//!
//! An owned [`Matrix`] also memoizes its unscaled column sums `eᵀA`: a
//! protected product computes them once per value of the matrix instead of
//! once per call, and only the view [`Matrix::as_ref`] hands out carries
//! them ([`MatRef::col_sums`]). An owner that keeps a matrix for many
//! products pins its sums instead ([`Matrix::pin_sums`]), and the products
//! check the data against them ([`MatRef::pinned_row_sums`]).

// Concurrency contract (checked by `scripts/orderings.sh`): `filled`
// publishes a memo's sums — Release on the fill that wins, Acquire on every
// read — so a reader on any thread sees the sums written before the pointer.

use crate::aligned::AlignedVec;
use crate::error::{CoreError, Result};
use crate::scalar::Scalar;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Owned, contiguous (ld == nrows), 64-byte aligned column-major matrix.
#[derive(Clone, Debug)]
pub struct Matrix<T: Scalar> {
    data: AlignedVec<T>,
    nrows: usize,
    ncols: usize,
    sums: Sums<T>,
}

// One word over the data and the shape: the memo. Growing `Matrix` changes
// what the service's allocator sees per request: padding it by 24 bytes with
// no memo at all moved `serve_small`'s injected arm into glibc's heap-trim
// mode (`inj_cost_ratio` 1.21–1.33 → 1.28–1.32 over 4 alternated pairs on a
// 2-vCPU AVX-512 host); 8 bytes did not.
const _: () = assert!(std::mem::size_of::<Matrix<f64>>() == 5 * std::mem::size_of::<usize>());

impl<T: Scalar> Drop for Matrix<T> {
    fn drop(&mut self) {
        self.sums.clear(self.ncols, self.nrows);
    }
}

/// The memo of a [`Matrix`]'s checksums, in one of two kinds.
///
/// - *Filled*: the unscaled column sums `eᵀA` — the one ABFT encoding the
///   paper computes before the loops rather than inside a pack (§2.3) —
///   left by the first protected product that reads the matrix as its `A`
///   and verifies, and read by every later one in O(k). A filled memo that
///   disagrees with the data is *rejected*: the memo is the stale one.
/// - *Pinned* ([`Matrix::pin_sums`]): `eᵀA`, then the row sums `B·e` and
///   `|B|·e`, taken by the matrix's owner when it received the data. A
///   pinned memo speaks for the data as received, so a product that finds
///   the data disagreeing with it fails and marks the matrix *suspect*
///   ([`Matrix::is_suspect`]); the sums stay readable.
///
/// Either lives and dies with the matrix value: every `&mut` access to the
/// elements ([`Matrix::set`], [`Matrix::as_mut_slice`], [`Matrix::as_mut`])
/// clears it, a clone starts without one, and drop frees it. Filling and
/// rejecting need only `&self`, so views of a shared matrix do both from any
/// thread.
#[derive(Debug)]
struct Sums<T: Scalar> {
    /// Null, or the first of the memo's sums — `ncols` of them, plus
    /// `2 * nrows` when pinned — in a heap block that is never written
    /// again, with the address's low bits tagging it [`PINNED`] and
    /// [`REJECTED`]. Any thread may read or free it: `Scalar` is `Send +
    /// Sync`.
    filled: AtomicPtr<T>,
}

/// The address bit of a rejected memo (on a pinned one: a suspect matrix).
const REJECTED: usize = 1;
/// The address bit of a pinned memo.
const PINNED: usize = 2;
/// Both tag bits: every `Scalar` is aligned to 4, so both are free.
const TAGS: usize = REJECTED | PINNED;

/// A published pointer's block, untagged, and its tags.
fn untag<T: Scalar>(sums: *mut T) -> (*mut T, usize) {
    const { assert!(std::mem::align_of::<T>() > TAGS) };
    (sums.map_addr(|addr| addr & !TAGS), sums.addr() & TAGS)
}

impl<T: Scalar> Sums<T> {
    const fn empty() -> Self {
        Sums {
            filled: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// The memo's block, untagged, and its tags, as published.
    fn load(&self) -> (*mut T, usize) {
        untag(self.filled.load(Ordering::Acquire))
    }

    /// Elements in a block of `tags`' kind for an `nrows x ncols` matrix.
    fn len(tags: usize, ncols: usize, nrows: usize) -> usize {
        ncols + if tags & PINNED == 0 { 0 } else { 2 * nrows }
    }

    /// The block's first `len` sums, where it is pinned, or filled and not
    /// rejected.
    ///
    /// # Safety
    /// `len` is at most the block's length ([`Self::len`] of the matrix).
    unsafe fn get(&self, len: usize, pinned_only: bool) -> Option<&[T]> {
        let (sums, tags) = self.load();
        let readable = if pinned_only {
            tags & PINNED != 0
        } else {
            tags != REJECTED
        };
        // SAFETY: a non-null block came from `fill` or `install` with at
        // least `len` sums, and stays valid and unwritten until `clear`, which
        // takes `&mut self`.
        (!sums.is_null() && readable).then(|| unsafe { std::slice::from_raw_parts(sums, len) })
    }

    /// Publishes a copy of `sums` unless the memo is filled, pinned or
    /// rejected; of concurrent fills the first wins and the others free
    /// their copies.
    fn fill(&self, sums: &[T]) {
        if !self.filled.load(Ordering::Acquire).is_null() {
            return;
        }
        let copy = Box::into_raw(Box::<[T]>::from(sums)).cast::<T>();
        let won = self.filled.compare_exchange(
            ptr::null_mut(),
            copy,
            Ordering::Release,
            Ordering::Acquire,
        );
        if won.is_err() {
            // SAFETY: `copy` holds `sums.len()` elements and was never
            // published.
            drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(copy, sums.len())) });
        }
    }

    /// Replaces the memo with the block `sums` of an `nrows x ncols` matrix,
    /// tagged `tags`.
    fn install(&mut self, ncols: usize, nrows: usize, sums: Box<[T]>, tags: usize) {
        debug_assert_eq!(sums.len(), Self::len(tags, ncols, nrows));
        self.clear(ncols, nrows);
        *self.filled.get_mut() = Box::into_raw(sums).cast::<T>().map_addr(|addr| addr | tags);
    }

    /// Stops every later read of a filled memo, and marks a pinned one
    /// suspect. The sums stay allocated until `clear`: a reader may still
    /// hold them.
    fn reject(&self) {
        let sums = self.filled.load(Ordering::Acquire);
        if !sums.is_null() {
            // Failing means another thread rejected it first.
            let _ = self.filled.compare_exchange(
                sums,
                sums.map_addr(|addr| addr | REJECTED),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    /// Forgets the sums of an `nrows x ncols` matrix: the elements are
    /// about to change, or the matrix drops.
    #[inline]
    fn clear(&mut self, ncols: usize, nrows: usize) {
        let (sums, tags) = untag(std::mem::replace(self.filled.get_mut(), ptr::null_mut()));
        if !sums.is_null() {
            let len = Self::len(tags, ncols, nrows);
            // SAFETY: published by `fill` or `install` with `len` sums, and
            // `&mut self` proves no reader.
            drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(sums, len)) });
        }
    }
}

impl<T: Scalar> Clone for Sums<T> {
    /// A clone fills a memo of its own.
    fn clone(&self) -> Self {
        Self::empty()
    }
}

impl<T: Scalar> Matrix<T> {
    /// `m x n` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let data = AlignedVec::zeroed(nrows.checked_mul(ncols).expect("matrix size overflow"))
            .expect("matrix allocation failed");
        Self::from_data(data, nrows, ncols)
    }

    fn from_data(data: AlignedVec<T>, nrows: usize, ncols: usize) -> Self {
        Self {
            data,
            nrows,
            ncols,
            sums: Sums::empty(),
        }
    }

    /// `m x n` matrix for a caller that stores every element before reading
    /// any — the output of a `beta == 0` product: like [`zeros`](Self::zeros),
    /// but a recycled buffer, heap block or mapping, keeps the values it held
    /// ([`AlignedVec::for_overwrite`]).
    pub fn for_overwrite(nrows: usize, ncols: usize) -> Self {
        let len = nrows.checked_mul(ncols).expect("matrix size overflow");
        let data = AlignedVec::for_overwrite(len).expect("matrix allocation failed");
        Self::from_data(data, nrows, ncols)
    }

    /// `m x n` matrix with every element `value`.
    pub fn filled(nrows: usize, ncols: usize, value: T) -> Self {
        let mut m = Self::for_overwrite(nrows, ncols);
        m.data.fill(value);
        m
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::for_overwrite(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Builds from a column-major slice (`len == nrows * ncols`).
    pub fn from_col_major(nrows: usize, ncols: usize, data: &[T]) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(CoreError::ShapeMismatch {
                context: format!(
                    "column-major slice has {} elements, expected {}x{} = {}",
                    data.len(),
                    nrows,
                    ncols,
                    nrows * ncols
                ),
            });
        }
        Ok(Self::from_data(AlignedVec::from_slice(data)?, nrows, ncols))
    }

    /// Identity matrix (square).
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { T::ONE } else { T::ZERO })
    }

    /// Uniform random matrix in `(-1, 1)`, deterministic under `seed`.
    ///
    /// This mirrors the paper's benchmark inputs (dense random operands).
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f64, 1.0f64);
        let mut m = Self::for_overwrite(nrows, ncols);
        for v in m.data.as_mut_slice() {
            *v = T::from_f64(dist.sample(&mut rng));
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Leading dimension (always `nrows` for owned matrices).
    #[inline]
    pub fn ld(&self) -> usize {
        self.nrows
    }

    /// Element at `(i, j)`, bounds-checked.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        self.data[i + j * self.nrows]
    }

    /// Sets element `(i, j)`, bounds-checked.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        self.sums.clear(self.ncols, self.nrows);
        self.data[i + j * self.nrows] = v;
    }

    /// Column-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Mutable column-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.sums.clear(self.ncols, self.nrows);
        self.data.as_mut_slice()
    }

    /// Immutable view of the whole matrix — the one view that carries the
    /// matrix's memo of its sums ([`MatRef::col_sums`],
    /// [`MatRef::pinned_row_sums`]).
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.data.as_ptr(),
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.nrows,
            sums: Some(&self.sums),
            _marker: PhantomData,
        }
    }

    /// Mutable view of the whole matrix.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        self.sums.clear(self.ncols, self.nrows);
        MatMut {
            ptr: self.data.as_mut_ptr(),
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.nrows,
            _marker: PhantomData,
        }
    }

    /// Pins the matrix's sums, as an owner that keeps the matrix for many
    /// products takes them once on receipt: `eᵀA` as the loop nest sums a
    /// matrix it reads as `A` (`pack::col_sums_scaled` at `alpha = 1`, so a
    /// product that sums the matrix again reproduces the bits), then `B·e`
    /// and `|B|·e`. Every protected product that reads the matrix, as `A` or
    /// as `B`, then checks the data against them and fails over data that
    /// changed since ([`is_suspect`](Self::is_suspect)). Replaces any memo;
    /// the next `&mut` access to the elements clears it like any other.
    pub fn pin_sums(&mut self) {
        let (m, n) = (self.nrows, self.ncols);
        let mut sums = vec![T::ZERO; n + 2 * m].into_boxed_slice();
        let (cols, rows) = sums.split_at_mut(n);
        let (rows, abs) = rows.split_at_mut(m);
        let view = self.as_ref();
        crate::pack::col_sums_scaled(&view, T::ONE, cols);
        for j in 0..n {
            for ((row, abs), &x) in rows.iter_mut().zip(abs.iter_mut()).zip(view.col(j)) {
                *row += x;
                *abs += x.abs();
            }
        }
        self.sums.install(n, m, sums, PINNED);
    }

    /// True once a protected product found the data disagreeing with its
    /// pinned sums ([`pin_sums`](Self::pin_sums)): the matrix changed after
    /// its owner received it.
    pub fn is_suspect(&self) -> bool {
        self.sums.load().1 == TAGS
    }

    /// A copy of this matrix with element `index` (column-major) moved by
    /// `delta`, carrying this matrix's memo as it is: what a soft error in
    /// memory leaves beside sums pinned before it. For tests of that fault
    /// class — a clone carries no memo, so it hides the change from every
    /// check that reads one.
    #[doc(hidden)]
    pub fn changed_keeping_sums(&self, index: usize, delta: T) -> Self {
        let mut copy = self.clone();
        let x = &mut copy.as_mut_slice()[index];
        *x += delta;
        let (sums, tags) = self.sums.load();
        if !sums.is_null() {
            let len = Sums::<T>::len(tags, self.ncols, self.nrows);
            // SAFETY: a published block holds `len` sums and outlives `&self`.
            let block = Box::from(unsafe { std::slice::from_raw_parts(sums, len) });
            copy.sums.install(self.ncols, self.nrows, block, tags);
        }
        copy
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> T {
        let mut acc = T::ZERO;
        for &v in self.data.as_slice() {
            acc = acc.max(v.abs());
        }
        acc
    }

    /// Max absolute difference against another matrix of identical shape.
    pub fn max_abs_diff(&self, other: &Self) -> T {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut acc = T::ZERO;
        for (a, b) in self.as_slice().iter().zip(other.as_slice()) {
            acc = acc.max((*a - *b).abs());
        }
        acc
    }

    /// Relative max-norm distance: `max|a-b| / max(1, max|a|)`.
    pub fn rel_max_diff(&self, other: &Self) -> f64 {
        let d = self.max_abs_diff(other).to_f64();
        let s = self.max_abs().to_f64().max(1.0);
        d / s
    }
}

/// Immutable column-major matrix view with leading dimension `ld`.
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a, T: Scalar> {
    ptr: *const T,
    nrows: usize,
    ncols: usize,
    ld: usize,
    /// The viewed matrix's memo, on a view of a whole [`Matrix`] only.
    sums: Option<&'a Sums<T>>,
    _marker: PhantomData<&'a [T]>,
}

// SAFETY: a MatRef is a shared borrow of matrix memory.
unsafe impl<T: Scalar> Send for MatRef<'_, T> {}
unsafe impl<T: Scalar> Sync for MatRef<'_, T> {}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// Builds a view from a raw slice.
    ///
    /// `data` must contain at least `ld * (ncols - 1) + nrows` elements.
    pub fn from_slice(data: &'a [T], nrows: usize, ncols: usize, ld: usize) -> Result<Self> {
        validate_view(data.len(), nrows, ncols, ld)?;
        Ok(Self {
            ptr: data.as_ptr(),
            nrows,
            ncols,
            ld,
            sums: None,
            _marker: PhantomData,
        })
    }

    /// Builds a view from raw parts.
    ///
    /// # Safety
    /// `ptr` must point to an allocation valid for reads of the column-major
    /// region `{i + j*ld : i < nrows, j < ncols}` for the lifetime `'a`, and
    /// no mutable alias to that region may exist during `'a`.
    pub unsafe fn from_raw_parts(ptr: *const T, nrows: usize, ncols: usize, ld: usize) -> Self {
        debug_assert!(ld >= nrows.max(1));
        Self {
            ptr,
            nrows,
            ncols,
            ld,
            sums: None,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }
    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }
    /// Leading dimension.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }
    /// Raw pointer to element (0,0).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// The viewed matrix's unscaled column sums `eᵀA`, where the view is of
    /// a whole [`Matrix`] ([`Matrix::as_ref`]) whose memo is pinned, or
    /// filled and not rejected; `None` on every other view.
    #[inline]
    pub fn col_sums(&self) -> Option<&'a [T]> {
        // SAFETY: only `Matrix::as_ref` gives a view a memo, with the
        // matrix's shape; every memo holds `ncols` sums first.
        self.sums
            .and_then(|memo| unsafe { memo.get(self.ncols, false) })
    }

    /// The viewed matrix's pinned row sums `B·e` and `|B|·e`
    /// ([`Matrix::pin_sums`]), where the view is of a whole [`Matrix`] whose
    /// memo is pinned; `None` on every other view.
    #[inline]
    pub fn pinned_row_sums(&self) -> Option<(&'a [T], &'a [T])> {
        let (n, m) = (self.ncols, self.nrows);
        // SAFETY: as in `col_sums`; a pinned memo holds `n + 2m` sums.
        let sums = self
            .sums
            .and_then(|memo| unsafe { memo.get(n + 2 * m, true) })?;
        Some(sums[n..].split_at(m))
    }

    /// Fills the viewed matrix's memo with `sums` — its column sums as
    /// `pack::col_sums_scaled(.., ONE, ..)` computes them — where the view
    /// carries one that is empty; else does nothing.
    ///
    /// # Panics
    /// If `sums` does not hold one sum per column.
    pub fn fill_col_sums(&self, sums: &[T]) {
        assert_eq!(sums.len(), self.ncols, "one sum per column");
        if let Some(memo) = self.sums {
            memo.fill(sums);
        }
    }

    /// Rejects the viewed matrix's memo, found disagreeing with the data. A
    /// filled memo is the stale one: no view reads it, and nothing fills it
    /// again until the matrix is mutated. A pinned one stays readable and
    /// the data is the suspect ([`Matrix::is_suspect`]).
    pub fn reject_sums(&self) {
        if let Some(memo) = self.sums {
            memo.reject();
        }
    }

    /// Element at `(i, j)`, bounds-checked.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        // SAFETY: in-bounds per the assertion and view invariant.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Zero-copy submatrix `rows x cols` starting at `(i, j)`.
    #[inline]
    pub fn submatrix(&self, i: usize, j: usize, rows: usize, cols: usize) -> MatRef<'a, T> {
        assert!(
            i + rows <= self.nrows && j + cols <= self.ncols,
            "submatrix out of bounds"
        );
        MatRef {
            // SAFETY: offset stays within the viewed allocation.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            nrows: rows,
            ncols: cols,
            ld: self.ld,
            sums: None,
            _marker: PhantomData,
        }
    }

    /// Column `j` as a slice (contiguous thanks to column-major layout).
    #[inline]
    pub fn col(&self, j: usize) -> &'a [T] {
        assert!(j < self.ncols, "column out of bounds");
        // SAFETY: column j spans [j*ld, j*ld + nrows) within the view.
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.nrows) }
    }

    /// Copies into an owned matrix.
    pub fn to_owned(&self) -> Matrix<T> {
        Matrix::from_fn(self.nrows, self.ncols, |i, j| self.get(i, j))
    }
}

/// Mutable column-major matrix view with leading dimension `ld`.
#[derive(Debug)]
pub struct MatMut<'a, T: Scalar> {
    ptr: *mut T,
    nrows: usize,
    ncols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a MatMut is an exclusive borrow of matrix memory.
unsafe impl<T: Scalar> Send for MatMut<'_, T> {}
unsafe impl<T: Scalar> Sync for MatMut<'_, T> {}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Builds a mutable view from raw parts.
    ///
    /// # Safety
    /// `ptr` must point to an allocation valid for reads and writes of the
    /// column-major region `{i + j*ld : i < nrows, j < ncols}` for the
    /// lifetime `'a`, and that region must not be aliased by any other
    /// reference during `'a`. (Parallel drivers use this to hand disjoint
    /// row slices of `C` to different threads.)
    pub unsafe fn from_raw_parts(ptr: *mut T, nrows: usize, ncols: usize, ld: usize) -> Self {
        debug_assert!(ld >= nrows.max(1));
        Self {
            ptr,
            nrows,
            ncols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Builds a mutable view from a raw slice.
    pub fn from_slice(data: &'a mut [T], nrows: usize, ncols: usize, ld: usize) -> Result<Self> {
        validate_view(data.len(), nrows, ncols, ld)?;
        Ok(Self {
            ptr: data.as_mut_ptr(),
            nrows,
            ncols,
            ld,
            _marker: PhantomData,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }
    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }
    /// Leading dimension.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }
    /// Raw mutable pointer to element (0,0).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// Element at `(i, j)`, bounds-checked.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        // SAFETY: in-bounds per the assertion and view invariant.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Sets element `(i, j)`, bounds-checked.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        // SAFETY: in-bounds per the assertion and view invariant.
        unsafe { *self.ptr.add(i + j * self.ld) = v };
    }

    /// Immutable re-borrow of this view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.ptr,
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.ld,
            sums: None,
            _marker: PhantomData,
        }
    }

    /// Zero-copy mutable submatrix `rows x cols` starting at `(i, j)`.
    #[inline]
    pub fn submatrix_mut(&mut self, i: usize, j: usize, rows: usize, cols: usize) -> MatMut<'_, T> {
        assert!(
            i + rows <= self.nrows && j + cols <= self.ncols,
            "submatrix out of bounds"
        );
        MatMut {
            // SAFETY: offset stays within the viewed allocation.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            nrows: rows,
            ncols: cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Mutable column `j` as a slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        assert!(j < self.ncols, "column out of bounds");
        // SAFETY: column j spans [j*ld, j*ld + nrows) within the view.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.nrows) }
    }

    /// Fills the viewed region with `v`.
    pub fn fill(&mut self, v: T) {
        for j in 0..self.ncols {
            self.col_mut(j).fill(v);
        }
    }

    /// Copies from another view of identical shape.
    pub fn copy_from(&mut self, src: &MatRef<'_, T>) {
        assert_eq!(self.nrows, src.nrows(), "copy_from: row mismatch");
        assert_eq!(self.ncols, src.ncols(), "copy_from: col mismatch");
        for j in 0..self.ncols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }
}

fn validate_view(len: usize, nrows: usize, ncols: usize, ld: usize) -> Result<()> {
    if ld < nrows.max(1) {
        return Err(CoreError::InvalidLeadingDimension {
            operand: "view",
            ld,
            min: nrows.max(1),
        });
    }
    let needed = if ncols == 0 || nrows == 0 {
        0
    } else {
        ld * (ncols - 1) + nrows
    };
    if len < needed {
        return Err(CoreError::ShapeMismatch {
            context: format!(
                "backing slice has {len} elements, view {nrows}x{ncols} (ld {ld}) needs {needed}"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::<f64>::zeros(3, 4);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.get(2, 3), 0.0);
        m.set(2, 3, 5.0);
        assert_eq!(m.get(2, 3), 5.0);
        // col-major: element (2,3) is at offset 2 + 3*3 = 11
        assert_eq!(m.as_slice()[11], 5.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn identity() {
        let m = Matrix::<f32>::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn random_deterministic() {
        let a = Matrix::<f64>::random(5, 7, 42);
        let b = Matrix::<f64>::random(5, 7, 42);
        let c = Matrix::<f64>::random(5, 7, 43);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        assert!(a.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn submatrix_view() {
        let m = Matrix::<f64>::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let v = m.as_ref().submatrix(2, 3, 3, 2);
        assert_eq!(v.nrows(), 3);
        assert_eq!(v.ncols(), 2);
        assert_eq!(v.get(0, 0), 23.0);
        assert_eq!(v.get(2, 1), 44.0);
        assert_eq!(v.ld(), 6);
    }

    #[test]
    fn submatrix_mut_writes_through() {
        let mut m = Matrix::<f64>::zeros(4, 4);
        {
            let mut v = m.as_mut();
            let mut s = v.submatrix_mut(1, 1, 2, 2);
            s.set(0, 0, 7.0);
            s.set(1, 1, 8.0);
        }
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.get(2, 2), 8.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn col_slices() {
        let m = Matrix::<f64>::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.as_ref().col(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn view_from_slice_with_ld() {
        // 2x2 view with ld=3 over a 3x2 buffer: picks rows 0..2.
        let data = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = MatRef::from_slice(&data, 2, 2, 3).unwrap();
        assert_eq!(v.get(0, 0), 1.0);
        assert_eq!(v.get(1, 0), 2.0);
        assert_eq!(v.get(0, 1), 4.0);
        assert_eq!(v.get(1, 1), 5.0);
    }

    #[test]
    fn view_validation() {
        let data = [0.0f64; 5];
        assert!(MatRef::from_slice(&data, 2, 2, 1).is_err(), "ld < nrows");
        assert!(MatRef::from_slice(&data, 2, 3, 2).is_err(), "too short");
        assert!(MatRef::from_slice(&data, 2, 2, 3).is_ok());
    }

    #[test]
    fn copy_from_and_fill() {
        let src = Matrix::<f64>::random(3, 3, 9);
        let mut dst = Matrix::<f64>::zeros(3, 3);
        dst.as_mut().copy_from(&src.as_ref());
        assert_eq!(dst.as_slice(), src.as_slice());
        dst.as_mut().fill(0.5);
        assert!(dst.as_slice().iter().all(|&x| x == 0.5));
    }

    #[test]
    fn max_abs_reads_magnitudes() {
        let m = Matrix::<f64>::from_col_major(2, 2, &[3.0, -4.0, 0.0, 0.0]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn diff_metrics() {
        let a = Matrix::<f64>::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!((a.rel_max_diff(&b) - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn oob_get_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "submatrix out of bounds")]
    fn oob_submatrix_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m.as_ref().submatrix(1, 1, 2, 2);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::<f64>::zeros(0, 5);
        assert_eq!(m.nrows(), 0);
        let v = m.as_ref();
        assert_eq!(v.ncols(), 5);
    }
}
