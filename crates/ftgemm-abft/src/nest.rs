//! The loop nest — the paper's Fig. 1, written once.
//!
//! `nest` is the GotoBLAS `jc → pc → ic` nest around the macro kernel (the
//! figure's black text) with the fault-tolerance operations (its red text:
//! the five functions of [`crate::panel`], the lane reductions and their
//! barriers) under `if PROTECT`. It is generic over a `Team` — §2.3's
//! threaded algorithm is the same nest with an M-partition, a shared `B~`
//! and barriers — so serial / parallel × plain / protected are four
//! instantiations of one function, all made in one launcher behind
//! [`crate::execute`], and `Solo` differs from a pool only through its
//! `Team` methods.
//!
//! Before the loops, `[P]` computes `A_r = alpha * e^T A` (§2.3), the one
//! encoding no pack carries. It is computed once per value of `A`, not once
//! per call. A view from [`Matrix::as_ref`](ftgemm_core::Matrix::as_ref)
//! carries the matrix's memo of its unscaled column sums
//! ([`MatRef::col_sums`]). A filled memo gives `A_r` in O(k) with no pass
//! over `A`. Otherwise the members sum their share of `A`'s columns,
//! unscaled, into `Buffers::sums` (the O(mk) pass, split along K), and
//! either way each scales its share into `A_r`. Both leave the same bits,
//! because `alpha * (1 * s) == alpha * s`. A call that summed `A` and
//! verified leaves its sums in the memo, where the view carries an empty
//! one. A memo that went stale after its fill (a flipped bit, or a fault in
//! the pass that filled it) shows as a discrepancy no correction explains:
//! before thread 0 rolls back or gives up, it sums `A` once more, and if the
//! memo disagrees it rejects the memo and puts the fresh `A_r` in place.
//!
//! Per depth panel (`pc`), `[P]` marking what `PROTECT` adds:
//!
//! ```text
//! [all]  pack this member's column chunk of B~  [P: fused, with its bc
//!        partial lane and the enc_col update of that chunk]
//! ---- barrier ----
//! [P t0] reduce the bc lanes  ("extra stage of reduction ... B_c", §2.3)
//! [P] -- barrier ----
//! [all]  own rows: pack A~ [P: enc_row update], macro kernel [P: ref_row
//!        slice + ref_col lane], [P: fault-injection site]
//! ---- barrier ----
//! [P t0] reduce the ref_col lanes (unfused refs: read the block back);
//!        panel::verify; publish continue / roll back / abort
//! [P] -- barrier ----
//! [P all] act on the decision
//! ```
//!
//! Rollback ([`Recovery::RetryPanel`]) is team-wide and keeps no per-panel
//! checkpoint. The one recovery point of a column block is its *base state*:
//! the block holding `beta * C0` and `enc_*` its checksums, as the beta pass
//! leaves them. At `beta == 0` that state is all zeros and the first panel
//! *stores* over whatever the block holds, so nothing is saved; otherwise
//! each member's beta pass also writes its row slab to the base snapshot. On
//! *roll back* each member copies its slab back (at `beta == 0`: nothing),
//! re-encodes it, and all replay the block's panels from `pc = 0` through
//! the same loop — so a recovered `C` is bit-identical to a clean run on the
//! same team.

// Concurrency contract (checked by `scripts/orderings.sh`):
// `decision` publishes thread 0's verdict on a panel to the team — Release
// store after `panel::verify`, Acquire load after the barrier that follows.

use crate::faults::SiteStream;
use crate::{checksum, panel, FtConfig, FtError, FtReport, FtResult, Recovery};
use ftgemm_core::gemm::{scale_c, validate_shapes};
use ftgemm_core::macro_kernel::macro_kernel;
use ftgemm_core::{pack, AlignedVec, BlockingParams, Kernel, MatMut, MatRef, Scalar};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// The threads running one [`nest`] together (paper §2.3).
pub(crate) trait Team {
    /// This member's index in `0..nthreads`; member 0 reduces and verifies.
    fn tid(&self) -> usize;
    /// Members in the team.
    fn nthreads(&self) -> usize;
    /// This member's `align`-aligned chunk of `0..len`; the chunks of all
    /// members tile the range.
    fn partition(&self, len: usize, align: usize) -> Range<usize>;
    /// Returns once every member has called it.
    fn barrier(&self);
}

/// The team of one: the whole range, and a barrier nobody waits at.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Solo;

impl Team for Solo {
    fn tid(&self) -> usize {
        0
    }
    fn nthreads(&self) -> usize {
        1
    }
    fn partition(&self, len: usize, _align: usize) -> Range<usize> {
        0..len
    }
    fn barrier(&self) {}
}

/// A borrowed buffer that team members access at ranges they prove disjoint:
/// each mutable access names the range it claims, and barriers delimit the
/// epochs in which a range belongs to one writer or to any number of readers.
#[derive(Debug)]
pub struct Shared<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: a `Shared` is an exclusive borrow of its buffer, handed to several
// threads by reference; every access goes through the unsafe methods below,
// whose contracts require disjoint ranges per epoch.
unsafe impl<T: Send + Sync> Sync for Shared<'_, T> {}

impl<'a, T> Shared<'a, T> {
    /// Shares `buf` for the lifetime of the borrow.
    pub fn new(buf: &'a mut [T]) -> Self {
        Shared {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _borrow: PhantomData,
        }
    }

    /// Where `range` starts, once it is known to lie inside the buffer.
    fn start_of(&self, range: &Range<usize>) -> *mut T {
        let inside = range.start <= range.end && range.end <= self.len;
        assert!(inside, "Shared range out of bounds");
        // SAFETY: `range.start <= len`, so the offset stays in the buffer.
        unsafe { self.ptr.add(range.start) }
    }

    /// Mutable access to `range`.
    ///
    /// # Safety
    /// While the returned slice is live no other thread may access an
    /// overlapping range.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        // SAFETY: in bounds; exclusivity is the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.start_of(&range), range.len()) }
    }

    /// Shared read of `range`.
    ///
    /// # Safety
    /// No thread may hold an overlapping mutable slice.
    pub unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        // SAFETY: in bounds; no writer is the caller's contract.
        unsafe { std::slice::from_raw_parts(self.start_of(&range), range.len()) }
    }

    /// The buffer as `nthreads` equal lanes: exclusive access to lane `tid`.
    ///
    /// # Safety
    /// At most one thread may hold lane `tid`, and none while
    /// [`reduce_lanes`](Self::reduce_lanes) runs.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn lane_mut(&self, tid: usize, nthreads: usize) -> &mut [T] {
        let lane = self.len / nthreads;
        // SAFETY: forwarded contract; lanes are disjoint ranges.
        unsafe { self.slice_mut(tid * lane..(tid + 1) * lane) }
    }
}

impl<T: Scalar> Shared<'_, T> {
    /// Sums the first `out.len()` elements of each of the `nthreads` lanes
    /// into `out`, lane 0 first (the paper's cross-thread reduction).
    ///
    /// # Safety
    /// No lane borrow may be live.
    pub unsafe fn reduce_lanes(&self, nthreads: usize, out: &mut [T]) {
        let lane = self.len / nthreads;
        assert!(out.len() <= lane, "reduce_lanes: output longer than a lane");
        // SAFETY: forwarded contract.
        let lanes = unsafe { self.slice(0..self.len) };
        for (i, o) in out.iter_mut().enumerate() {
            *o = (1..nthreads).fold(lanes[i], |acc, t| acc + lanes[t * lane + i]);
        }
    }
}

/// What a [`nest`] works in besides `C` and each member's private `A~`: one
/// borrowed view of its owner's buffers, and which of the owner's protected
/// calls it serves. An unprotected nest touches `btilde` only.
#[derive(Debug)]
pub(crate) struct Buffers<'a, T> {
    /// The call's id on its owner ([`Workspace::job`](crate::Workspace::job)):
    /// member `tid` draws its injection sites from stream `call ^ tid << 32`.
    pub call: u64,
    /// Packed `B~` of one depth panel, packed cooperatively, read by all.
    pub btilde: Shared<'a, T>,
    /// `[ar, bc, enc_row, ref_row, enc_col, ref_col]`: `alpha * e^T A`
    /// (length `k`); the reduced `B_c` of the current panel (`kc`); encoded
    /// and reference row checksums (`m`; members own their rows); encoded and
    /// reference column checksums of the column block (`nc`).
    pub vectors: [Shared<'a, T>; 6],
    /// `e^T A` unscaled (length `k`), where the call sums `A`: what a
    /// verified call leaves in `A`'s memo ([`MatRef::fill_col_sums`]).
    pub sums: Shared<'a, T>,
    /// `[enc_col, bc, ref_col]` partials, one lane per team member each: what
    /// the cross-thread reductions sum into the vectors of those names.
    pub lanes: [Shared<'a, T>; 3],
    /// Base snapshot of the column block (`m * nc`), read and written only
    /// where [`keeps_base`] holds.
    pub base: Shared<'a, T>,
}

/// Elements of the packed `A~` of one member and of the shared packed `B~`
/// that a `nest` over `m x n x k` touches under `p`: one `mc x kc` block and
/// one `kc x nc` panel, each clamped to the problem and padded to whole
/// micro-panels. The one owner of packing buffers, a
/// [`Workspace`](crate::Workspace), sizes them with this, so what a small
/// problem allocates follows the problem and [`BlockingParams::packed_a_len`]
/// / [`packed_b_len`](BlockingParams::packed_b_len) are only the ceiling.
pub fn packed_lens(p: &BlockingParams, m: usize, n: usize, k: usize) -> (usize, usize) {
    let kc = p.kc.min(k);
    let a_rows = p.mc.min(m).next_multiple_of(p.mr);
    let b_cols = p.nc.min(n).next_multiple_of(p.nr);
    (a_rows * kc, kc * b_cols)
}

/// What [`Checks`] must hold for a [`nest`] over `m x n x k` under `p`, in
/// [`Checks::new`]'s order: one column block and one depth panel, each
/// clamped to the problem. Every owner of checksum state sizes it with this.
pub(crate) fn checks_need(p: &BlockingParams, m: usize, n: usize, k: usize) -> [usize; 4] {
    [m, k, p.nc.min(n), p.kc.min(k)]
}

/// The checksum state of a protected [`nest`], as a
/// [`Workspace`](crate::Workspace) holds it for every team that runs in it:
/// the buffers behind every field of [`Buffers`] but `btilde`, the one list
/// of their sizes, and the count of protected calls that identifies each
/// call's injection streams (a batch item's id comes from its batch
/// instead, [`Workspace::job`](crate::Workspace::job)). Lanes cut for a team
/// serve any smaller one. The nest overwrites what it slices before reading
/// it, so a reused state is neither shrunk nor re-zeroed.
#[derive(Debug)]
pub(crate) struct Checks<T: Scalar> {
    /// The team the lanes are cut for.
    nthreads: usize,
    /// Capacities: rows, depth, column-block width, depth-panel length.
    caps: [usize; 4],
    /// Protected calls viewed so far ([`view`](Self::view)).
    calls: u64,
    vectors: [AlignedVec<T>; 6],
    sums: AlignedVec<T>,
    lanes: [Vec<T>; 3],
    base: AlignedVec<T>,
}

impl<T: Scalar> Checks<T> {
    /// State for a team of `nthreads` on problems up to `m` rows and `k`
    /// deep, in column blocks up to `nc` wide and depth panels up to `kc`
    /// long. No base snapshot yet ([`reserve_base`](Self::reserve_base)).
    pub fn new(nthreads: usize, [m, k, nc, kc]: [usize; 4]) -> Self {
        Checks {
            nthreads,
            caps: [m, k, nc, kc],
            calls: 0,
            vectors: [k, kc, m, m, nc, nc].map(AlignedVec::zeroed_or_panic),
            sums: AlignedVec::zeroed_or_panic(k),
            lanes: [nc, kc, nc].map(|lane| vec![T::ZERO; nthreads * lane]),
            base: AlignedVec::zeroed_or_panic(0),
        }
    }

    /// True when this state serves `need` ([`checks_need`]) on a team of
    /// `nthreads`.
    pub fn fits(&self, nthreads: usize, need: [usize; 4]) -> bool {
        self.nthreads == nthreads && self.caps.iter().zip(need).all(|(&cap, need)| cap >= need)
    }

    /// Rebuilds the state, for a team of `nthreads`, with every capacity
    /// raised to `need` if it does not fit; no-op otherwise. The call count
    /// belongs to the owner and carries over.
    pub fn ensure(&mut self, nthreads: usize, need: [usize; 4]) {
        if !self.fits(nthreads, need) {
            let caps = std::array::from_fn(|i| self.caps[i].max(need[i]));
            self.calls = std::mem::replace(self, Checks::new(nthreads, caps)).calls;
        }
    }

    /// Grows the `m x nc` base snapshot a rollback restores from, where
    /// `cfg` and `beta` call for one ([`keeps_base`]: never at `beta == 0`),
    /// once: a plan calls this at plan time, a protected entry on every
    /// call, so replays of a reserved shape allocate nothing.
    pub fn reserve_base(&mut self, cfg: &FtConfig, beta: T) {
        let len = self.caps[0] * self.caps[2];
        if keeps_base(cfg, beta) && self.base.len() < len {
            self.base = AlignedVec::zeroed_or_panic(len);
        }
    }

    /// Hands the base snapshot back to the allocator — the one O(`m * nc`)
    /// piece of this state; everything else is O(`m + nc + k`). A long-lived
    /// owner calls this after a call that reserved one; no-op otherwise.
    pub fn release_base(&mut self) {
        if !self.base.is_empty() {
            self.base = AlignedVec::zeroed_or_panic(0);
        }
    }

    /// Elements this state holds, base snapshot included.
    pub fn elements(&self) -> usize {
        let vectors: usize = self.vectors.iter().map(|v| v.len()).sum();
        let lanes: usize = self.lanes.iter().map(Vec::len).sum();
        vectors + self.sums.len() + lanes + self.base.len()
    }

    /// The nest's view of this state and of the packed-`B~` buffer, for a
    /// protected call when `protect` holds. A protected view counts the call,
    /// and its [`Buffers::call`] — where the call's injection streams come
    /// from — is the count: 1 on a fresh owner, whatever else the process
    /// ran. Plain views, [`ensure`](Self::ensure) and
    /// [`reserve_base`](Self::reserve_base) do not count, so a plain view
    /// reads the count as is. The one site that makes a call id, for serial
    /// and pool entries alike.
    pub fn view<'a>(&'a mut self, btilde: &'a mut [T], protect: bool) -> Buffers<'a, T> {
        self.calls += u64::from(protect);
        Buffers {
            call: self.calls,
            btilde: Shared::new(btilde),
            vectors: self.vectors.each_mut().map(|v| Shared::new(v)),
            sums: Shared::new(&mut self.sums),
            lanes: self.lanes.each_mut().map(|v| Shared::new(v)),
            base: Shared::new(&mut self.base),
        }
    }
}

/// One `C = alpha*A*B + beta*C` for a team: operands, blocking, buffers, and
/// the two cells members share — thread 0's per-panel decision and the
/// team's merged outcome.
#[derive(Debug)]
pub(crate) struct Job<'a, T: Scalar> {
    kernel: Kernel<T>,
    params: BlockingParams,
    cfg: &'a FtConfig,
    alpha: T,
    a: MatRef<'a, T>,
    /// `A`'s memo of `e^T A` as the job found it ([`MatRef::col_sums`]):
    /// read once, so every member takes the same branch of the prelude.
    a_sums: Option<&'a [T]>,
    b: MatRef<'a, T>,
    beta: T,
    c: *mut T,
    ldc: usize,
    dims: (usize, usize, usize),
    bufs: Buffers<'a, T>,
    decision: AtomicU8,
    outcome: Mutex<(FtReport, Option<FtError>)>,
    _c: PhantomData<&'a mut T>,
}

// SAFETY: `c` is an exclusive borrow of the output, dereferenced only by
// `nest` under its row-slab / exclusive-epoch discipline; every other field
// is `Sync` itself.
unsafe impl<T: Scalar> Sync for Job<'_, T> {}

const CONTINUE: u8 = 0;
const ROLL_BACK: u8 = 1;
const ABORT: u8 = 2;

impl<'a, T: Scalar> Job<'a, T> {
    /// A job over operands that passed [`prologue`] with `params`. `cfg` is
    /// read by a protected nest only, which draws its injection sites from
    /// the streams of `bufs.call`.
    pub(crate) fn new(
        kernel: Kernel<T>,
        params: BlockingParams,
        cfg: &'a FtConfig,
        alpha: T,
        a: &MatRef<'a, T>,
        b: &MatRef<'a, T>,
        beta: T,
        c: &'a mut MatMut<'_, T>,
        bufs: Buffers<'a, T>,
    ) -> Self {
        Job {
            kernel,
            params,
            cfg,
            alpha,
            a: *a,
            a_sums: a.col_sums(),
            b: *b,
            beta,
            ldc: c.ld(),
            dims: (c.nrows(), c.ncols(), a.ncols()),
            c: c.as_mut_ptr(),
            bufs,
            decision: AtomicU8::new(CONTINUE),
            outcome: Mutex::new((FtReport::default(), None)),
            _c: PhantomData,
        }
    }

    /// Rows `i..i + rows` of column block `jc..jc + cols` of `C`.
    ///
    /// # Safety
    /// No other thread may access those rows of the block while the view
    /// is live.
    unsafe fn c_rows(&self, i: usize, rows: usize, jc: usize, cols: usize) -> MatMut<'_, T> {
        // SAFETY: inside the `m x n` output; exclusivity is the caller's.
        unsafe { MatMut::from_raw_parts(self.c.add(i + jc * self.ldc), rows, cols, self.ldc) }
    }

    /// The protected team's merged report — published to the process-wide
    /// `ftgemm_abft_*_total` families, once — or the pattern it stopped at.
    pub(crate) fn finish(self) -> FtResult<FtReport> {
        let (report, verdict) = self.outcome.into_inner();
        report.publish_global();
        verdict.map_or(Ok(report), Err)
    }
}

/// What every entry does before its loop nest, in this order: validate the
/// shapes, validate the blocking, answer the degenerate products (`k == 0 ||
/// alpha == 0`: `C *= beta`, which on an empty `C` writes nothing).
/// `Ok(None)` means `C` already holds the result; every `Err` leaves `C` as
/// the caller passed it.
pub(crate) fn prologue<T: Scalar>(
    params: &BlockingParams,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> ftgemm_core::Result<Option<(usize, usize, usize)>> {
    let (m, n, k) = validate_shapes(a, b, c)?;
    params.validate()?;
    if m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        scale_c(c, beta);
        return Ok(None);
    }
    Ok(Some((m, n, k)))
}

/// True when a rollback cannot recompute the column block's base state and
/// must restore a saved one. At `beta == 0` the base is all zeros.
pub(crate) fn keeps_base<T: Scalar>(cfg: &FtConfig, beta: T) -> bool {
    matches!(cfg.recovery, Recovery::RetryPanel { .. }) && beta != T::ZERO
}

/// The unscaled sums of `a`'s columns `cols` into `sums`: the O(mk) encode
/// pass a filled memo saves.
fn sum_columns<T: Scalar>(a: &MatRef<'_, T>, cols: Range<usize>, sums: &mut [T]) {
    if !cols.is_empty() {
        let a_cols = a.submatrix(0, cols.start, a.nrows(), cols.len());
        pack::col_sums_scaled(&a_cols, T::ONE, sums);
    }
}

/// `ar = alpha * sums`, element by element.
fn scale_into<T: Scalar>(alpha: T, sums: &[T], ar: &mut [T]) {
    for (ar, &sum) in ar.iter_mut().zip(sums) {
        *ar = alpha * sum;
    }
}

/// The cross-thread reduction (§2.3): thread 0 sums the team's `lanes` into
/// `out[..len]`, between the barrier that ends the members' writes to their
/// lanes and the one that opens `out` for reading.
///
/// # Safety
/// Every member calls this together, holding no borrow of `lanes` or `out`.
unsafe fn reduce<T: Scalar>(
    team: &impl Team,
    lanes: &Shared<'_, T>,
    out: &Shared<'_, T>,
    len: usize,
) {
    team.barrier();
    if team.tid() == 0 {
        // SAFETY: between the barriers nobody else touches either buffer.
        unsafe { lanes.reduce_lanes(team.nthreads(), out.slice_mut(0..len)) };
    }
    team.barrier();
}

/// One member's share of `job` (see the module docs). `atilde` is the
/// member's private packed-`A~` buffer. A protected member merges what it
/// counted into the job's outcome before it returns ([`Job::finish`]).
///
/// # Safety
/// Every member of `team` — and nothing else — runs this on `job`, once,
/// concurrently, each under its own `tid`, and `team.barrier()` holds all of
/// them. `job.bufs` fit the problem: `btilde` and `atilde` hold what
/// [`packed_lens`] says; under `PROTECT` the rest as `checks_need` sizes it
/// for this team, with the base snapshot reserved where [`keeps_base`] holds,
/// and viewed with `protect` set.
pub(crate) unsafe fn nest<T: Scalar, Tm: Team, const PROTECT: bool>(
    team: &Tm,
    job: &Job<'_, T>,
    atilde: &mut [T],
) {
    let (p, cfg, btilde, base) = (job.params, job.cfg, &job.bufs.btilde, &job.bufs.base);
    let [ar, bc, enc_row, ref_row, enc_col, ref_col] = &job.bufs.vectors;
    let [enc_col_lanes, bc_lanes, ref_col_lanes] = &job.bufs.lanes;
    let (alpha, beta, a, b) = (job.alpha, job.beta, &job.a, &job.b);
    let (m, n, k) = job.dims;
    let (tid, nthreads) = (team.tid(), team.nthreads());
    let rows = team.partition(m, p.mr);
    let (ms, mlen) = (rows.start, rows.len());

    let fusion = cfg.fusion;
    let fused_refs = PROTECT && fusion.fuse_kernel_refs;
    let keep_base = PROTECT && keeps_base(cfg, beta);
    let max_rollbacks = match cfg.recovery {
        Recovery::ReportOnly => 0,
        Recovery::RetryPanel { max_retries } => max_retries,
    };
    let mut report = FtReport::default();
    let mut verdict = None;
    let mut stream = None;

    if PROTECT {
        // One injection site per macro-kernel call of this member.
        let sites = n.div_ceil(p.nc) * k.div_ceil(p.kc) * mlen.div_ceil(p.mc).max(1);
        stream = cfg
            .injector
            .as_ref()
            .map(|inj| inj.stream(job.bufs.call ^ (tid as u64) << 32, sites));
        // A_r = alpha * e^T A (§2.3 computes it before the main loops),
        // partitioned along K: disjoint writes. From A's memo in O(k), or
        // from the one O(mk) encode pass.
        let cols = team.partition(k, 1);
        // SAFETY: disjoint k-ranges across members.
        let (ar, sums) = unsafe {
            (
                ar.slice_mut(cols.clone()),
                job.bufs.sums.slice_mut(cols.clone()),
            )
        };
        let sums = match job.a_sums {
            Some(memo) => &memo[cols],
            None => {
                sum_columns(a, cols, sums);
                sums
            }
        };
        scale_into(alpha, sums, ar);
    }
    team.barrier();
    // Whether thread 0 has summed `A` again to check its memo (see the
    // module docs); once per call.
    let mut resummed = false;

    'nest: for jc in (0..n).step_by(p.nc) {
        let nc_eff = p.nc.min(n - jc);
        let mut rollbacks = 0u32;
        'block: loop {
            // Base state of this member's row slab of the column block. At
            // beta == 0 nothing touches C here: the first panel stores.
            // SAFETY: members own their rows of C for the whole call, bar
            // thread 0's verification epochs.
            let mut c_slab = unsafe { job.c_rows(ms, mlen, jc, nc_eff) };
            if PROTECT {
                // SAFETY: own lane, own rows, own slab of the snapshot.
                let lane = unsafe { &mut enc_col_lanes.lane_mut(tid, nthreads)[..nc_eff] };
                lane.fill(T::ZERO);
                if mlen > 0 {
                    let enc_rows = unsafe { enc_row.slice_mut(rows.clone()) };
                    let base = keep_base
                        .then(|| unsafe { base.slice_mut(ms * nc_eff..rows.end * nc_eff) });
                    // A rollback puts `beta * C0` back and encodes it as is.
                    let mut beta_pass = beta;
                    if let (true, Some(base)) = (rollbacks > 0, &base) {
                        let saved = MatRef::from_slice(base, mlen, nc_eff, mlen);
                        c_slab.copy_from(&saved.expect("the snapshot is mlen x nc_eff"));
                        beta_pass = T::ONE;
                    }
                    panel::encode_base(fusion, &mut c_slab, beta_pass, enc_rows, lane, base);
                }
                // SAFETY: every member is here, done with its lane.
                unsafe { reduce(team, enc_col_lanes, enc_col, nc_eff) };
            } else if beta != T::ZERO {
                scale_c(&mut c_slab, beta);
            }

            // `panel::verify`'s memory of the largest correction applied to
            // this block (thread 0's copy is the one read); starts over with
            // the block after a rollback.
            let mut correction_scale = T::ZERO;

            for pc in (0..k).step_by(p.kc) {
                let kc_eff = p.kc.min(k - pc);

                // Cooperative packing of B~ along N, in NR-aligned chunks so
                // whole micro-panels stay within one member.
                let cols = team.partition(nc_eff, p.nr);
                if PROTECT {
                    // Zero the per-panel accumulators this member owns.
                    // SAFETY: own lanes / own rows, pre-barrier epoch.
                    unsafe {
                        bc_lanes.lane_mut(tid, nthreads)[..kc_eff].fill(T::ZERO);
                        ref_col_lanes.lane_mut(tid, nthreads)[..nc_eff].fill(T::ZERO);
                        ref_row.slice_mut(rows.clone()).fill(T::ZERO);
                    }
                }
                if !cols.is_empty() {
                    let b_block = b.submatrix(pc, jc + cols.start, kc_eff, cols.len());
                    let off = (cols.start / p.nr) * p.nr * kc_eff;
                    let len = cols.len().div_ceil(p.nr) * p.nr * kc_eff;
                    // SAFETY: NR-aligned chunks map to disjoint packed slabs;
                    // enc_col is written at this member's chunk only.
                    let out = unsafe { btilde.slice_mut(off..off + len) };
                    if PROTECT {
                        unsafe {
                            let ar = ar.slice(pc..pc + kc_eff);
                            let bc = &mut bc_lanes.lane_mut(tid, nthreads)[..kc_eff];
                            let enc_cols = enc_col.slice_mut(cols);
                            panel::pack_b(fusion, &b_block, p.nr, out, ar, bc, enc_cols);
                        }
                    } else {
                        pack::pack_b(&b_block, p.nr, out);
                    }
                }
                if PROTECT {
                    // The paper's "extra stage of reduction" for B_c.
                    // SAFETY: every member is here, done with its lane.
                    unsafe { reduce(team, bc_lanes, bc, kc_eff) };
                } else {
                    team.barrier();
                }

                // Own rows: pack A~ and run the macro kernel, block by block.
                // SAFETY: read-only epoch for btilde and bc; own lane of
                // ref_col; own rows of enc_row / ref_row / C.
                let b_packed = unsafe { btilde.slice(0..nc_eff.div_ceil(p.nr) * p.nr * kc_eff) };
                let ref_col_lane = unsafe { ref_col_lanes.lane_mut(tid, nthreads) };
                for ic in rows.clone().step_by(p.mc) {
                    let mc_eff = p.mc.min(rows.end - ic);
                    let a_block = a.submatrix(ic, pc, mc_eff, kc_eff);
                    let mut c_block = unsafe { job.c_rows(ic, mc_eff, jc, nc_eff) };
                    if PROTECT {
                        let bc = unsafe { bc.slice(0..kc_eff) };
                        let enc_rows = unsafe { enc_row.slice_mut(ic..ic + mc_eff) };
                        panel::pack_a(fusion, &a_block, alpha, p.mr, atilde, bc, enc_rows);
                    } else {
                        pack::pack_a(&a_block, alpha, p.mr, atilde);
                    }
                    // Reference sums at register level, or (unfused) none:
                    // thread 0 reads the block back below.
                    let mut sums = fused_refs.then(|| unsafe {
                        let ref_rows = ref_row.slice_mut(ic..ic + mc_eff);
                        (&mut ref_col_lane[..nc_eff], ref_rows)
                    });
                    macro_kernel(
                        &job.kernel,
                        kc_eff,
                        atilde,
                        b_packed,
                        &mut c_block,
                        sums.as_mut().map(|(col, row)| (&mut **col, &mut **row)),
                        beta == T::ZERO && pc == 0,
                    );
                    // An injected error reaches the in-register reference
                    // sums as the faulty FMA's value would have; a read-back
                    // pass sees it in C anyway.
                    if let Some(event) = stream.as_mut().and_then(SiteStream::poll) {
                        report.injected += 1;
                        let (i, j, delta) = panel::inject(&event, &mut c_block);
                        if let Some((col, row)) = sums {
                            col[j] += delta;
                            row[i] += delta;
                        }
                    }
                }
                // B~ must not be repacked while any member still reads it.
                team.barrier();

                if PROTECT {
                    // "p-loop: verify" on thread 0; the others are parked at
                    // the barrier below, so it has the whole block, and the
                    // checksum vectors, to itself.
                    if tid == 0 {
                        // SAFETY (all five, and the reduction): exclusive
                        // verification epoch, lanes quiescent.
                        let mut c_block = unsafe { job.c_rows(0, m, jc, nc_eff) };
                        let ref_row = unsafe { ref_row.slice_mut(0..m) };
                        let ref_col = unsafe { ref_col.slice_mut(0..nc_eff) };
                        let enc_row = unsafe { enc_row.slice(0..m) };
                        let enc_col = unsafe { enc_col.slice(0..nc_eff) };
                        if fused_refs {
                            unsafe { ref_col_lanes.reduce_lanes(nthreads, ref_col) };
                        } else {
                            // Traditional ABFT: a separate O(m*nc) read-back.
                            checksum::encode_c(&c_block.as_ref(), ref_row, ref_col);
                        }
                        let decision = match panel::verify(
                            cfg,
                            pc + kc_eff,
                            (enc_row, ref_row),
                            (enc_col, ref_col),
                            &mut c_block,
                            &mut correction_scale,
                            &mut report,
                        ) {
                            Ok(()) => CONTINUE,
                            Err(detail) => {
                                // What failed may be a stale memo (see the
                                // module docs): check it, once per call.
                                if let (Some(memo), false) = (job.a_sums, resummed) {
                                    resummed = true;
                                    // SAFETY: exclusive verification epoch.
                                    let (sums, ar) = unsafe {
                                        (job.bufs.sums.slice_mut(0..k), ar.slice_mut(0..k))
                                    };
                                    sum_columns(a, 0..k, sums);
                                    let bits = |s: &T| s.to_f64().to_bits();
                                    if !memo.iter().map(bits).eq(sums.iter().map(bits)) {
                                        a.reject_col_sums();
                                        scale_into(alpha, sums, ar);
                                    }
                                }
                                if rollbacks < max_rollbacks {
                                    // Back to the base state; every panel up
                                    // to and including this one is
                                    // recomputed (A and B are untouched by
                                    // construction).
                                    report.retried_panels += pc / p.kc + 1;
                                    ROLL_BACK
                                } else {
                                    verdict = Some(FtError::Unrecoverable { jc, pc, detail });
                                    ABORT
                                }
                            }
                        };
                        job.decision.store(decision, Ordering::Release);
                    }
                    team.barrier();
                    match job.decision.load(Ordering::Acquire) {
                        ROLL_BACK => {
                            rollbacks += 1;
                            continue 'block;
                        }
                        ABORT => break 'nest,
                        _ => {}
                    }
                }
            }
            break;
        }
    }

    if PROTECT {
        // A call that summed `A` and verified fills its memo, where the view
        // carries an empty one. Verdicts are thread 0's alone.
        if let (0, None, None) = (tid, &verdict, job.a_sums) {
            // SAFETY: the members' writes to `sums` ended at the prelude's
            // barrier.
            a.fill_col_sums(unsafe { job.bufs.sums.slice(0..k) });
        }
        let mut outcome = job.outcome.lock();
        outcome.0 += report;
        outcome.1 = outcome.1.take().or(verdict);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ft_gemm_with_ctx, Workspace};
    use ftgemm_core::Matrix;
    use std::sync::Barrier;

    /// A team of scoped std threads: this crate's own proof that the nest
    /// needs nothing of a team beyond the four methods.
    pub(crate) struct Threads<'a> {
        tid: usize,
        barrier: &'a Barrier,
        nthreads: usize,
    }

    impl Team for Threads<'_> {
        fn tid(&self) -> usize {
            self.tid
        }
        fn nthreads(&self) -> usize {
            self.nthreads
        }
        fn partition(&self, len: usize, align: usize) -> Range<usize> {
            let per = len.div_ceil(align).div_ceil(self.nthreads) * align;
            (self.tid * per).min(len)..((self.tid + 1) * per).min(len)
        }
        fn barrier(&self) {
            self.barrier.wait();
        }
    }

    /// Runs `f` as every member of a `nthreads`-strong [`Threads`] team.
    pub(crate) fn as_team(nthreads: usize, f: impl Fn(&Threads<'_>) + Sync) {
        let barrier = Barrier::new(nthreads);
        std::thread::scope(|s| {
            for tid in 0..nthreads {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || {
                    f(&Threads {
                        tid,
                        barrier,
                        nthreads,
                    })
                });
            }
        });
    }

    #[test]
    fn disjoint_ranges_are_written_from_every_member() {
        let mut buf = vec![0.0f64; 801];
        let shared = Shared::new(&mut buf);
        as_team(8, |team| {
            // SAFETY: partition ranges are disjoint across members.
            let mine = unsafe { shared.slice_mut(team.partition(801, 16)) };
            mine.fill((team.tid + 1) as f64);
        });
        assert!(buf.iter().all(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_ranges_are_bounds_checked() {
        let mut buf = [0.0f64; 4];
        // SAFETY: the assert fires before any access.
        let _ = unsafe { Shared::new(&mut buf).slice(0..5) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn lanes_are_bounds_checked() {
        let mut buf = [0.0f64; 6];
        // SAFETY: the assert fires before any access.
        let _ = unsafe { Shared::new(&mut buf).lane_mut(2, 2) };
    }

    #[test]
    fn lanes_accumulate_apart_and_reduce_after_a_barrier() {
        // The B_c pattern: members accumulate partials in their own lanes,
        // meet at a barrier, and member 0 reduces a prefix of every lane.
        let (nthreads, lane, used) = (6, 100, 90);
        let mut buf = vec![0.0f64; nthreads * lane];
        let mut out = vec![-1.0f64; used];
        let (lanes, reduced) = (Shared::new(&mut buf), Shared::new(&mut out));
        as_team(nthreads, |team| {
            // SAFETY: own lane before the barrier; member 0 alone after it.
            for (i, v) in unsafe { lanes.lane_mut(team.tid, nthreads) }
                .iter_mut()
                .enumerate()
            {
                *v = (team.tid * i) as f64;
            }
            team.barrier();
            if team.tid == 0 {
                unsafe { lanes.reduce_lanes(nthreads, reduced.slice_mut(0..used)) };
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (0..nthreads).map(|t| (t * i) as f64).sum::<f64>(), "{i}");
        }
    }

    #[test]
    fn a_team_of_plain_threads_matches_solo_bit_for_bit() {
        let mut core = Workspace::<f64>::new();
        let (mr, nr) = (core.kernel.mr, core.kernel.nr);
        let p = BlockingParams {
            mr,
            nr,
            mc: mr * 2,
            nc: nr * 4,
            kc: 16,
        };
        core.set_params(p).unwrap();
        let kernel = core.kernel;
        let (m, n, k) = (7 * mr + 3, 9 * nr + 1, 37);
        let a = Matrix::<f64>::random(m, k, 1);
        let b = Matrix::<f64>::random(k, n, 2);
        let c0 = Matrix::<f64>::random(m, n, 3);
        let cfg = FtConfig {
            recovery: Recovery::RetryPanel { max_retries: 2 },
            ..Default::default()
        };

        let mut solo = c0.clone();
        let (a_ref, b_ref) = (a.as_ref(), b.as_ref());
        let want = ft_gemm_with_ctx(
            &mut Workspace::for_problem(&core, 0, 0, 0),
            &cfg,
            1.5,
            &a_ref,
            &b_ref,
            -0.5,
            &mut solo.as_mut(),
        )
        .unwrap();

        for nthreads in [2, 3] {
            let mut checks = Checks::new(nthreads, checks_need(&p, m, n, k));
            checks.reserve_base(&cfg, -0.5);
            let mut btilde = vec![f64::NAN; p.packed_b_len()];
            let bufs = checks.view(&mut btilde, true);
            let mut c = c0.clone();
            let mut c_view = c.as_mut();
            let job = Job::new(
                kernel,
                p,
                &cfg,
                1.5,
                &a_ref,
                &b_ref,
                -0.5,
                &mut c_view,
                bufs,
            );
            as_team(nthreads, |team| {
                let mut atilde = vec![0.0; p.packed_a_len()];
                // SAFETY: every member of the team runs it, once, with
                // buffers sized by the list above.
                unsafe { nest::<f64, _, true>(team, &job, &mut atilde) };
            });
            assert_eq!(job.finish().unwrap(), want, "{nthreads} threads");
            assert_eq!(c.as_slice(), solo.as_slice(), "{nthreads} threads");
        }
    }
}
