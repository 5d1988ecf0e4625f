//! The state the loop nest's entries work in: [`Workspace`].
//!
//! The paper's threaded scheme (§2.3) requests the shared packed `B~`, each
//! thread's private `A~` and the checksum vectors once, then reuses them —
//! the GotoBLAS packing discipline, with the buffers kept apart from the
//! kernel and blocking that run in them. A [`Workspace`] is that state as a
//! value the caller owns, for a team of any size up to the `A~` slots it
//! holds: [`execute`](crate::execute) without a pool context runs on it as
//! a team of one, with its own [`kernel`](Workspace::kernel) and
//! [`params`](Workspace::params), and with one as a team of the pool's
//! size, with the pool context's. A batch
//! ([`BatchWorkspace`](crate::parallel::BatchWorkspace)) holds one per pool
//! thread.
//!
//! Every buffer follows the largest problem served, never the blocking
//! alone: `B~` holds one `kc x nc` panel and an `A~` slot one `mc x kc`
//! block *clamped to the problem* ([`packed_lens`]), so the blocking is the
//! ceiling, whatever is served. [`Workspace::ensure`] grows what is too
//! small and keeps the rest — a plain call grows the packed buffers only and
//! leaves the checksum state alone, and a smaller team runs in the slots and
//! reduction lanes a larger one was given — and nothing shrinks, except the
//! one O(m·nc) piece, the base snapshot of a `beta != 0` rollback, which a
//! long-lived owner hands back ([`Workspace::release_base`]). The nest
//! rewrites every region it reads, so nothing is re-zeroed between calls and
//! the packed buffers are allocated unzeroed (`AlignedVec::for_overwrite`).
//!
//! A workspace also counts the protected calls it has served, and a call's
//! injection streams derive from that count (`Workspace::job`): a fault
//! pattern replays on a fresh workspace, serial or pool, whatever else the
//! process ran.

use crate::nest::{checks_need, packed_lens, Checks, Job};
use crate::FtConfig;
use ftgemm_core::{
    select_kernel, AlignedVec, BlockingParams, CacheInfo, IsaLevel, Kernel, MatMut, MatRef, Scalar,
};
use parking_lot::Mutex;

/// What a [`Workspace`] is sized and run for: the micro-kernel, its blocking
/// and the team size. A `ParGemmContext` converts into one (its pool's
/// size), and so does a [`Workspace`] (a team of one); both derive theirs
/// with [`Setup::for_isa`].
#[derive(Debug, Clone, Copy)]
pub struct Setup<T: Scalar> {
    /// Micro-kernel the team runs.
    pub kernel: Kernel<T>,
    /// Blocking parameters.
    pub params: BlockingParams,
    /// Members in the team.
    pub nthreads: usize,
}

impl<T: Scalar> Setup<T> {
    /// A team of `nthreads` running `isa`'s micro-kernel (which the CPU must
    /// support) under the blocking derived from the detected caches.
    pub fn for_isa(isa: IsaLevel, nthreads: usize) -> Self {
        let kernel = select_kernel::<T>(isa);
        let params = BlockingParams::derive::<T>(&CacheInfo::detect(), kernel.mr, kernel.nr);
        Setup {
            kernel,
            params,
            nthreads,
        }
    }
}

/// A serial call on a workspace: a team of one with its kernel and blocking.
impl<T: Scalar> From<&Workspace<T>> for Setup<T> {
    fn from(ws: &Workspace<T>) -> Self {
        Setup {
            kernel: ws.kernel,
            params: ws.params,
            nthreads: 1,
        }
    }
}

/// Packed `B~`, one `A~` slot per team member and the checksum state, reused
/// across calls of any team up to its slot count (see the module docs).
#[derive(Debug)]
pub struct Workspace<T: Scalar> {
    /// Micro-kernel a serial call on this workspace runs.
    pub kernel: Kernel<T>,
    /// Blocking parameters a serial call on this workspace runs.
    pub params: BlockingParams,
    /// The shared packed `B~`: the largest panel served so far.
    btilde: AlignedVec<T>,
    /// Elements in each `A~` slot.
    a_len: usize,
    /// Per-member private packed `A~` buffers; the team is their count.
    /// Slot `t` is locked only by member `t` of a pool region, so the
    /// mutexes are uncontended; they keep the type `Sync`. A serial call
    /// takes slot 0 through `&mut`, without a lock.
    atilde: Vec<Mutex<AlignedVec<T>>>,
    /// Checksum vectors, reduction lanes and the count of protected calls.
    checks: Checks<T>,
}

impl<T: Scalar> Workspace<T> {
    /// An empty workspace with the best ISA tier's kernel and cache-derived
    /// blocking for serial calls: it fits no problem and holds no buffer
    /// until [`ensure`](Self::ensure) — which every entry calls — grows it.
    pub fn new() -> Self {
        Self::with_isa(IsaLevel::detect())
    }

    /// An empty workspace whose serial calls run `isa`'s micro-kernel (which
    /// the CPU must support; the baseline stand-ins and the blocking
    /// ablation pin one) under cache-derived blocking.
    pub fn with_isa(isa: IsaLevel) -> Self {
        Self::for_problem(Setup::for_isa(isa, 1), 0, 0, 0)
    }

    /// Overrides the blocking of this workspace's serial calls (validated
    /// against its kernel); the next call grows what the new blocking needs.
    pub fn set_params(&mut self, params: BlockingParams) -> ftgemm_core::Result<()> {
        params.validate_for(&self.kernel)?;
        self.params = params;
        Ok(())
    }

    /// Workspace sized for one protected `m x n x k` problem on `setup`'s
    /// team, whose kernel and blocking its serial calls run.
    ///
    /// # Panics
    /// If `setup.params` fail [`BlockingParams::validate_for`] its kernel
    /// (contexts built through the public constructors always pass).
    pub fn for_problem(setup: impl Into<Setup<T>>, m: usize, n: usize, k: usize) -> Self {
        let setup = setup.into();
        let (kernel, params) = (setup.kernel, setup.params);
        params.validate_for(&kernel).expect("valid blocking params");
        let mut ws = Workspace {
            kernel,
            params,
            btilde: AlignedVec::zeroed_or_panic(0),
            a_len: 0,
            atilde: Vec::new(),
            checks: Checks::new(1, [0; 4]),
        };
        ws.ensure(setup, [m, n, k], true);
        ws
    }

    /// True when an `m x n x k` call on `team` — its size and blocking —
    /// `protect`ed or plain, runs here without growing anything. A plain
    /// call touches the packed buffers only; a protected one also needs
    /// checksum state cut for this workspace's team, which `team` must not
    /// outnumber.
    pub fn fits(&self, team: impl Into<Setup<T>>, [m, n, k]: [usize; 3], protect: bool) -> bool {
        let team = team.into();
        let (a_len, b_len) = packed_lens(&team.params, m, n, k);
        let slots = self.atilde.len();
        let packs = slots >= team.nthreads && self.a_len >= a_len && self.btilde.len() >= b_len;
        packs && (!protect || self.checks.fits(slots, checks_need(&team.params, m, n, k)))
    }

    /// Grows what an `m x n x k` call on `team` needs and this workspace
    /// lacks ([`fits`](Self::fits)); no-op otherwise. Capacities never
    /// shrink, slots are added for a larger team, and the count of protected
    /// calls carries over.
    pub fn ensure(&mut self, team: impl Into<Setup<T>>, [m, n, k]: [usize; 3], protect: bool) {
        let team = team.into();
        // Packing writes every element it hands the kernel, padding
        // included, so the buffers need not come zeroed.
        let packing = |len| AlignedVec::for_overwrite(len).expect("aligned allocation failed");
        let (a_len, b_len) = packed_lens(&team.params, m, n, k);
        if self.btilde.len() < b_len {
            self.btilde = packing(b_len);
        }
        if self.a_len < a_len {
            for slot in &mut self.atilde {
                *slot.get_mut() = packing(a_len);
            }
            self.a_len = a_len;
        }
        while self.atilde.len() < team.nthreads {
            self.atilde.push(Mutex::new(packing(self.a_len)));
        }
        if protect {
            // Lanes cut for the whole team serve any smaller one.
            let need = checks_need(&team.params, m, n, k);
            self.checks.ensure(self.atilde.len(), need);
        }
    }

    /// Grows the base snapshot a rollback restores from where `cfg` and
    /// `beta` call for one (never at `beta == 0`), once: a plan calls this
    /// at plan time, every protected call again, so replays of a reserved
    /// shape allocate nothing.
    pub fn reserve_base(&mut self, cfg: &FtConfig, beta: T) {
        self.checks.reserve_base(cfg, beta);
    }

    /// Frees the base snapshot, the only O(m·nc) buffer here, so what a
    /// long-lived workspace retains stays bounded by the blocking; the next
    /// call that needs one reserves it again. No-op when none is held.
    pub fn release_base(&mut self) {
        self.checks.release_base();
    }

    /// Bytes of heap this workspace holds right now.
    pub fn retained_bytes(&self) -> usize {
        let packs = self.btilde.len() + self.atilde.len() * self.a_len;
        (packs + self.checks.elements()) * std::mem::size_of::<T>()
    }

    /// Stable address of the packed-`B~` buffer: a caller replaying one
    /// shape can assert it does not change, proving the hot path reuses
    /// (rather than reallocates) its buffers.
    pub fn base_addr(&self) -> usize {
        self.btilde.as_ptr() as usize
    }

    /// One call's [`Job`] on this workspace, which must [`fit`](Self::fits)
    /// it, and the `A~` slots its members pack into (member `t`, slot `t`).
    /// Under `PROTECT` the base snapshot `cfg` and `beta` call for is
    /// reserved first.
    ///
    /// The one place a call gets its id ([`Buffers::call`]), for every
    /// entry: a protected call is counted on this workspace
    /// (`Checks::view`: 1 on a fresh one) unless it comes with the id its
    /// batch gave it (`call`), which leaves the count alone. Member `tid`
    /// draws its injection sites from stream `id ^ tid << 32`.
    ///
    /// [`Buffers::call`]: crate::nest::Buffers::call
    pub(crate) fn job<'a, const PROTECT: bool>(
        &'a mut self,
        kernel: Kernel<T>,
        params: BlockingParams,
        cfg: &'a FtConfig,
        call: Option<u64>,
        alpha: T,
        a: &MatRef<'a, T>,
        b: &MatRef<'a, T>,
        beta: T,
        c: &'a mut MatMut<'_, T>,
    ) -> (Job<'a, T>, &'a mut [Mutex<AlignedVec<T>>]) {
        if PROTECT {
            self.checks.reserve_base(cfg, beta);
        }
        let mut bufs = self
            .checks
            .view(&mut self.btilde, PROTECT && call.is_none());
        bufs.call = call.unwrap_or(bufs.call);
        let job = Job::new(kernel, params, cfg, alpha, a, b, beta, c, bufs);
        (job, &mut self.atilde)
    }
}

impl<T: Scalar> Default for Workspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ErrorModel, FaultInjector, Rate};
    use crate::nest::tests::as_team;
    use crate::nest::{nest, prologue, Team};
    use crate::{execute, ft_gemm_with_ctx, FtReport, FtResult, Recovery};
    use ftgemm_core::Matrix;

    /// A team of `nthreads` with the detected kernel and blocking.
    fn team(nthreads: usize) -> Setup<f64> {
        Setup {
            nthreads,
            ..Setup::from(&Workspace::<f64>::new())
        }
    }

    /// `C = A * B` on `ws`: `execute` on a team of one, and what it does
    /// on a pool — grow, view, every member runs the
    /// nest — on a team of `nthreads` scoped threads, with `ws`'s kernel and
    /// blocking.
    fn run(
        nthreads: usize,
        ws: &mut Workspace<f64>,
        cfg: Option<&FtConfig>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
    ) -> (Matrix<f64>, FtReport) {
        let mut c = Matrix::<f64>::zeros(a.nrows(), b.ncols());
        let (a, b, c_view) = (a.as_ref(), b.as_ref(), &mut c.as_mut());
        if nthreads == 1 {
            let res = execute(None, ws, cfg, 1.0, &a, &b, 0.0, c_view);
            return (c, res.unwrap());
        }
        let (m, n, k) = prologue(&ws.params, 1.0, &a, &b, 0.0, c_view)
            .unwrap()
            .expect("a product to compute");
        let setup = Setup {
            nthreads,
            ..Setup::from(&*ws)
        };
        ws.ensure(setup, [m, n, k], cfg.is_some());
        let res = match cfg {
            Some(cfg) => on_team::<true>(nthreads, ws, cfg, &a, &b, c_view),
            None => on_team::<false>(nthreads, ws, &FtConfig::default(), &a, &b, c_view),
        };
        (c, res.unwrap())
    }

    fn on_team<const PROTECT: bool>(
        nthreads: usize,
        ws: &mut Workspace<f64>,
        cfg: &FtConfig,
        a: &MatRef<'_, f64>,
        b: &MatRef<'_, f64>,
        c: &mut MatMut<'_, f64>,
    ) -> FtResult<FtReport> {
        let (kernel, p) = (ws.kernel, ws.params);
        let (job, slots) = ws.job::<PROTECT>(kernel, p, cfg, None, 1.0, a, b, 0.0, c);
        let slots = &*slots;
        as_team(nthreads, |member| {
            let mut atilde = slots[member.tid()].lock();
            // SAFETY: every member of the team runs it once, on its own
            // slot, in a workspace grown for the problem.
            unsafe { nest::<f64, _, PROTECT>(member, &job, atilde.as_mut_slice()) };
        });
        job.finish()
    }

    /// The count of protected calls `ws` has served.
    fn calls(ws: &mut Workspace<f64>) -> u64 {
        ws.checks.view(&mut [], false).call
    }

    /// Where the packed `B~` and each checksum vector live.
    fn addresses(ws: &mut Workspace<f64>) -> (usize, [usize; 7]) {
        let vectors = ws.checks.view(&mut ws.btilde, false).vectors;
        // SAFETY: an empty range borrows no element.
        let vectors = vectors.map(|v| unsafe { v.slice(0..0) }.as_ptr() as usize);
        (ws.base_addr(), vectors)
    }

    fn square(dim: usize) -> Matrix<f64> {
        Matrix::<f64>::random(dim, dim, dim as u64)
    }

    #[test]
    fn fits_and_ensure() {
        let mut ws = Workspace::for_problem(team(2), 64, 64, 64);
        assert!(ws.fits(team(2), [64, 64, 64], true));
        assert!(ws.fits(team(2), [32, 64, 16], true));
        assert!(
            !ws.fits(team(2), [64, 128, 64], false),
            "B~ follows the problem"
        );
        let addr = ws.base_addr();
        ws.ensure(team(2), [64, 64, 64], true);
        assert_eq!(ws.base_addr(), addr, "no-op ensure must not reallocate");
        ws.ensure(team(2), [128, 64, 128], true);
        assert!(ws.fits(team(2), [128, 64, 128], true));
        assert!(
            ws.fits(team(2), [64, 64, 64], true),
            "capacities never shrink"
        );
    }

    #[test]
    fn an_empty_workspace_holds_nothing_and_a_full_one_the_blocking() {
        let empty = Workspace::<f64>::new();
        assert_eq!(empty.retained_bytes(), 0);
        assert!(!empty.fits(team(2), [1, 1, 1], false));
        // However large the problem, the packed buffers stop at one
        // `kc x nc` panel and one `mc x kc` block per thread.
        let (p, huge) = (empty.params, 1 << 20);
        let mut full = Workspace::<f64>::new();
        full.ensure(team(2), [huge, huge, huge], false);
        assert!(full.fits(team(2), [huge, huge, huge], false));
        let packed = p.packed_b_len() + 2 * p.packed_a_len();
        assert_eq!(full.retained_bytes(), packed * std::mem::size_of::<f64>());
    }

    #[test]
    fn a_larger_team_does_not_fit_and_a_smaller_one_does() {
        let ws = Workspace::for_problem(team(2), 32, 32, 32);
        assert!(!ws.fits(team(3), [32, 32, 32], true));
        assert!(ws.fits(team(1), [32, 32, 32], true));
    }

    /// Packing buffers follow the problem and only grow: a workspace that
    /// went on to a smaller shape serves the first one again from the same
    /// buffers, bit for bit.
    #[test]
    fn a_reused_workspace_never_regrows_and_repeats_itself() {
        let cfg = FtConfig::default();
        let mut ws = Workspace::<f64>::new();
        let run = |ws: &mut Workspace<f64>, (m, n, k): (usize, usize, usize)| {
            let a = Matrix::<f64>::random(m, k, 7);
            let b = Matrix::<f64>::random(k, n, 8);
            let mut c = Matrix::<f64>::random(m, n, 9);
            let (a, b) = (a.as_ref(), b.as_ref());
            ft_gemm_with_ctx(ws, &cfg, 1.0, &a, &b, 0.5, &mut c.as_mut()).unwrap();
            (c, (ws.a_len, ws.btilde.len()))
        };
        let (first, grown) = run(&mut ws, (128, 128, 128));
        let p = ws.params;
        assert!(grown.1 < p.packed_b_len(), "B~ sized by the blocking");
        assert_eq!(grown, packed_lens(&p, 128, 128, 128));
        let (_, after_small) = run(&mut ws, (32, 48, 64));
        let (again, after_again) = run(&mut ws, (128, 128, 128));
        assert_eq!((after_small, after_again), (grown, grown));
        assert_eq!(again.as_slice(), first.as_slice());
    }

    /// The call count lives in the checksum state: a regrowth between two
    /// protected calls keeps it, and plan-time sizing and plain calls do not
    /// add to it.
    #[test]
    fn protected_calls_are_counted_across_growth() {
        let cfg = FtConfig::default();
        let mut ws = Workspace::<f64>::new();
        run(1, &mut ws, Some(&cfg), &square(16), &square(16));
        let solo = Setup::from(&ws);
        ws.ensure(solo, [96, 96, 96], true);
        ws.reserve_base(&cfg, 1.0);
        run(1, &mut ws, None, &square(160), &square(160));
        run(1, &mut ws, Some(&cfg), &square(200), &square(200));
        assert_eq!(calls(&mut ws), 2);
    }

    /// The injection streams of a protected call derive from the count this
    /// workspace keeps: growing the checksum state or recutting it for
    /// another team between two protected calls keeps it, and plain calls
    /// and plan-time `reserve_base` do not add to it.
    #[test]
    fn call_ids_continue_across_growth() {
        let cfg = FtConfig::default();
        let mut ws = Workspace::<f64>::new();
        run(2, &mut ws, Some(&cfg), &square(16), &square(16));
        run(2, &mut ws, None, &square(160), &square(160));
        ws.reserve_base(&cfg, 1.0);
        run(2, &mut ws, Some(&cfg), &square(200), &square(200));
        // A plain call adds slots only: the lanes still need `ensure`.
        run(3, &mut ws, None, &square(40), &square(40));
        assert!(!ws.fits(team(3), [40, 40, 40], true));
        run(3, &mut ws, Some(&cfg), &square(40), &square(40));
        assert_eq!(calls(&mut ws), 3);
    }

    /// Plain and protected traffic of different shapes on one long-lived
    /// workspace: once each has been seen, nothing is reallocated — a larger
    /// plain problem grows the packed buffers and leaves the checksum state
    /// the protected one grew where it is.
    #[test]
    fn mixed_traffic_does_not_ping_pong_the_allocations() {
        let cfg = FtConfig::default();
        let mut ws = Workspace::<f64>::new();
        let pair = |dim| (square(dim), Matrix::<f64>::random(dim, dim, 2));
        let (large, small) = (pair(512), pair(256));
        let mut run = |(a, b): &(Matrix<f64>, Matrix<f64>), cfg: Option<&FtConfig>| {
            run(2, &mut ws, cfg, a, b);
            addresses(&mut ws)
        };
        run(&large, None);
        let warm = run(&small, Some(&cfg));
        for round in 0..3 {
            assert_eq!(run(&large, None), warm, "plain, round {round}");
            assert_eq!(run(&small, Some(&cfg)), warm, "protected, round {round}");
        }
    }

    /// One workspace serves serial calls and calls of a team of two in
    /// turn. The count of protected calls runs on across every switch; each
    /// call's bits and report are those of the same call, on the same team,
    /// on a fresh workspace brought to the same count; and once both teams
    /// have run, nothing moves.
    #[test]
    fn serial_and_team_calls_share_one_workspace_and_one_count() {
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
        let (m, n, k) = (p.mc * 5 + 1, p.nc * 2 + 3, p.kc * 3);
        let (a, b) = (
            Matrix::<f64>::random(m, k, 1),
            Matrix::<f64>::random(k, n, 2),
        );
        let model = ErrorModel::Additive { magnitude: 1e6 };
        let cfg = FtConfig {
            injector: Some(FaultInjector::new(29, model, Rate::Count(2))),
            recovery: Recovery::RetryPanel { max_retries: 4 },
            ..Default::default()
        };
        let bits = |(c, rep): (Matrix<f64>, FtReport)| {
            let bits: Vec<u64> = c.as_slice().iter().map(|v| v.to_bits()).collect();
            (bits, rep)
        };
        let one = Matrix::<f64>::random(1, 1, 3);

        let mut ws = Workspace::for_problem(&core, 0, 0, 0);
        let mut warm = None;
        for round in 0..3 {
            for nthreads in [1, 2] {
                let got = bits(run(nthreads, &mut ws, Some(&cfg), &a, &b));
                let count = calls(&mut ws);
                assert_eq!(count, 2 * round + nthreads as u64, "{nthreads} threads");
                assert!(got.1.injected > 0, "{count}: {:?}", got.1);

                let mut fresh = Workspace::for_problem(&core, 0, 0, 0);
                for _ in 1..count {
                    run(1, &mut fresh, Some(&cfg), &one, &one);
                }
                let want = bits(run(nthreads, &mut fresh, Some(&cfg), &a, &b));
                assert_eq!(got, want, "call {count} on {nthreads} threads");
            }
            let now = addresses(&mut ws);
            assert_eq!(*warm.get_or_insert(now), now, "round {round}");
        }
    }
}
