//! Parallel fault-tolerant GEMM — the paper's Fig. 1 algorithm.
//!
//! Synchronization structure per depth panel (`pc`):
//!
//! ```text
//! [all]  cooperative fused pack of B~ (N-partition): B~, bc partials,
//!        enc_col updates on the packer's own column chunk
//! ---- barrier ----
//! [t0]   reduce bc partials  ("extra stage of reduction ... B_c", §2.3)
//! ---- barrier ----
//! [all]  own-rows compute: fused pack A~ (enc_row update), macro kernels
//!        (ref_row slice + ref_col partial lane), fault injection sites
//! ---- barrier ----
//! [t0]   reduce ref_col lanes; verify enc vs ref (rows + cols); locate,
//!        correct, or flag unrecoverable   ("p-loop: verify")
//! ---- barrier ----
//! [all]  observe verdict; continue or abort
//! ```
//!
//! Row checksums live in each thread's M-slice (disjoint writes into shared
//! vectors); column checksums cross thread boundaries and go through
//! sharded-lane reductions.

// analyze::policy(publish: abort as par_abort)
// Concurrency contract (checked by `cargo run -p ftgemm-analyze`):
// `abort` publishes an unrecoverable-fault verdict across workers —
// Release store next to the verdict write, Acquire load after the
// barrier.

use crate::ctx::ParGemmContext;
use crate::par_gemm::par_gemm_with_ws;
use crate::shared::SendPtr;
use crate::workspace::ParFtWorkspace;
use ftgemm_abft::{panel, FtConfig, FtError, FtReport, FtResult};
use ftgemm_core::gemm::validate_shapes;
use ftgemm_core::macro_kernel::macro_kernel;
use ftgemm_core::{pack, MatMut, MatRef, Scalar};
use ftgemm_faults::SiteStream;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// The matrix-parallel execute path: `C = alpha*A*B + beta*C` on `ctx`'s
/// pool with a caller-owned workspace, protected by
/// [`par_ft_gemm_with_ws`] under `Some(cfg)` and run by
/// [`par_gemm_with_ws`] (reporting [`FtReport::default`]) under `None`.
///
/// `ws` is grown with [`ParFtWorkspace::ensure`] when the problem does not
/// fit and reused otherwise, so a caller that keeps one workspace alive —
/// a `GemmPlan`, a service dispatcher — allocates only when a larger shape
/// first arrives. Every matrix-parallel caller that carries an optional
/// configuration goes through here, so the protected-vs-plain choice is
/// made in one place.
pub fn run_parallel<T: Scalar>(
    ctx: &ParGemmContext<T>,
    ws: &mut ParFtWorkspace<T>,
    cfg: Option<&FtConfig>,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    let (m, n, k) = validate_shapes(a, b, c)?;
    ctx.params.validate()?;
    match cfg {
        Some(cfg) => {
            ws.ensure(ctx, m, n, k);
            par_ft_gemm_with_ws(ctx, ws, cfg, alpha, a, b, beta, c)
        }
        None => {
            // The plain driver touches only B~ and the A~ slots.
            if !ws.fits_plain(ctx) {
                *ws = ParFtWorkspace::for_plain(ctx);
            }
            par_gemm_with_ws(ctx, ws, alpha, a, b, beta, c)?;
            Ok(FtReport::default())
        }
    }
}

/// Parallel fault-tolerant GEMM reusing a caller-held [`ParFtWorkspace`].
///
/// The hot path performs no heap allocation: every shared vector, reduction
/// lane, and per-thread packed buffer lives in `ws`. Callers that replay one
/// problem shape (the facade's `GemmPlan`, serving layers) build the
/// workspace once and amortize it across calls.
///
/// The workspace is taken `&mut` even though the region internally shares
/// it across pool threads: the exclusive borrow is what makes it
/// impossible for *two* concurrent calls (e.g. on two different pools) to
/// alias one workspace from safe code.
///
/// # `FtConfig` fields this driver ignores
/// `cfg.recovery` is never read: there is no recovery point and no
/// rollback, so a pattern the corrector cannot resolve is fail-stop
/// ([`FtError::Unrecoverable`]) under
/// [`Recovery::RetryPanel`](ftgemm_abft::Recovery::RetryPanel) too.
/// `cfg.fusion.fuse_kernel_refs` is never read either: reference sums are
/// always taken at register level, so [`FtConfig::unfused`] is
/// packing-unfused only here.
///
/// # Panics
/// If `ws` was built for a smaller problem or a different thread count
/// (see [`ParFtWorkspace::fits`]).
pub fn par_ft_gemm_with_ws<T: Scalar>(
    ctx: &ParGemmContext<T>,
    ws: &mut ParFtWorkspace<T>,
    cfg: &FtConfig,
    alpha: T,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) -> FtResult<FtReport> {
    let (m, n, k) = validate_shapes(a, b, c)?;
    let p = ctx.params;
    p.validate().map_err(FtError::Core)?;

    if m == 0 || n == 0 {
        return Ok(FtReport::default());
    }
    if k == 0 || alpha == T::ZERO {
        ftgemm_core::gemm::scale_c(c, beta);
        return Ok(FtReport::default());
    }

    let kernel = ctx.kernel;
    let nthreads = ctx.nthreads();
    let b_len = p.packed_b_len();
    // Downgrade to a shared borrow for the region closure (which every pool
    // thread runs); exclusivity was enforced by the `&mut` signature above.
    let ws: &ParFtWorkspace<T> = ws;
    assert!(
        ws.fits(ctx, m, n, k),
        "workspace too small for {m}x{n}x{k} on {nthreads} threads"
    );

    // Shared state lives in the caller's workspace (see the module docs and
    // `workspace.rs` for the access discipline; every region read below is
    // rewritten first, so cross-call reuse needs no re-zeroing).
    let btilde = &ws.btilde;
    let ar_full = &ws.ar_full;
    let bc_reduced = &ws.bc_reduced;
    let enc_row = &ws.enc_row;
    let ref_row = &ws.ref_row;
    let enc_col = &ws.enc_col;
    let ref_col = &ws.ref_col;
    let enc_col_shards = &ws.enc_col_shards;
    let bc_shards = &ws.bc_shards;
    let ref_col_shards = &ws.ref_col_shards;

    let abort = AtomicBool::new(false);
    let verdict: Mutex<Option<FtError>> = Mutex::new(None);
    let report: Mutex<FtReport> = Mutex::new(FtReport::default());

    let c_ptr = SendPtr(c.as_mut_ptr());
    let ldc = c.ld();
    let call_nonce: u64 = rand_nonce();

    ctx.pool().run(|w| {
        // Capture the SendPtr wrapper itself, not its raw field (auto-capture
        // of `c_ptr.0` would capture the non-Send raw pointer).
        #[allow(clippy::redundant_locals)]
        let c_ptr = c_ptr;
        let rows = w.partition(m, p.mr);
        let (ms, mlen) = (rows.start, rows.len());
        let tid = w.tid;

        // Thread-private packed A~ from the workspace (slot `tid` is only
        // ever locked by this thread inside a region — uncontended).
        let mut atilde = ws.atilde[tid].lock();
        let mut injected = 0;

        // Injection stream per thread (sites = this thread's macro calls).
        let my_sites = n.div_ceil(p.nc) * k.div_ceil(p.kc) * mlen.div_ceil(p.mc).max(1);
        let mut stream = cfg
            .injector
            .as_ref()
            .map(|inj| inj.stream(call_nonce ^ (tid as u64) << 32, my_sites));

        // A_r = alpha * e^T A, partitioned along K so writes are disjoint
        // and no reduction is needed.
        {
            let cols = w.partition(k, 1);
            if !cols.is_empty() {
                let a_cols = a.submatrix(0, cols.start, m, cols.len());
                // SAFETY: disjoint k-ranges across threads.
                let out = unsafe { ar_full.slice_mut(cols.clone()) };
                pack::col_sums_scaled(&a_cols, alpha, out);
            }
        }
        w.barrier();

        let mut jc = 0;
        'jc_loop: while jc < n {
            let nc_eff = p.nc.min(n - jc);

            // beta-scale + initial encode: rows are local, columns go via
            // lanes and a reduction. (At beta == 0 this only zeroes the
            // checksums; the first panel below stores over C.)
            {
                // SAFETY: each thread writes only its own lane pre-barrier.
                let lane = unsafe { &mut enc_col_shards.lane_mut(tid)[..nc_eff] };
                lane.fill(T::ZERO);
                if mlen > 0 {
                    // SAFETY: disjoint row slices.
                    let mut c_slice = unsafe {
                        MatMut::<T>::from_raw_parts(c_ptr.0.add(ms + jc * ldc), mlen, nc_eff, ldc)
                    };
                    // SAFETY: disjoint row range of enc_row.
                    let enc_row_slice = unsafe { enc_row.slice_mut(ms..ms + mlen) };
                    panel::encode_base(cfg.fusion, &mut c_slice, beta, enc_row_slice, lane, None);
                }
            }
            w.barrier();
            if tid == 0 {
                // SAFETY: reduction epoch, lanes quiescent.
                let out = unsafe { enc_col.slice_mut(0..nc_eff) };
                enc_col_shards.reduce_into_prefix(out, |x, y| x + y);
            }
            w.barrier();

            // `panel::verify`'s memory of the largest correction applied to
            // this column block; thread 0 verifies, so only its copy is used.
            let mut correction_scale = T::ZERO;

            let mut pc = 0;
            while pc < k {
                let kc_eff = p.kc.min(k - pc);

                // Zero the per-panel accumulators this thread owns.
                {
                    // SAFETY: own lane / own row range, pre-barrier epoch.
                    unsafe {
                        bc_shards.lane_mut(tid)[..kc_eff].fill(T::ZERO);
                        ref_col_shards.lane_mut(tid)[..nc_eff].fill(T::ZERO);
                        if mlen > 0 {
                            ref_row.slice_mut(ms..ms + mlen).fill(T::ZERO);
                        }
                    }
                }

                // Cooperative fused packing of B~ along N.
                {
                    let cols = w.partition(nc_eff, p.nr);
                    if !cols.is_empty() {
                        let b_block = b.submatrix(pc, jc + cols.start, kc_eff, cols.len());
                        let off = (cols.start / p.nr) * p.nr * kc_eff;
                        let len = cols.len().div_ceil(p.nr) * p.nr * kc_eff;
                        // SAFETY: NR-aligned chunks -> disjoint packed slabs;
                        // enc_col written at this thread's column chunk only.
                        unsafe {
                            let out = btilde.slice_mut(off..off + len);
                            let ar = ar_full.slice(pc..pc + kc_eff);
                            let enc_cols = enc_col.slice_mut(cols.start..cols.start + cols.len());
                            let bc = &mut bc_shards.lane_mut(tid)[..kc_eff];
                            panel::pack_b(cfg.fusion, &b_block, p.nr, out, ar, bc, enc_cols);
                        }
                    }
                }
                w.barrier();
                if tid == 0 {
                    // The paper's "extra stage of reduction" for B_c.
                    // SAFETY: reduction epoch.
                    let out = unsafe { bc_reduced.slice_mut(0..kc_eff) };
                    bc_shards.reduce_into_prefix(out, |x, y| x + y);
                }
                w.barrier();

                // Own-rows compute with fused checksums.
                if mlen > 0 {
                    // SAFETY: read-only epochs for btilde/bc_reduced; own
                    // lane for ref_col; own row ranges for enc/ref rows.
                    let b_packed = unsafe { btilde.slice(0..b_len) };
                    let bc_r = unsafe { bc_reduced.slice(0..kc_eff) };
                    let ref_col_lane = unsafe { ref_col_shards.lane_mut(tid) };
                    let mut ic = 0;
                    while ic < mlen {
                        let mc_eff = p.mc.min(mlen - ic);
                        let a_block = a.submatrix(ms + ic, pc, mc_eff, kc_eff);
                        // SAFETY: own row range.
                        let enc_row_slice = unsafe { enc_row.slice_mut(ms + ic..ms + ic + mc_eff) };
                        panel::pack_a(
                            cfg.fusion,
                            &a_block,
                            alpha,
                            p.mr,
                            atilde.as_mut_slice(),
                            bc_r,
                            enc_row_slice,
                        );

                        // SAFETY: disjoint row slice of C.
                        let mut c_block = unsafe {
                            MatMut::<T>::from_raw_parts(
                                c_ptr.0.add(ms + ic + jc * ldc),
                                mc_eff,
                                nc_eff,
                                ldc,
                            )
                        };
                        // SAFETY: own row range of ref_row.
                        let ref_row_slice = unsafe { ref_row.slice_mut(ms + ic..ms + ic + mc_eff) };
                        macro_kernel(
                            &kernel,
                            kc_eff,
                            atilde.as_slice(),
                            b_packed,
                            &mut c_block,
                            Some((&mut ref_col_lane[..nc_eff], &mut *ref_row_slice)),
                            beta == T::ZERO && pc == 0,
                        );

                        // An injected error reaches the reference sums as the
                        // faulty FMA's value would have.
                        if let Some(event) = stream.as_mut().and_then(SiteStream::poll) {
                            injected += 1;
                            let (i, j, delta) = panel::inject(&event, &mut c_block);
                            ref_col_lane[j] += delta;
                            ref_row_slice[i] += delta;
                        }
                        ic += p.mc;
                    }
                }
                w.barrier();

                // Centralized verification & correction on thread 0
                // (others are parked at the next barrier, so exclusive
                // access to C and the checksum vectors is guaranteed).
                if tid == 0 {
                    // SAFETY: exclusive verification epoch.
                    let out = unsafe { ref_col.slice_mut(0..nc_eff) };
                    ref_col_shards.reduce_into_prefix(out, |x, y| x + y);

                    let rows = unsafe { (enc_row.slice(0..m), ref_row.slice(0..m)) };
                    let cols = unsafe { (enc_col.slice(0..nc_eff), ref_col.slice(0..nc_eff)) };

                    // SAFETY: exclusive access to the whole block here.
                    let mut c_block = unsafe {
                        MatMut::<T>::from_raw_parts(c_ptr.0.add(jc * ldc), m, nc_eff, ldc)
                    };
                    let verified = panel::verify(
                        cfg,
                        pc + kc_eff,
                        rows,
                        cols,
                        &mut c_block,
                        &mut correction_scale,
                        &mut report.lock(),
                    );
                    if let Err(detail) = verified {
                        // analyze::allow(lock-order, "verdict guard is a statement temporary, dropped before report is re-locked")
                        *verdict.lock() = Some(FtError::Unrecoverable { jc, pc, detail });
                        abort.store(true, Ordering::Release);
                    }
                }
                w.barrier();
                if abort.load(Ordering::Acquire) {
                    break 'jc_loop;
                }
                pc += p.kc;
            }
            jc += p.nc;
        }

        report.lock().injected += injected;
    });

    let merged = report.into_inner();
    merged.publish_global();
    if let Some(err) = verdict.into_inner() {
        return Err(err);
    }
    Ok(merged)
}

/// Cheap per-call nonce for injection stream separation (not security RNG).
fn rand_nonce() -> u64 {
    use std::sync::atomic::AtomicU64 as A;
    static COUNTER: A = A::new(0x5EED);
    COUNTER.fetch_add(0x9E37_79B9, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::reference::naive_gemm;
    use ftgemm_core::Matrix;
    use ftgemm_faults::{ErrorModel, FaultInjector, Rate};

    fn check_clean(threads: usize, m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        let cfg = FtConfig::default();
        let a = Matrix::<f64>::random(m, k, 91);
        let b = Matrix::<f64>::random(k, n, 92);
        let mut c = Matrix::<f64>::random(m, n, 93);
        let mut c_ref = c.clone();
        let rep = run_parallel(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            Some(&cfg),
            alpha,
            &a.as_ref(),
            &b.as_ref(),
            beta,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        let d = c.rel_max_diff(&c_ref);
        assert!(d < 1e-10, "diff {d} (t={threads} {m}x{n}x{k})");
        assert_eq!(rep.detected, 0, "false positive (t={threads} {m}x{n}x{k})");
        assert!(rep.verifications > 0);
    }

    #[test]
    fn clean_various_threads() {
        for t in [1, 2, 4, 8] {
            check_clean(t, 96, 80, 64, 1.0, 1.0);
        }
    }

    #[test]
    fn clean_ragged_and_alpha_beta() {
        check_clean(4, 131, 73, 59, -0.5, 2.0);
        check_clean(3, 17, 200, 33, 1.0, 0.0);
        check_clean(5, 300, 5, 40, 0.25, 1.0);
    }

    #[test]
    fn unfused_parallel_matches() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let cfg = FtConfig::unfused();
        let a = Matrix::<f64>::random(90, 70, 1);
        let b = Matrix::<f64>::random(70, 60, 2);
        let mut c = Matrix::<f64>::random(90, 60, 3);
        let mut c_ref = c.clone();
        let rep = run_parallel(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            1.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-10);
        assert_eq!(rep.detected, 0);
    }

    #[test]
    fn injected_errors_corrected_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let inj = FaultInjector::new(17, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(2));
        let cfg = FtConfig::with_injector(inj.clone());
        let a = Matrix::<f64>::random(128, 96, 4);
        let b = Matrix::<f64>::random(96, 112, 5);
        let mut c = Matrix::<f64>::zeros(128, 112);
        let mut c_ref = Matrix::<f64>::zeros(128, 112);
        let rep = run_parallel(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(rep.injected > 0, "{rep:?}");
        assert_eq!(rep.corrected, rep.injected, "{rep:?}");
        assert!(
            c.rel_max_diff(&c_ref) < 1e-9,
            "diff {} rep {rep:?}",
            c.rel_max_diff(&c_ref)
        );
    }

    #[test]
    fn bitflips_corrected_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads(6);
        // Six threads inject one bitflip each into the same verification
        // interval. Bitflip deltas are near powers of two, so some seeds
        // produce two errors of (numerically) equal magnitude — a pattern
        // row+column checksums cannot disambiguate (see
        // corrector::tests::equal_delta_errors_distinct_positions). The seed
        // is chosen so all six deltas are distinct.
        let inj = FaultInjector::new(42, ErrorModel::BitFlip { bit: None }, Rate::Count(1));
        let cfg = FtConfig::with_injector(inj);
        let a = Matrix::<f64>::random(150, 90, 6);
        let b = Matrix::<f64>::random(90, 100, 7);
        let mut c = Matrix::<f64>::zeros(150, 100);
        let mut c_ref = Matrix::<f64>::zeros(150, 100);
        let rep = run_parallel(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(rep.injected >= 1);
        assert!(c.rel_max_diff(&c_ref) < 1e-9, "rep {rep:?}");
    }

    #[test]
    fn ambiguous_bitflip_pattern_never_silently_corrupts() {
        // Seed 23 makes two of the six simultaneous bitflips land with
        // numerically equal deltas in distinct rows/columns — the pairing
        // the corrector cannot disambiguate. The contract is fail-stop:
        // either every error is located and the result is clean, or the
        // call errs Unrecoverable ("ambiguous pairing"). What must never
        // happen is Ok with a wrong result.
        let ctx = ParGemmContext::<f64>::with_threads(6);
        let inj = FaultInjector::new(23, ErrorModel::BitFlip { bit: None }, Rate::Count(1));
        let cfg = FtConfig::with_injector(inj);
        let a = Matrix::<f64>::random(150, 90, 6);
        let b = Matrix::<f64>::random(90, 100, 7);
        let mut c = Matrix::<f64>::zeros(150, 100);
        let mut c_ref = Matrix::<f64>::zeros(150, 100);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        match run_parallel(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        ) {
            Ok(rep) => {
                assert!(
                    c.rel_max_diff(&c_ref) < 1e-9,
                    "silent corruption: diff {} rep {rep:?}",
                    c.rel_max_diff(&c_ref)
                );
            }
            Err(FtError::Unrecoverable { detail, .. }) => {
                assert!(detail.contains("ambiguous"), "detail: {detail}");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn f32_parallel_ft() {
        let ctx = ParGemmContext::<f32>::with_threads(3);
        let cfg = FtConfig::default();
        let a = Matrix::<f32>::random(64, 48, 8);
        let b = Matrix::<f32>::random(48, 56, 9);
        let mut c = Matrix::<f32>::zeros(64, 56);
        let mut c_ref = Matrix::<f32>::zeros(64, 56);
        let rep = run_parallel(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            Some(&cfg),
            1.0f32,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
        naive_gemm(1.0f32, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
        assert!(c.rel_max_diff(&c_ref) < 1e-4);
        assert_eq!(rep.detected, 0);
    }

    #[test]
    fn workspace_reuse_bitmatches_fresh() {
        // Replaying one shape through a shared ParFtWorkspace must produce
        // bit-identical results to per-call fresh workspaces (same compute
        // order), without the workspace buffers moving.
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let cfg = FtConfig::default();
        let mut ws = ParFtWorkspace::for_problem(&ctx, 96, 80, 64);
        let addr = ws.base_addr();
        for seed in 0..3u64 {
            let a = Matrix::<f64>::random(96, 64, seed);
            let b = Matrix::<f64>::random(64, 80, seed + 10);
            let mut c = Matrix::<f64>::random(96, 80, seed + 20);
            let mut c_fresh = c.clone();
            let rep = par_ft_gemm_with_ws(
                &ctx,
                &mut ws,
                &cfg,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
            run_parallel(
                &ctx,
                &mut ParFtWorkspace::for_plain(&ctx),
                Some(&cfg),
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c_fresh.as_mut(),
            )
            .unwrap();
            assert_eq!(c.as_slice(), c_fresh.as_slice(), "seed {seed}");
            assert_eq!(rep.detected, 0);
        }
        assert_eq!(ws.base_addr(), addr, "workspace must not reallocate");
    }

    #[test]
    fn repeated_calls_shared_ctx() {
        let ctx = ParGemmContext::<f64>::with_threads(4);
        let cfg = FtConfig::default();
        for s in [40usize, 96, 60] {
            let a = Matrix::<f64>::random(s, s, s as u64);
            let b = Matrix::<f64>::random(s, s, s as u64 + 1);
            let mut c = Matrix::<f64>::zeros(s, s);
            let mut c_ref = Matrix::<f64>::zeros(s, s);
            run_parallel(
                &ctx,
                &mut ParFtWorkspace::for_plain(&ctx),
                Some(&cfg),
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                0.0,
                &mut c.as_mut(),
            )
            .unwrap();
            naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c_ref.as_mut());
            assert!(c.rel_max_diff(&c_ref) < 1e-10, "size {s}");
        }
    }

    #[test]
    fn degenerate_dims_parallel() {
        let ctx = ParGemmContext::<f64>::with_threads(2);
        let cfg = FtConfig::default();
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::<f64>::filled(2, 2, 8.0);
        run_parallel(
            &ctx,
            &mut ParFtWorkspace::for_plain(&ctx),
            Some(&cfg),
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.5,
            &mut c.as_mut(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 4.0));
    }
}
