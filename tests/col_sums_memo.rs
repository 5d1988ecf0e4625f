//! The memo of `eᵀA` a `Matrix` keeps (`MatRef::col_sums`).
//!
//! A protected product takes `A_r = alpha * eᵀA` from its `A`'s memo when
//! the view carries a filled one, and otherwise sums `A`, filling the memo
//! when the view carries an empty one and the product verifies. Reading,
//! filling and summing must leave the same bits in `C` and the same report,
//! on every entry of the loop nest; no mutation of the matrix may leave a
//! stale memo behind, and a memo gone stale otherwise fails one call at
//! most.

use ftgemm::abft::{ft_gemm_with_ctx, FtConfig, FtPolicy, FtReport, Recovery};
use ftgemm::core::reference::naive_gemm;
use ftgemm::core::{BlockingParams, MatRef, Matrix, Scalar};
use ftgemm::faults::{ErrorModel, FaultInjector, Rate};
use ftgemm::parallel::{
    par_batch_ft_gemm_timed, par_ft_gemm_with_ws, BatchItem, BatchWorkspace, ParGemmContext,
};
use ftgemm::serve::{GemmRequest, GemmService, ServiceConfig};
use ftgemm::Workspace;
use std::sync::Arc;

/// Two additive errors per stream, a rollback budget of two: every run
/// below detects and corrects, so its report has something to compare.
fn injected() -> FtConfig {
    let model = ErrorModel::Additive { magnitude: 1e3 };
    FtConfig {
        injector: Some(FaultInjector::new(7, model, Rate::Count(2))),
        recovery: Recovery::RetryPanel { max_retries: 2 },
        ..Default::default()
    }
}

/// A pool with tiny blocks (`mc = 2 mr`, `nc = 4 nr`, `kc = 16`), so the
/// problems below span several column blocks and depth panels.
fn small_blocks<T: Scalar>(threads: usize) -> ParGemmContext<T> {
    let mut ctx = ParGemmContext::<T>::with_threads(threads);
    let (mr, nr) = (ctx.kernel.mr, ctx.kernel.nr);
    let p = BlockingParams {
        mr,
        nr,
        mc: mr * 2,
        nc: nr * 4,
        kc: 16,
    };
    ctx.set_params(p).unwrap();
    ctx
}

fn bits<T: Scalar>(c: &Matrix<T>) -> Vec<u64> {
    c.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn memo_of<T: Scalar>(a: &Matrix<T>) -> Option<&[T]> {
    a.as_ref().col_sums()
}

/// What one protected run left: `C`'s bits and the report (or error).
type Outcome = (Vec<u64>, String);

/// Runs `run` on a view of `a` that carries no memo, then on one whose
/// memo is empty (the run fills it), then on the same one again (the run
/// reads it): all three must agree bit for bit.
fn memo_changes_nothing<T: Scalar>(
    what: &str,
    a: &Matrix<T>,
    mut run: impl FnMut(&MatRef<'_, T>) -> Outcome,
) {
    let whole = a.clone();
    assert!(memo_of(&whole).is_none(), "a clone starts empty");
    let (m, k) = (a.nrows(), a.ncols());
    let pass = run(&a.as_ref().submatrix(0, 0, m, k));
    let corrected = !pass.1.contains("Err(") && !pass.1.contains("corrected: 0,");
    assert!(corrected, "{what}: {}", pass.1);
    let fill = run(&whole.as_ref());
    let sums = memo_of(&whole).expect("the first protected run fills the memo");
    let hit = run(&whole.as_ref());
    assert_eq!(fill, pass, "{what} {}: filling the memo", T::NAME);
    assert_eq!(hit, pass, "{what} {}: reading the memo", T::NAME);
    assert!(
        std::ptr::eq(sums, memo_of(&whole).unwrap()),
        "{what}: refilled"
    );
}

fn problem<T: Scalar>((m, n, k): (usize, usize, usize)) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let seed = (m * 31 + n * 7 + k) as u64;
    (
        Matrix::random(m, k, seed),
        Matrix::random(k, n, seed + 1),
        Matrix::random(m, n, seed + 2),
    )
}

fn every_entry_agrees<T: Scalar>() {
    let cfg = injected();
    let alpha = T::from_f64(-1.5);
    let beta = T::from_f64(0.5);

    let (a, b, c0) = problem::<T>((61, 47, 37));
    memo_changes_nothing("serial", &a, |a| {
        let mut c = c0.clone();
        let ws = &mut Workspace::new();
        let r = ft_gemm_with_ctx(ws, &cfg, alpha, a, &b.as_ref(), beta, &mut c.as_mut());
        (bits(&c), format!("{r:?}"))
    });

    // A depth of 2 leaves the third member of a pool of 3 no column of `A`.
    for (threads, k) in [(2, 4 * 16 + 7), (3, 4 * 16 + 7), (3, 2)] {
        let ctx = small_blocks::<T>(threads);
        let (mr, nr) = (ctx.kernel.mr, ctx.kernel.nr);
        let (m, n) = (6 * 2 * mr + 5, 2 * 4 * nr + 3);
        let (a, b, c0) = problem::<T>((m, n, k));
        memo_changes_nothing(&format!("pool of {threads}, k = {k}"), &a, |a| {
            let mut c = c0.clone();
            let ws = &mut Workspace::for_problem(&ctx, m, n, k);
            let b = b.as_ref();
            let r = par_ft_gemm_with_ws(&ctx, ws, &cfg, alpha, a, &b, beta, &mut c.as_mut());
            (bits(&c), format!("{r:?}"))
        });
    }

    // Two items of one batch read the same `A`, on two threads at once: both
    // fill the memo, the first fill wins.
    let ctx = ParGemmContext::<T>::with_threads(2);
    let (a, b, c0) = problem::<T>((40, 33, 29));
    memo_changes_nothing("par_batch_ft_gemm_timed", &a, |a| {
        let mut cs = [c0.clone(), c0.clone()];
        let mut items: Vec<_> = cs
            .iter_mut()
            .map(|c| BatchItem {
                alpha,
                a: *a,
                b: b.as_ref(),
                beta,
                c: c.as_mut(),
                cfg: Some(&cfg),
            })
            .collect();
        let (results, _) = par_batch_ft_gemm_timed(&ctx, &BatchWorkspace::new(&ctx), &mut items);
        drop(items);
        let mut bits_of_both = bits(&cs[0]);
        bits_of_both.extend(bits(&cs[1]));
        (bits_of_both, format!("{results:?}"))
    });
}

#[test]
fn every_entry_leaves_the_same_bits_and_report_f64() {
    every_entry_agrees::<f64>();
}

#[test]
fn every_entry_leaves_the_same_bits_and_report_f32() {
    every_entry_agrees::<f32>();
}

/// The served paths (batched and matrix-parallel) through an operand shared
/// by two requests, the first filling its memo and the second reading it,
/// against a request that owns its own copy.
fn served_agrees<T: Scalar>() {
    let svc = GemmService::<T>::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let alpha = T::from_f64(2.5);
    // 24³ is batched; 208³ is past the default cutoff, so matrix-parallel.
    for (dims, batched) in [((24, 24, 24), true), ((208, 208, 208), false)] {
        let (a, b, _) = problem::<T>(dims);
        let (shared, b) = (Arc::new(a.clone()), Arc::new(b));
        let serve = |a: GemmRequest<T>| {
            let req = a.with_alpha(alpha).with_policy(FtPolicy::DetectCorrect);
            let resp = svc.submit(req).unwrap().wait().unwrap();
            assert_eq!(resp.batched, batched);
            assert_eq!(resp.report.detected, 0);
            assert!(resp.report.verifications > 0);
            (bits(&resp.c), resp.report)
        };
        let owned = serve(GemmRequest::new(a.clone(), &b));
        assert!(memo_of(&shared).is_none());
        let fill = serve(GemmRequest::new(&shared, &b));
        assert!(memo_of(&shared).is_some());
        let hit = serve(GemmRequest::new(&shared, &b));
        assert_eq!(fill, owned, "{} {dims:?}: filling the memo", T::NAME);
        assert_eq!(hit, owned, "{} {dims:?}: reading the memo", T::NAME);
    }
    svc.shutdown();
}

#[test]
fn served_requests_leave_the_same_bits_and_report_f64() {
    served_agrees::<f64>();
}

#[test]
fn served_requests_leave_the_same_bits_and_report_f32() {
    served_agrees::<f32>();
}

/// One clean protected `C = A * B`: it must detect nothing and match the
/// reference product of `A` as it is now.
fn protected_product(a: &MatRef<'_, f64>, b: &Matrix<f64>) -> FtReport {
    let (m, n) = (a.nrows(), b.ncols());
    let mut c = Matrix::<f64>::zeros(m, n);
    let cfg = FtConfig::default();
    let b = b.as_ref();
    let report = ft_gemm_with_ctx(
        &mut Workspace::new(),
        &cfg,
        1.0,
        a,
        &b,
        0.0,
        &mut c.as_mut(),
    )
    .expect("a clean product verifies");
    let mut want = Matrix::<f64>::zeros(m, n);
    naive_gemm(1.0, a, &b, 0.0, &mut want.as_mut());
    assert_eq!(report.detected, 0);
    assert!(report.verifications > 0);
    assert!(c.rel_max_diff(&want) < 1e-12);
    report
}

#[test]
fn a_submatrix_never_reads_the_memo() {
    // The memo holds the sums of whole columns; the top half of `A` has
    // other ones. A product over that half after the memo is filled must
    // still verify clean.
    let a = Matrix::<f64>::random(64, 40, 1);
    let b = Matrix::<f64>::random(40, 24, 2);
    protected_product(&a.as_ref(), &b);
    assert!(memo_of(&a).is_some());
    let top = a.as_ref().submatrix(0, 0, 32, 40);
    assert!(top.col_sums().is_none());
    protected_product(&top, &b);
    let slice = MatRef::from_slice(a.as_slice(), 64, 40, 64).unwrap();
    assert!(slice.col_sums().is_none());
    // Nor does a read-only view of a mutable one.
    let mut c = Matrix::<f64>::zeros(4, 4);
    assert!(c.as_mut().as_ref().col_sums().is_none());
}

#[test]
fn every_mutation_forgets_the_memo() {
    let b = Matrix::<f64>::random(40, 24, 2);
    type Mutation = fn(&mut Matrix<f64>);
    let mutations: [(&str, Mutation); 3] = [
        ("set", |a| a.set(3, 5, a.get(3, 5) + 1.0)),
        ("as_mut_slice", |a| a.as_mut_slice()[7] -= 2.0),
        ("as_mut", |a| {
            let mut view = a.as_mut();
            let v = view.get(0, 0);
            view.set(0, 0, v * 3.0);
        }),
    ];
    for (name, mutate) in mutations {
        let mut a = Matrix::<f64>::random(64, 40, 3);
        protected_product(&a.as_ref(), &b);
        assert!(memo_of(&a).is_some(), "{name}");
        mutate(&mut a);
        assert!(memo_of(&a).is_none(), "{name} kept the memo");
        protected_product(&a.as_ref(), &b);
    }

    // `Arc::make_mut` on a shared matrix mutates a clone, whose memo starts
    // empty; the other owner keeps its filled one. On the last owner it
    // hands out the matrix itself, and the mutation clears its memo.
    let mut shared = Arc::new(Matrix::<f64>::random(64, 40, 4));
    protected_product(&Matrix::as_ref(&shared), &b);
    let other = Arc::clone(&shared);
    Arc::make_mut(&mut shared).set(1, 1, 9.0);
    assert!(memo_of(&shared).is_none());
    assert!(memo_of(&other).is_some());
    protected_product(&Matrix::as_ref(&shared), &b);
    protected_product(&Matrix::as_ref(&other), &b);
    drop(other);
    Arc::make_mut(&mut shared).as_mut_slice()[0] = -4.0;
    assert!(memo_of(&shared).is_none());
    protected_product(&Matrix::as_ref(&shared), &b);
}

#[test]
fn a_clone_never_shares_the_memo() {
    let b = Matrix::<f64>::random(40, 24, 2);
    let a = Matrix::<f64>::random(64, 40, 5);
    protected_product(&a.as_ref(), &b);
    let twin = a.clone();
    assert!(memo_of(&twin).is_none());
    protected_product(&twin.as_ref(), &b);
    let (mine, theirs) = (memo_of(&a).unwrap(), memo_of(&twin).unwrap());
    assert_eq!(mine, theirs);
    assert_ne!(mine.as_ptr(), theirs.as_ptr());
}

/// `C = alpha * A * B + beta * C0` under `cfg` on `ctx`'s pool, through the
/// view `a`: the result's bits and the report or error.
fn on_pool(
    ctx: &ParGemmContext<f64>,
    cfg: &FtConfig,
    a: &MatRef<'_, f64>,
    b: &Matrix<f64>,
    c0: &Matrix<f64>,
) -> (Matrix<f64>, Result<FtReport, String>) {
    let (m, n, k) = (a.nrows(), b.ncols(), a.ncols());
    let mut c = c0.clone();
    let ws = &mut Workspace::for_problem(ctx, m, n, k);
    let r = par_ft_gemm_with_ws(ctx, ws, cfg, 0.75, a, &b.as_ref(), -2.0, &mut c.as_mut());
    (c, r.map_err(|e| e.to_string()))
}

/// `A`'s true column sums with one of them off by a flipped exponent bit —
/// a memo that went bad after its fill, or was filled by a faulty pass.
fn stale_memo(a: &Matrix<f64>, q: usize) -> Vec<f64> {
    let twin = a.clone();
    protected_product(&twin.as_ref(), &Matrix::random(a.ncols(), 3, 9));
    let mut sums = memo_of(&twin).unwrap().to_vec();
    sums[q] = f64::from_bits(sums[q].to_bits() ^ 1 << 52);
    sums
}

#[test]
fn a_stale_memo_is_rejected_and_rolled_back_past() {
    // Under `RetryPanel` the call that reads a stale memo sums `A` again,
    // rejects the memo and rolls the column block back with the fresh
    // `A_r`: it succeeds with the bits of a call that never had a memo.
    let retry = FtConfig {
        recovery: Recovery::RetryPanel { max_retries: 1 },
        ..Default::default()
    };
    for threads in [1, 3] {
        let ctx = small_blocks::<f64>(threads);
        let (mr, nr) = (ctx.kernel.mr, ctx.kernel.nr);
        let (a, b, c0) = problem::<f64>((5 * mr + 3, 3 * 4 * nr + 1, 3 * 16 + 5));
        let (m, k) = (a.nrows(), a.ncols());
        let (want, clean) = on_pool(&ctx, &retry, &a.as_ref().submatrix(0, 0, m, k), &b, &c0);
        assert_eq!(clean.unwrap().retried_panels, 0);

        a.as_ref().fill_col_sums(&stale_memo(&a, 2 * 16 + 1));
        assert!(memo_of(&a).is_some());
        let (got, report) = on_pool(&ctx, &retry, &a.as_ref(), &b, &c0);
        let report = report.expect("the rollback recomputes with the fresh A_r");
        assert!(report.retried_panels > 0, "{threads} threads: {report:?}");
        assert_eq!(report.detected, 0);
        assert_eq!(bits(&got), bits(&want), "{threads} threads");
        assert!(memo_of(&a).is_none(), "{threads} threads: kept");

        // Later calls sum `A`, and leave the rejected memo alone.
        let (again, report) = on_pool(&ctx, &retry, &a.as_ref(), &b, &c0);
        assert_eq!(report.unwrap().retried_panels, 0);
        assert_eq!(bits(&again), bits(&want));
        assert!(memo_of(&a).is_none(), "{threads} threads: refilled");
    }
}

#[test]
fn a_stale_memo_fails_one_call_at_most() {
    // Without a rollback the call that reads a stale memo fails, as one
    // whose own pass over `A` went wrong would; the next one verifies.
    let cfg = FtConfig::default();
    let ctx = small_blocks::<f64>(2);
    let (a, b, c0) = problem::<f64>((57, 41, 3 * 16 + 5));
    let (m, k) = (a.nrows(), a.ncols());
    let (want, _) = on_pool(&ctx, &cfg, &a.as_ref().submatrix(0, 0, m, k), &b, &c0);

    let mut a = a;
    a.as_ref().fill_col_sums(&stale_memo(&a, 7));
    let (_, failed) = on_pool(&ctx, &cfg, &a.as_ref(), &b, &c0);
    let err = failed.expect_err("a stale memo cannot verify");
    assert!(err.contains("one-sided discrepancy: 0 rows"), "{err}");
    assert!(memo_of(&a).is_none(), "the memo is rejected");
    for _ in 0..2 {
        let (got, report) = on_pool(&ctx, &cfg, &a.as_ref(), &b, &c0);
        assert_eq!(report.unwrap().detected, 0);
        assert_eq!(bits(&got), bits(&want));
        assert!(memo_of(&a).is_none());
    }

    // A mutation clears the rejected memo; the next verified call fills it.
    a.set(0, 0, a.get(0, 0));
    protected_product(&a.as_ref(), &b);
    assert!(memo_of(&a).is_some());
}

#[test]
fn only_a_verified_call_fills_the_memo() {
    // An overflowed element fails its panel's verification: without a
    // rollback the call fails, and one that fails may have summed `A`
    // wrong, so it leaves the memo empty.
    let model = ErrorModel::Additive {
        magnitude: f64::INFINITY,
    };
    let overflow = FtConfig::with_injector(FaultInjector::new(3, model, Rate::Count(2)));
    let ctx = small_blocks::<f64>(2);
    let (a, b, c0) = problem::<f64>((64, 64, 16));
    let (_, failed) = on_pool(&ctx, &overflow, &a.as_ref(), &b, &c0);
    assert!(failed.is_err());
    assert!(memo_of(&a).is_none());
    let (_, verified) = on_pool(&ctx, &FtConfig::default(), &a.as_ref(), &b, &c0);
    assert!(verified.is_ok());
    assert!(memo_of(&a).is_some());
}
