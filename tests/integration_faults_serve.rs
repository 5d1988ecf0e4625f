//! End-to-end fault-injection coverage of the serving path: `ftgemm::faults`
//! wired through a `GemmService` for the first time.
//!
//! A seeded campaign submits a batch of requests whose injectors corrupt
//! macro-kernel tiles mid-GEMM, under `FtPolicy::DetectCorrect`, and pins
//! the **exact** counter flow across every layer: the injector's own
//! `InjectionStats`, the per-request `FtReport`, and the service-wide
//! `StatsSnapshot` must all agree — every injected error detected, every
//! detected error corrected, nothing flagged that was not injected.
//!
//! On result fidelity: checksum correction subtracts the *measured* delta,
//! which carries the roundoff of the checksum sums — it repairs an error of
//! magnitude `d` up to `O(eps * d)` (an inherent property of ABFT; see
//! `ErrorModel::BitFlip`'s docs in `ftgemm::faults`). The campaign therefore
//! asserts bit-level fidelity at the strength the scheme actually
//! guarantees: bit-flip corruptions (`d` within a few binades of the value)
//! must be restored to within a few ulps of the uncorrupted run of the
//! *same serving path*, and large additive corruptions (`d ~ 1e6`) to
//! within the scaled `eps * d` bound. An `FtPolicy::Off` control (same
//! injectors attached!) pins that the plain driver exposes no injection
//! sites — detection counts stay zero and outputs are **bit-identical** to
//! the clean serving path.

use ftgemm::core::reference::naive_gemm;
use ftgemm::faults::{ErrorModel, Rate};
use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig};
use ftgemm::{FaultInjector, Matrix};

/// Routing pinned so the campaign's size mix deterministically exercises
/// both the batched and the matrix-parallel path.
const CUTOFF: u64 = 2 * 96 * 96 * 96;

fn faulted_service() -> GemmService<f64> {
    GemmService::new(ServiceConfig {
        threads: 2,
        max_batch: 4,
        routing: RoutingPolicy::Fixed(CUTOFF),
        ..ServiceConfig::default()
    })
}

/// The campaign's problem list: sizes straddling the pinned cutoff so
/// injected errors hit both execution paths, with per-request error budgets.
fn campaign_problems() -> Vec<(usize, usize, usize, usize)> {
    vec![
        // (m, n, k, errors) — first four batched (≤ 96^3), last four
        // matrix-parallel.
        (64, 64, 64, 1),
        (80, 64, 48, 2),
        (64, 96, 64, 2),
        (96, 80, 64, 3),
        (128, 128, 96, 1),
        (160, 128, 96, 2),
        (128, 160, 128, 2),
        (192, 160, 96, 3),
    ]
}

/// N requests under `DetectCorrect` with seeded injectors: every layer's
/// injected/detected/corrected counters agree exactly, and every output is
/// restored to the uncorrupted run of the same serving path at the
/// strength the correction scheme guarantees for its error model.
#[test]
fn seeded_campaign_counts_exactly_and_corrects_to_guarantee() {
    let faulted = faulted_service();
    let clean = faulted_service();

    let mut in_flight = Vec::new();
    for (i, &(m, n, k, errors)) in campaign_problems().iter().enumerate() {
        let seed = 9_000 + i as u64;
        let a = Matrix::<f64>::random(m, k, seed);
        let b = Matrix::<f64>::random(k, n, seed + 100);
        // Alternate corruption models: bit flips stay within a few binades
        // of the victim value (correction restores full precision), the
        // additive model is a huge visible excursion (correction restores
        // up to eps * magnitude).
        let model = if i % 2 == 0 {
            ErrorModel::BitFlip { bit: None }
        } else {
            ErrorModel::Additive { magnitude: 1.0e6 }
        };
        let injector = FaultInjector::new(seed + 200, model, Rate::Count(errors));
        let corrupted = faulted
            .submit(
                GemmRequest::new(a.clone(), b.clone())
                    .with_policy(FtPolicy::DetectCorrect)
                    .with_injector(injector.clone()),
            )
            .unwrap();
        // The control request runs the *same serving path* (same service
        // shape, same policy) with no injector, so its output is the
        // bit-exact "what should have happened" reference.
        let reference = clean
            .submit(GemmRequest::new(a.clone(), b.clone()).with_policy(FtPolicy::DetectCorrect))
            .unwrap();
        in_flight.push((a, b, injector, model, corrupted, reference));
    }

    let mut total_injected = 0u64;
    let mut total_detected = 0u64;
    let mut total_corrected = 0u64;
    for (i, (a, b, injector, model, corrupted, reference)) in in_flight.into_iter().enumerate() {
        let resp = corrupted.wait().unwrap();
        let clean_resp = reference.wait().unwrap();
        assert_eq!(
            resp.batched, clean_resp.batched,
            "request {i}: services disagree on routing path"
        );

        // Exact cross-layer counter agreement: the injector's own stats are
        // the ground truth for what fired inside this request's driver.
        let stats = injector.stats();
        assert!(
            stats.injected() > 0,
            "request {i}: injector never fired (errors budget was nonzero)"
        );
        assert_eq!(
            resp.report.injected as u64,
            stats.injected(),
            "request {i}: report vs injector injected count"
        );
        assert_eq!(
            resp.report.detected as u64,
            stats.detected(),
            "request {i}: report vs injector detected count"
        );
        assert_eq!(
            resp.report.corrected as u64,
            stats.corrected(),
            "request {i}: report vs injector corrected count"
        );
        // Every injected error was detected and corrected (the campaign's
        // additive-1e6 model is always visible to the tolerance), and
        // nothing was flagged that was not injected.
        assert_eq!(resp.report.detected, resp.report.injected, "request {i}");
        assert_eq!(resp.report.corrected, resp.report.injected, "request {i}");
        assert_eq!(stats.unrecoverable(), 0, "request {i}");

        // Result fidelity vs the uncorrupted run of the identical serving
        // path, at the correction scheme's guaranteed strength per model:
        // a repaired magnitude-d error leaves at most O(eps * d) residual.
        // Bit flips: d is within a few binades of the value, so the
        // corrected element is exact to a few ulps. Additive 1e6: the
        // residual bound is eps * 1e6 absolute (values here are O(10), so
        // relative ~1e-10 with a wide safety factor below).
        let diff = resp.c.rel_max_diff(&clean_resp.c);
        let bound = match model {
            ErrorModel::BitFlip { .. } => 64.0 * f64::EPSILON,
            _ => 1e-9,
        };
        assert!(
            diff < bound,
            "request {i}: corrected result off the clean run by {diff:.3e} \
             (model {model:?}, guarantee bound {bound:.3e})"
        );
        // And the clean run itself matches the serial reference numerically.
        let mut expected = Matrix::<f64>::zeros(a.nrows(), b.ncols());
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
        assert!(clean_resp.c.rel_max_diff(&expected) < 1e-10, "request {i}");

        total_injected += resp.report.injected as u64;
        total_detected += resp.report.detected as u64;
        total_corrected += resp.report.corrected as u64;
    }

    // Service-wide counters are the exact sums of the per-request reports.
    let snap = faulted.stats();
    assert_eq!(snap.injected, total_injected);
    assert_eq!(snap.detected, total_detected);
    assert_eq!(snap.corrected, total_corrected);
    assert_eq!(snap.completed, 8);
    assert_eq!(snap.failed, 0);
    // Both execution paths actually saw faulted traffic.
    assert_eq!(snap.batched_requests, 4, "{snap:?}");
    assert_eq!(snap.direct_large, 4, "{snap:?}");
    // The clean control service detected nothing.
    let clean_snap = clean.stats();
    assert_eq!(clean_snap.injected, 0);
    assert_eq!(clean_snap.detected, 0);
}

/// `Off`-policy control: the plain drivers expose no injection sites, so an
/// attached injector never fires and detection counters stay zero — while
/// the results still match the reference.
#[test]
fn off_policy_control_keeps_detection_at_zero() {
    let service = faulted_service();
    let control = faulted_service();
    let mut in_flight = Vec::new();
    for (i, &(m, n, k, errors)) in campaign_problems().iter().enumerate() {
        let seed = 20_000 + i as u64;
        let a = Matrix::<f64>::random(m, k, seed);
        let b = Matrix::<f64>::random(k, n, seed + 100);
        let injector = FaultInjector::counted(seed + 200, errors);
        let handle = service
            .submit(
                GemmRequest::new(a.clone(), b.clone())
                    .with_policy(FtPolicy::Off)
                    .with_injector(injector.clone()),
            )
            .unwrap();
        // Same request, no injector, identical second service: with no
        // injection sites in the plain driver the two outputs must match
        // to the bit.
        let clean = control
            .submit(GemmRequest::new(a.clone(), b.clone()).with_policy(FtPolicy::Off))
            .unwrap();
        in_flight.push((a, b, injector, handle, clean));
    }
    for (i, (a, b, injector, handle, clean)) in in_flight.into_iter().enumerate() {
        let resp = handle.wait().unwrap();
        let clean_resp = clean.wait().unwrap();
        assert_eq!(injector.stats().injected(), 0, "request {i}: Off injected");
        assert_eq!(injector.stats().detected(), 0, "request {i}: Off detected");
        assert_eq!(resp.report, Default::default(), "request {i}");
        let bits =
            |m: &Matrix<f64>| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(&resp.c),
            bits(&clean_resp.c),
            "request {i}: Off-policy output not bit-identical to clean path"
        );
        let mut expected = Matrix::<f64>::zeros(a.nrows(), b.ncols());
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
        assert!(resp.c.rel_max_diff(&expected) < 1e-10, "request {i}");
    }
    let snap = service.stats();
    assert_eq!(snap.injected, 0);
    assert_eq!(snap.detected, 0);
    assert_eq!(snap.corrected, 0);
    assert_eq!(snap.completed, 8);
}
