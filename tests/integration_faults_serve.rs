//! End-to-end fault-injection coverage of the serving path: `ftgemm-faults`
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
//! `ErrorModel::BitFlip`'s docs in `ftgemm-faults`). The campaign therefore
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
use ftgemm::serve::{
    FaultPolicyConfig, FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig,
    StatsSnapshot,
};
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

/// The error-aware fault-policy lifecycle, end to end on one service:
/// before any fault an `Off` request keeps the plain driver's
/// zero-verification cost; an injection campaign escalates the service's
/// policy floor to `DetectCorrect`, after which an `Off` request runs
/// verified; and a quiet volume of clean traffic steps the floor back down
/// to `Off` one level at a time (2 → 1 → 0), after which `Off` is plain
/// again.
#[test]
fn node_local_escalation_floors_requests_and_deescalates_when_quiet() {
    // One 96^3 request is 2*96^3 ≈ 1.77e6 flops, and each campaign request
    // lands one detected error (sample rate ≈ 5.7e-7 per flop). With
    // tau = 2e6 the EWMA reads ≈3.3e-7 after one faulted request and
    // ≈4.7e-7 after two, so `detect` trips immediately and `correct` on
    // the second observation; `quiet_flops` is ~3 clean requests per
    // de-escalation step.
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        max_batch: 4,
        routing: RoutingPolicy::Fixed(CUTOFF),
        fault_policy: Some(FaultPolicyConfig {
            tau_flops: 2.0e6,
            detect_threshold: 1.0e-7,
            correct_threshold: 4.0e-7,
            quiet_flops: 5_000_000,
        }),
        ..ServiceConfig::default()
    });
    let stats = || -> StatsSnapshot { service.stats() };
    let run = |policy: FtPolicy, injector: Option<FaultInjector>, seed: u64| {
        let a = Matrix::<f64>::random(96, 96, seed);
        let b = Matrix::<f64>::random(96, 96, seed + 1);
        let mut req = GemmRequest::new(a, b).with_policy(policy);
        if let Some(inj) = injector {
            req = req.with_injector(inj);
        }
        service.submit(req).unwrap().wait().unwrap()
    };

    // Before any fault: no floor, and an Off request with an armed
    // injector keeps the plain driver — no injection sites, no
    // verifications, all-zero report.
    let inj_clean = FaultInjector::counted(33_000, 4);
    let plain = run(FtPolicy::Off, Some(inj_clean.clone()), 33_001);
    assert_eq!(plain.report, Default::default());
    assert_eq!(inj_clean.stats().injected(), 0);
    let clean = stats();
    assert_eq!(clean.ft_floor, 0, "a clean service must keep no floor");
    assert_eq!(clean.ft_escalations, 0);
    assert_eq!(clean.ft_error_rate, 0.0);

    // Phase A: an injection campaign (DetectCorrect traffic with seeded
    // injectors) drives the detected-errors-per-flop EWMA over the correct
    // threshold.
    for i in 0..3u64 {
        let inj = FaultInjector::new(
            31_000 + i,
            ErrorModel::Additive { magnitude: 1.0e6 },
            Rate::Count(4),
        );
        let resp = run(FtPolicy::DetectCorrect, Some(inj), 30_000 + 2 * i);
        assert!(
            resp.report.detected > 0,
            "campaign request {i} saw no faults"
        );
    }
    let escalated = stats();
    assert_eq!(
        escalated.ft_floor, 2,
        "the campaign must floor the service at DetectCorrect"
    );
    assert!(escalated.ft_escalations >= 1);
    assert_eq!(escalated.ft_deescalations, 0);
    assert!(escalated.ft_error_rate > 0.0);

    // Phase B: the floor overrides the *request's* policy. An Off request
    // with an armed injector runs the verified path (faults detected and
    // corrected).
    let inj = FaultInjector::counted(32_000, 4);
    let floored = run(FtPolicy::Off, Some(inj.clone()), 32_001);
    assert!(
        floored.report.verifications > 0,
        "Off request on the escalated service must run verified"
    );
    assert_eq!(floored.report.detected, floored.report.injected);
    assert_eq!(floored.report.corrected, floored.report.injected);
    assert!(inj.stats().injected() > 0);

    // Phase C: clean traffic de-escalates one level per quiet volume —
    // DetectCorrect(2) -> Detect(1) -> Off(0).
    let mut saw_detect_step = false;
    for i in 0..30u64 {
        if stats().ft_floor == 0 {
            break;
        }
        saw_detect_step |= stats().ft_floor == 1;
        run(FtPolicy::Off, None, 34_000 + 2 * i);
    }
    let quiet = stats();
    assert_eq!(quiet.ft_floor, 0, "clean traffic never de-escalated");
    assert!(saw_detect_step, "floor must step down through Detect");
    assert!(quiet.ft_deescalations >= 2);

    // Fully de-escalated: Off requests are back on the plain driver's cost
    // (and its zero injection sites).
    let inj_after = FaultInjector::counted(35_000, 4);
    let resp = run(FtPolicy::Off, Some(inj_after.clone()), 35_001);
    assert_eq!(resp.report, Default::default());
    assert_eq!(inj_after.stats().injected(), 0);
}
