//! A `beta == 0` request's output is not zeroed (`Matrix::for_overwrite`):
//! it may be a dropped mapping that still holds another buffer's values.
//! This pins that no serving path reads them. Before each request every
//! spare of its result's length is filled with NaN, the request's output is
//! checked to be one of them, and the result must be bit-identical to a
//! direct run on a zeroed `C` — on the matrix-parallel and the batched path,
//! under `Off`, `DetectCorrect`, and a `DetectCorrect` rollback. `alpha = 0`
//! and `k = 0` return exact zeros, and a wire submit without `C` ignores its
//! `beta`, into a mapped output and into a heap-sized one. Batched results
//! under 256 KiB are heap spares, poisoned the same way and checked NaN
//! before the request runs. Its own binary, with one test: the spare list is
//! process-wide, and a sibling test's buffers would take the poisoned
//! spares.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use ftgemm::core::aligned::{recycled_buffers, AlignedVec};
use ftgemm::faults::{ErrorModel, FaultInjector, Rate};
use ftgemm::net::proto::{Frame, OperandRef, SubmitFrame};
use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig};
use ftgemm::{Exec, GemmOp, Matrix, NetClient, NetServer, NetServerConfig, ParGemmContext};
use std::sync::Arc;

const THREADS: usize = 2;

/// Leaves every spare an `m x n` `f64` buffer would take NaN-filled, and at
/// least one: takes them all, and one fresh mapping, then drops them.
fn poison(m: usize, n: usize) {
    let mut held = Vec::new();
    loop {
        let recycled = recycled_buffers();
        held.push(Matrix::<f64>::filled(m, n, f64::NAN));
        if recycled_buffers() == recycled {
            break;
        }
    }
}

/// `GemmRequest::new(a, b)` whose output is a poisoned spare.
fn poisoned(a: &Arc<Matrix<f64>>, b: &Arc<Matrix<f64>>) -> GemmRequest<f64> {
    poison(a.nrows(), b.ncols());
    let req = GemmRequest::new(a, b);
    assert!(
        req.c.as_slice().iter().all(|x| x.is_nan()),
        "the output of a {}x{} request is not a poisoned spare",
        a.nrows(),
        b.ncols()
    );
    req
}

/// `A*B` on a zeroed `C`, run directly on `exec`.
fn direct(exec: Exec<'_, f64>, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    let mut plan = GemmOp::new(a, b).ft(FtPolicy::Off).plan(exec).unwrap();
    plan.run(&mut c.as_mut()).unwrap();
    c
}

/// The first element whose bits differ from `want`'s, if any.
fn first_difference(got: &[f64], want: &Matrix<f64>) -> Option<usize> {
    let want = want.as_slice();
    assert_eq!(got.len(), want.len());
    (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits())
}

fn service(cutoff: u64) -> Arc<GemmService<f64>> {
    Arc::new(GemmService::new(ServiceConfig {
        threads: THREADS,
        routing: RoutingPolicy::Fixed(cutoff),
        ..ServiceConfig::default()
    }))
}

#[test]
fn beta_zero_outputs_never_show_a_spares_values() {
    let ctx = ParGemmContext::<f64>::with_threads(THREADS);
    // Results of 256 KiB (the smallest mapped), 406 KiB and 2 MiB (on huge
    // pages), each one depth panel deep.
    let operands = [(256, 128, 64), (520, 100, 64), (512, 512, 16)].map(|(m, n, k)| {
        let a = Matrix::<f64>::random(m, k, (m + k) as u64);
        let b = Matrix::<f64>::random(k, n, (k + n) as u64);
        (Arc::new(a), Arc::new(b))
    });
    // An overflow per stream: subtraction cannot repair it, so the panel it
    // lands in rolls back, once per thread at most.
    let overflow = || {
        let model = ErrorModel::Additive {
            magnitude: f64::INFINITY,
        };
        FaultInjector::new(5, model, Rate::Count(1))
    };
    let large = service(0);
    let paths = [
        ("parallel", Exec::Parallel(&ctx), large.clone(), false),
        ("batched", Exec::Serial, service(u64::MAX), true),
    ];
    for (path, exec, service, batched) in &paths {
        for (a, b) in &operands {
            let want = direct(*exec, a, b);
            let dims = (a.nrows(), b.ncols(), a.ncols());
            for policy in [FtPolicy::Off, FtPolicy::DetectCorrect] {
                let resp = service.run(poisoned(a, b).with_policy(policy)).unwrap();
                assert_eq!(resp.batched, *batched, "{path}");
                let diff = first_difference(resp.c.as_slice(), &want);
                assert_eq!(diff, None, "{path} {dims:?} under {policy:?}");
            }
            let resp = service
                .run(poisoned(a, b).with_injector(overflow()))
                .unwrap();
            let report = resp.report;
            assert!(
                report.injected > 0 && report.retried_panels > 0,
                "{path}: {report:?}"
            );
            let diff = first_difference(resp.c.as_slice(), &want);
            assert_eq!(diff, None, "{path} {dims:?} after a rollback");
        }

        // The degenerate products store `beta * C`: zeros, not NaN * 0.
        let (a, b) = &operands[0];
        let k0 = (
            Arc::new(Matrix::zeros(a.nrows(), 0)),
            Arc::new(Matrix::zeros(0, b.ncols())),
        );
        for req in [poisoned(a, b).with_alpha(0.0), poisoned(&k0.0, &k0.1)] {
            let resp = service.run(req).unwrap();
            assert!(resp.c.as_slice().iter().all(|x| x.to_bits() == 0), "{path}");
        }
    }

    // On the wire, a submit without `C` is `beta = 0` whatever `beta` it
    // carries: 2.5 times a poisoned spare would be NaN. Its output is a
    // mapping (256x128) or a heap block (40x64); no later request here
    // takes a heap spare of 40x64, which the server drops only once the
    // completion is written.
    let server =
        NetServer::start(large.clone(), "127.0.0.1:0", NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.addr()).unwrap();
    let heap = (
        Arc::new(Matrix::<f64>::random(40, 32, 40)),
        Arc::new(Matrix::<f64>::random(32, 64, 64)),
    );
    for (a, b) in [&operands[0], &heap] {
        let (m, n) = (a.nrows(), b.ncols());
        poison(m, n);
        let recycled = recycled_buffers();
        let submit = SubmitFrame {
            hold: false,
            policy: 0,
            priority: 1,
            tenant: 0,
            deadline_ns: 0,
            alpha: 1.0,
            beta: 2.5,
            a: OperandRef::inline(a),
            b: OperandRef::inline(b),
            c: None,
        };
        client.send(&Frame::Submit(submit)).unwrap();
        assert!(matches!(
            client.read_response().unwrap(),
            Frame::SubmitAck { .. }
        ));
        let Frame::Completion(done) = client.read_response().unwrap() else {
            panic!("no completion");
        };
        assert_eq!(
            recycled_buffers() - recycled,
            1,
            "the {m}x{n} output was no spare"
        );
        let got = done.result.unwrap().data;
        let diff = first_difference(&got, &direct(Exec::Parallel(&ctx), a, b));
        assert_eq!(diff, None, "the wire scaled what its {m}x{n} output held");
    }

    // Batched results of 24 KiB and 96 KiB are heap blocks, and their spares
    // are poisoned and taken back the same way, NaN until the product.
    let batched = &paths[1].2;
    for (m, n, k) in [(48, 64, 32), (96, 128, 64)] {
        let a = Arc::new(Matrix::<f64>::random(m, k, (m * k) as u64));
        let b = Arc::new(Matrix::<f64>::random(k, n, (k * n) as u64));
        let want = direct(Exec::Serial, &a, &b);
        let runs = [
            ("Off", FtPolicy::Off, None),
            ("DetectCorrect", FtPolicy::DetectCorrect, None),
            ("a rollback", FtPolicy::DetectCorrect, Some(overflow())),
        ];
        for (label, policy, injector) in runs {
            let mut req = poisoned(&a, &b).with_policy(policy);
            if let Some(injector) = injector {
                req = req.with_injector(injector);
            }
            let resp = batched.run(req).unwrap();
            assert!(resp.batched, "{m}x{n} under {label} left the batched path");
            if label == "a rollback" {
                let report = resp.report;
                assert!(
                    report.injected > 0 && report.retried_panels > 0,
                    "{report:?}"
                );
            }
            let diff = first_difference(resp.c.as_slice(), &want);
            assert_eq!(diff, None, "batched {m}x{n} under {label}");
        }
    }
    poison(48, 64);
    let recycled = recycled_buffers();
    let zeroed = AlignedVec::<f64>::zeroed(48 * 64).unwrap();
    assert_eq!(recycled_buffers() - recycled, 1, "the buffer was no spare");
    assert!(
        zeroed.iter().all(|&x| x.to_bits() == 0),
        "a zeroed heap spare"
    );
}
