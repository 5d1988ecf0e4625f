//! Fault-injection coverage of the TCP wire frontend: a fault campaign
//! beside wire traffic, and resident operands that change after upload,
//! observed end to end through a live `NetServer`.
//!
//! Wire submits never carry an injector (`conn::build_request` builds
//! every wire request with `injector: None` — fault campaigns are a
//! trusted in-process surface, not a client capability). So the campaign
//! here drives injector-attached submits *in process* against the same
//! `Arc<GemmService>` a `NetServer` is serving, while wire clients work
//! the same service over TCP: wire results must stay correct, each wire
//! request must run exactly the policy it asked for, and the operand
//! store's families must show up in a real `/metrics` scrape over TCP.

use ftgemm::core::reference::naive_gemm;
use ftgemm::faults::{ErrorModel, Rate};
use ftgemm::net::proto::error_code;
use ftgemm::net::{NetClient, NetServer, NetServerConfig, NetSubmit};
use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig};
use ftgemm::{FaultInjector, FtReport, Matrix, Workspace};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Same pinned routing as the in-process fault campaign: 96^3 requests
/// land on the batched path deterministically.
const CUTOFF: u64 = 2 * 96 * 96 * 96;

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\nHost: ftgemm\r\n\r\n").unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    body
}

/// An in-process injection campaign on a service leaves wire clients of
/// the same service with correct answers, and every request runs exactly
/// the policy it asked for: after the campaign an `Off` wire submit runs
/// unverified and `Detect` / `DetectCorrect` ones run verified, and an
/// in-process `Off` request with an armed injector is the plain driver (no
/// injection sites, an all-zero report). The campaign's counters agree
/// request by request and service-wide, and the operand store's families
/// are in a TCP `/metrics` scrape.
#[test]
fn wire_results_stay_correct_beside_an_in_process_campaign() {
    let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        max_batch: 4,
        routing: RoutingPolicy::Fixed(CUTOFF),
        obs_addr: Some("127.0.0.1:0".parse().unwrap()),
    }));
    let server = NetServer::start(Arc::clone(&svc), "127.0.0.1:0", NetServerConfig::default())
        .expect("bind wire frontend");
    let mut client = NetClient::connect(server.addr()).unwrap();
    let obs = svc.obs_addr().expect("obs endpoint bound");

    // In-process campaign, serial submit-and-wait.
    let mut campaign_detected = 0u64;
    let mut campaign_injected = 0u64;
    let mut campaign_corrected = 0u64;
    for i in 0..3u64 {
        let a = Matrix::<f64>::random(96, 96, 40_000 + 2 * i);
        let b = Matrix::<f64>::random(96, 96, 40_001 + 2 * i);
        let inj = FaultInjector::new(
            41_000 + i,
            ErrorModel::Additive { magnitude: 1.0e6 },
            Rate::Count(4),
        );
        let resp = svc
            .submit(
                GemmRequest::new(a, b)
                    .with_policy(FtPolicy::DetectCorrect)
                    .with_injector(inj.clone()),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(resp.report.detected > 0);
        // Cross-layer agreement request by request: report vs injector.
        assert_eq!(resp.report.injected as u64, inj.stats().injected());
        assert_eq!(resp.report.detected as u64, inj.stats().detected());
        campaign_detected += resp.report.detected as u64;
        campaign_injected += resp.report.injected as u64;
        campaign_corrected += resp.report.corrected as u64;
    }

    // Wire traffic on the same service stays correct, and runs the policy
    // it asked for: the faults the service has just seen protect nothing
    // the request did not ask to protect.
    let a = Matrix::<f64>::random(32, 32, 42_000);
    let b = Matrix::<f64>::random(32, 32, 42_001);
    let ha = client.upload(&a).unwrap();
    let hb = client.upload(&b).unwrap();
    let mut expected = Matrix::<f64>::zeros(32, 32);
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());
    for policy in [FtPolicy::Off, FtPolicy::Detect, FtPolicy::DetectCorrect] {
        let id = client
            .submit(NetSubmit::new(ha, hb).with_policy(policy))
            .unwrap();
        let ok = client.wait(id).unwrap().result.expect("wire submit failed");
        assert!(
            ok.to_matrix().rel_max_diff(&expected) < 1e-12,
            "wire result wrong beside the campaign ({policy:?})"
        );
        assert_eq!(
            ok.verifications > 0,
            policy.is_protected(),
            "{policy:?} wire submit ran {} verifications",
            ok.verifications
        );
    }

    // An in-process `Off` request with an armed injector is the plain
    // driver: no injection site fires and its report is all zero.
    let inj = FaultInjector::counted(42_100, 4);
    let a = Matrix::<f64>::random(96, 96, 42_101);
    let b = Matrix::<f64>::random(96, 96, 42_102);
    let resp = svc
        .run(
            GemmRequest::new(a, b)
                .with_policy(FtPolicy::Off)
                .with_injector(inj.clone()),
        )
        .unwrap();
    assert_eq!(resp.report, FtReport::default());
    assert_eq!(inj.stats().injected(), 0);

    // Service-wide counter agreement with the campaign.
    let snap = svc.stats();
    assert_eq!(snap.detected, campaign_detected);
    assert_eq!(snap.injected, campaign_injected);
    assert_eq!(snap.corrected, campaign_corrected);

    // The operand store's families are scrapeable over TCP.
    let body = scrape(obs);
    for family in [
        "ftgemm_net_resident_operand_bytes",
        "ftgemm_net_operand_handles",
        "ftgemm_net_operand_evictions_total",
    ] {
        assert!(
            body.contains(&format!("# TYPE {family}")),
            "family {family} missing from /metrics scrape"
        );
    }
}

/// What a submit over a changed resident operand must come back as: the
/// failed completion of a call that found the data disagreeing with the
/// sums pinned at upload.
fn assert_fails_stop(result: Result<ftgemm::net::CompletionOk, (u16, String)>, what: &str) {
    match result {
        Err((code, message)) => {
            assert_eq!(code, error_code::FT, "{what}: {message}");
            assert!(
                message.contains("changed since its sums were pinned"),
                "{what}: {message}"
            );
        }
        Ok(ok) => panic!(
            "{what}: Ok over a changed operand (detected {}, verifications {})",
            ok.detected, ok.verifications
        ),
    }
}

/// A resident operand changed after upload fails its next protected submit
/// and is quarantined. Under the default server configuration, for `A` and
/// for `B`, at 24² and 96² (the batched path) and 512² (the large path),
/// changed before any request (then submitted under `Detect`) and after one
/// verified request (under `DetectCorrect`, which would roll back): the
/// submit over the changed operand fails stop (never `Ok`), the next one is
/// refused with `OPERAND_QUARANTINED`, and after a release and a re-upload
/// the same data serves correct results again.
#[test]
fn a_changed_resident_operand_fails_its_next_protected_submit_and_is_quarantined() {
    let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(Arc::clone(&svc), "127.0.0.1:0", NetServerConfig::default())
        .expect("bind wire frontend");
    let store = Arc::clone(server.store());
    let mut client = NetClient::connect(server.addr()).unwrap();
    let mut seed = 43_000;
    for n in [24, 96, 512] {
        for change_b in [false, true] {
            for (after_a_request, policy) in
                [(false, FtPolicy::Detect), (true, FtPolicy::DetectCorrect)]
            {
                let what = format!(
                    "{n}², {} changed {}, {policy:?}",
                    if change_b { "B" } else { "A" },
                    if after_a_request {
                        "after a verified request"
                    } else {
                        "before any request"
                    },
                );
                seed += 2;
                let a = Matrix::<f64>::random(n, n, seed);
                let b = Matrix::<f64>::random(n, n, seed + 1);
                let mut want = Matrix::<f64>::zeros(n, n);
                naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut want.as_mut());
                let (ha, hb) = (client.upload(&a).unwrap(), client.upload(&b).unwrap());
                let submit = |client: &mut NetClient, ha, hb| {
                    let id = client
                        .submit(NetSubmit::new(ha, hb).with_policy(policy))
                        .unwrap();
                    client.wait(id).unwrap().result
                };
                if after_a_request {
                    let ok = submit(&mut client, ha, hb).expect("clean submit");
                    assert!(ok.verifications > 0 && ok.detected == 0, "{what}");
                    assert!(ok.to_matrix().rel_max_diff(&want) < 1e-12, "{what}");
                }

                let bad = if change_b { hb } else { ha };
                assert!(store.corrupt_resident_for_test(bad));
                assert_fails_stop(submit(&mut client, ha, hb), &what);
                match submit(&mut client, ha, hb) {
                    Err((code, message)) => {
                        assert_eq!(code, error_code::OPERAND_QUARANTINED, "{what}: {message}");
                    }
                    Ok(_) => panic!("{what}: the changed operand was served again"),
                }
                assert_eq!(store.quarantined_count(), 1, "{what}");

                // Release and re-upload: the same data serves correct
                // results again.
                client.release(bad).unwrap();
                assert_eq!(store.quarantined_count(), 0, "{what}");
                let fresh = client.upload(if change_b { &b } else { &a }).unwrap();
                let (ha, hb) = if change_b { (ha, fresh) } else { (fresh, hb) };
                let ok = submit(&mut client, ha, hb).expect("re-uploaded submit");
                assert_eq!(ok.detected, 0, "{what}");
                assert!(ok.to_matrix().rel_max_diff(&want) < 1e-12, "{what}");
                client.release(ha).unwrap();
                client.release(hb).unwrap();
                assert_eq!(store.handle_count(), 0, "{what}");
            }
        }
    }
    server.stop();
}

/// `n` x `cols` with every row scaled by its own power of ten in
/// `1e-6..=1e6`.
fn rows_scaled(n: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let scales = Matrix::<f64>::random(n, 1, seed ^ 0x5ca1e);
    let m = Matrix::<f64>::random(n, cols, seed);
    Matrix::from_fn(n, cols, |i, j| {
        m.get(i, j) * 10f64.powf(6.0 * scales.get(i, 0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clean resident operands never trip the pinned-sum checks: random
    /// shapes, some deeper than `KC` (several depth panels) and some with a
    /// `B` wider than `NC` (several column blocks; both at once is
    /// `nest.rs`'s test, on small blocks),
    /// rows from 1e-6 to 1e6, under `Detect` and `DetectCorrect`, on the
    /// batched and the large path, on 1 and 2 threads. Every wire result
    /// detects nothing and is bit-identical to the same submit in process.
    #[test]
    fn clean_resident_operands_never_trip_the_pinned_sums(
        m in 1usize..32,
        k in 1usize..32,
        n in 1usize..32,
        shape in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let params = Workspace::<f64>::new().params;
        let (k, n) = match shape {
            0 => (k, n),
            1 => (params.kc + k, n),
            _ => (k, params.nc + n),
        };
        let a = rows_scaled(m, k, seed);
        let b = rows_scaled(k, n, seed + 1);
        for threads in [1, 2] {
            // Cutoff 0 sends every request to the large path.
            for cutoff in [u64::MAX, 0] {
                let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
                    threads,
                    routing: RoutingPolicy::Fixed(cutoff),
                    ..ServiceConfig::default()
                }));
                let server =
                    NetServer::start(Arc::clone(&svc), "127.0.0.1:0", NetServerConfig::default())
                        .expect("bind wire frontend");
                let mut client = NetClient::connect(server.addr()).unwrap();
                let (ha, hb) = (client.upload(&a).unwrap(), client.upload(&b).unwrap());
                for policy in [FtPolicy::Detect, FtPolicy::DetectCorrect] {
                    let what = format!("{m}x{n}x{k}, {threads} threads, cutoff {cutoff}, {policy:?}");
                    let want = svc
                        .run(GemmRequest::new(a.clone(), b.clone()).with_policy(policy))
                        .unwrap();
                    prop_assert_eq!(want.batched, cutoff > 0, "{}", what);
                    let id = client.submit(NetSubmit::new(ha, hb).with_policy(policy)).unwrap();
                    let got = client.wait(id).unwrap().result;
                    let got = got.unwrap_or_else(|e| panic!("{what}: {e:?}"));
                    prop_assert_eq!(got.detected, 0, "{}", what);
                    prop_assert!(got.verifications > 0, "{}", what);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&got.data), bits(want.c.as_slice()), "{}", what);
                }
                prop_assert_eq!(server.store().quarantined_count(), 0);
                server.stop();
            }
        }
    }
}
