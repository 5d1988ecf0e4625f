//! Fault-injection coverage of the TCP wire frontend: a fault campaign
//! beside wire traffic, and the operand-store scrubber, observed end to end
//! through a live `NetServer`.
//!
//! Wire submits never carry an injector (`conn::build_request` builds
//! every wire request with `injector: None` — fault campaigns are a
//! trusted in-process surface, not a client capability). So the campaign
//! here drives injector-attached submits *in process* against the same
//! `Arc<GemmService>` a `NetServer` is serving, while wire clients work
//! the same service over TCP: wire results must stay correct, each wire
//! request must run exactly the policy it asked for, and the
//! `ftgemm_scrub_*` families must show up in a real `/metrics` scrape over
//! TCP.

use ftgemm::core::reference::naive_gemm;
use ftgemm::faults::{ErrorModel, Rate};
use ftgemm::net::proto::error_code;
use ftgemm::net::{NetClient, NetServer, NetServerConfig, NetSubmit};
use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, RoutingPolicy, ServiceConfig};
use ftgemm::{FaultInjector, FtReport, Matrix};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Spin until `cond` holds (the scrubber runs on a background server
/// thread, so quarantine is eventually-consistent).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// An in-process injection campaign on a service leaves wire clients of
/// the same service with correct answers, and every request runs exactly
/// the policy it asked for: after the campaign an `Off` wire submit runs
/// unverified and `Detect` / `DetectCorrect` ones run verified, and an
/// in-process `Off` request with an armed injector is the plain driver (no
/// injection sites, an all-zero report). The campaign's counters agree
/// request by request and service-wide, and the scrubber's families are in
/// a TCP `/metrics` scrape.
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

    // The scrubber's families are scrapeable over TCP.
    let body = scrape(obs);
    for family in [
        "ftgemm_scrub_passes_total",
        "ftgemm_scrub_operands_verified_total",
        "ftgemm_scrub_corrupted_total",
        "ftgemm_scrub_quarantined",
    ] {
        assert!(
            body.contains(&format!("# TYPE {family}")),
            "family {family} missing from /metrics scrape"
        );
    }
}

/// The background scrubber catches a resident operand that rots *after*
/// upload — before a reusing submit can compute on the bad bits. The
/// poisoned handle answers `OPERAND_QUARANTINED` (not a silent wrong
/// result, not a plain `UNKNOWN_HANDLE`), and re-uploading recovers.
#[test]
fn scrubber_quarantines_corrupted_operand_before_reuse() {
    let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(
        Arc::clone(&svc),
        "127.0.0.1:0",
        NetServerConfig {
            scrub_interval: Some(Duration::from_millis(10)),
            scrub_batch: 16,
            ..NetServerConfig::default()
        },
    )
    .expect("bind wire frontend");
    let mut client = NetClient::connect(server.addr()).unwrap();

    let a = Matrix::<f64>::random(24, 24, 43_000);
    let b = Matrix::<f64>::random(24, 24, 43_001);
    let ha = client.upload(&a).unwrap();
    let hb = client.upload(&b).unwrap();
    let mut expected = Matrix::<f64>::zeros(24, 24);
    naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut expected.as_mut());

    // Clean reuse works, and scrub passes verify the residents clean.
    let id = client.submit(NetSubmit::new(ha, hb)).unwrap();
    let ok = client.wait(id).unwrap().result.unwrap();
    assert!(ok.to_matrix().rel_max_diff(&expected) < 1e-12);
    wait_until("a clean scrub pass", || {
        server.store().scrub_passes() >= 1 && server.store().scrub_verified() >= 2
    });
    assert_eq!(server.store().scrub_corrupted(), 0);

    // Rot one element of the resident A *without* touching its stored
    // checksums, then wait for the background scrubber to catch it.
    assert!(server.store().corrupt_resident_for_test(ha));
    wait_until("the scrubber to quarantine the rotten operand", || {
        server.store().quarantined_count() == 1
    });
    assert!(server.store().scrub_corrupted() >= 1);
    // Quarantine evicted the bytes: only B remains resident.
    assert_eq!(server.store().handle_count(), 1);

    // A reusing submit completes with the typed quarantine error instead
    // of wrong bits; the untouched operand still resolves.
    let id = client.submit(NetSubmit::new(ha, hb)).unwrap();
    match client.wait(id).unwrap().result {
        Err((code, message)) => {
            assert_eq!(code, error_code::OPERAND_QUARANTINED);
            assert!(message.contains("quarantined"), "{message}");
        }
        Ok(_) => panic!("expected OPERAND_QUARANTINED wire error, got a result"),
    }

    // Releasing the poisoned handle clears the quarantine marker, and a
    // fresh upload of the same data serves correct results again.
    client.release(ha).unwrap();
    assert_eq!(server.store().quarantined_count(), 0);
    let ha2 = client.upload(&a).unwrap();
    let id = client.submit(NetSubmit::new(ha2, hb)).unwrap();
    let ok = client.wait(id).unwrap().result.unwrap();
    assert!(ok.to_matrix().rel_max_diff(&expected) < 1e-12);
    server.stop();
}
