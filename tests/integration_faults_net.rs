//! Fault-injection and error-policy coverage of the TCP wire frontend:
//! the error-aware escalation monitor and the operand-store scrubber
//! observed end to end through a live `NetServer`.
//!
//! Wire submits never carry an injector (`conn::build_request` builds
//! every wire request with `injector: None` — fault campaigns are a
//! trusted in-process surface, not a client capability). So the campaign
//! here drives injector-attached submits *in process* against the same
//! `Arc<GemmService>` a `NetServer` is serving, while wire clients work
//! the same service over TCP: escalation state must be node-local, wire
//! results must stay correct, and the `ftgemm_ftpolicy_*` /
//! `ftgemm_scrub_*` families must show up (with the escalated floor's
//! value) in a real `/metrics` scrape over TCP.

use ftgemm::core::reference::naive_gemm;
use ftgemm::faults::{ErrorModel, Rate};
use ftgemm::net::proto::error_code;
use ftgemm::net::{NetClient, NetServer, NetServerConfig, NetSubmit};
use ftgemm::serve::{
    FaultPolicyConfig, FtPolicy, GemmRequest, GemmService, PlacementPolicy, RoutingPolicy,
    ServiceConfig, Topology,
};
use ftgemm::{FaultInjector, Matrix};
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

/// An in-process injection campaign at node 0 escalates that node's floor
/// while a wire client keeps getting correct answers from the same
/// service — and the whole policy state is visible in a TCP `/metrics`
/// scrape: per-node `ftgemm_ftpolicy_node_floor` shows the faulty node at
/// 2 (DetectCorrect) and the clean node at 0.
#[test]
fn wire_campaign_escalates_node_and_exports_policy_metrics() {
    let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 0,
        max_batch: 4,
        routing: RoutingPolicy::Fixed(CUTOFF),
        topology: Some(Topology::synthetic(2, 2)),
        placement: PlacementPolicy::OperandHome,
        obs_addr: Some("127.0.0.1:0".parse().unwrap()),
        // Same tuning as the in-process escalation test: one detected
        // error per 96^3 request reads ≈3.3e-7 errors/flop after one
        // observation and ≈4.7e-7 after two.
        fault_policy: Some(FaultPolicyConfig {
            tau_flops: 2.0e6,
            detect_threshold: 1.0e-7,
            correct_threshold: 4.0e-7,
            quiet_flops: 5_000_000,
        }),
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(Arc::clone(&svc), "127.0.0.1:0", NetServerConfig::default())
        .expect("bind wire frontend");
    let mut client = NetClient::connect(server.addr()).unwrap();

    // In-process campaign pinned at node 0: serial submit-and-wait keeps
    // the queues under the steal gate, so the home hint holds.
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
                    .with_injector(inj.clone())
                    .with_home(0),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.executed_node, 0, "campaign request stolen off node 0");
        assert!(resp.report.detected > 0);
        // Cross-layer agreement request by request: report vs injector.
        assert_eq!(resp.report.injected as u64, inj.stats().injected());
        assert_eq!(resp.report.detected as u64, inj.stats().detected());
        campaign_detected += resp.report.detected as u64;
        campaign_injected += resp.report.injected as u64;
        campaign_corrected += resp.report.corrected as u64;
    }

    // Wire traffic on the same service stays correct while node 0 is
    // floored (small requests: their clean flops stay far below the quiet
    // volume, so they cannot de-escalate node 0 mid-test).
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
            "wire result wrong under escalation ({policy:?})"
        );
    }

    // Node-local escalation state, service-wide counter agreement.
    let snap = svc.stats();
    let floor = |node: usize| {
        snap.per_node
            .iter()
            .find(|n| n.node == node)
            .unwrap_or_else(|| panic!("no stats for node {node}"))
    };
    assert_eq!(floor(0).ft_floor, 2, "faulty node floored at DetectCorrect");
    assert!(floor(0).ft_escalations >= 1);
    assert_eq!(floor(1).ft_floor, 0, "clean node keeps no floor");
    assert_eq!(floor(1).ft_escalations, 0);
    assert_eq!(snap.detected, campaign_detected);
    assert_eq!(snap.injected, campaign_injected);
    assert_eq!(snap.corrected, campaign_corrected);

    // The whole policy surface is scrapeable over TCP.
    let body = scrape(svc.obs_addr().expect("obs endpoint bound"));
    for family in [
        "ftgemm_ftpolicy_node_floor",
        "ftgemm_ftpolicy_escalations_total",
        "ftgemm_ftpolicy_deescalations_total",
        "ftgemm_ftpolicy_error_rate_per_flop",
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
    assert!(
        body.contains("ftgemm_ftpolicy_node_floor{node=\"0\"} 2\n"),
        "escalated floor not exported"
    );
    assert!(
        body.contains("ftgemm_ftpolicy_node_floor{node=\"1\"} 0\n"),
        "clean floor not exported"
    );
}

/// The background scrubber catches a resident operand that rots *after*
/// upload — before a reusing submit can compute on the bad bits. The
/// poisoned handle answers `OPERAND_QUARANTINED` (not a silent wrong
/// result, not a plain `UNKNOWN_HANDLE`), and re-uploading recovers.
#[test]
fn scrubber_quarantines_corrupted_operand_before_reuse() {
    let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        topology: Some(Topology::single(2)),
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
