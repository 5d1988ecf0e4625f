//! End-to-end coverage of the TCP wire frontend: loopback
//! client/server round trips bit-identical to in-process `submit`,
//! deadline rejection as a wire error code, handle lifecycle (upload /
//! reuse / release / eviction / disconnect cleanup), protocol robustness
//! on a live connection, and the `ftgemm_net_*` families in a real
//! `/metrics` scrape.

use ftgemm::core::Matrix;
use ftgemm::net::codec::{read_frame, write_frame, ReadEvent};
use ftgemm::net::proto::{
    error_code, CompletionFrame, Frame, OperandRef, SubmitFrame, DEFAULT_MAX_FRAME, FEATURES,
    PROTO_VERSION,
};
use ftgemm::net::{ClientError, NetClient, NetServer, NetServerConfig, NetSubmit};
use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, Priority, RoutePath, ServiceConfig};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service() -> Arc<GemmService<f64>> {
    Arc::new(GemmService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    }))
}

fn start(service: &Arc<GemmService<f64>>, config: NetServerConfig) -> NetServer {
    NetServer::start(Arc::clone(service), "127.0.0.1:0", config).expect("bind wire frontend")
}

/// Spin until `cond` holds (teardown paths run on connection threads, so
/// observable effects like handle release are eventually-consistent).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance-criteria loopback flow: upload `A`/`B` once, fire N
/// submits against the handles with mixed tenants/priorities/policies,
/// and require every wire result bit-identical to the same request
/// through in-process `submit` on the same service.
#[test]
fn wire_results_bit_identical_to_in_process_submit() {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let mut client = NetClient::connect(server.addr()).unwrap();

    let a = Matrix::<f64>::random(48, 32, 11);
    let b = Matrix::<f64>::random(32, 40, 12);
    let ha = client.upload(&a).unwrap();
    let hb = client.upload(&b).unwrap();
    assert_eq!(server.store().handle_count(), 2);

    let cases: &[(u32, Priority, FtPolicy, f64)] = &[
        (0, Priority::Normal, FtPolicy::DetectCorrect, 1.0),
        (7, Priority::High, FtPolicy::Detect, -2.5),
        (7, Priority::Low, FtPolicy::Off, 0.125),
        (3, Priority::Normal, FtPolicy::DetectCorrect, 3.0),
        (0, Priority::High, FtPolicy::DetectCorrect, 1.0),
        (3, Priority::Low, FtPolicy::Detect, -1.0),
    ];
    let mut ids = Vec::new();
    for &(tenant, priority, policy, alpha) in cases {
        let id = client
            .submit(
                NetSubmit::new(ha, hb)
                    .with_tenant(tenant)
                    .with_priority(priority)
                    .with_policy(policy)
                    .with_alpha(alpha),
            )
            .unwrap();
        ids.push(id);
    }
    for (&id, &(tenant, priority, policy, alpha)) in ids.iter().zip(cases) {
        let completion = client.wait(id).unwrap();
        let ok = completion.result.expect("wire submit must succeed");
        let wire_c = ok.to_matrix();

        let in_process = svc
            .submit(
                GemmRequest::new(a.clone(), b.clone())
                    .with_alpha(alpha)
                    .with_policy(policy)
                    .with_tenant(tenant)
                    .with_priority(priority),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(wire_c.nrows(), in_process.c.nrows());
        assert_eq!(wire_c.ncols(), in_process.c.ncols());
        for (w, p) in wire_c.as_slice().iter().zip(in_process.c.as_slice()) {
            assert_eq!(
                w.to_bits(),
                p.to_bits(),
                "wire result must be bit-identical"
            );
        }
        assert_eq!(ok.report().verifications, in_process.report.verifications);
    }

    // Zero-copy sanity: six submits against two uploads left exactly the
    // two uploaded operands resident.
    assert_eq!(server.store().handle_count(), 2);
    client.release(ha).unwrap();
    client.release(hb).unwrap();
    assert_eq!(server.store().handle_count(), 0);
    assert_eq!(server.store().resident_bytes(), 0);
}

/// `alpha*A*B + beta*C` with an explicit C travels correctly both ways.
#[test]
fn inline_submit_with_accumulation() {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let mut client = NetClient::connect(server.addr()).unwrap();

    let a = Matrix::<f64>::random(16, 8, 1);
    let b = Matrix::<f64>::random(8, 12, 2);
    let c0 = Matrix::<f64>::random(16, 12, 3);
    let id = client
        .submit(NetSubmit::new(&a, &b).with_alpha(2.0).with_c(-1.5, &c0))
        .unwrap();
    let wire = client.wait(id).unwrap().result.unwrap().to_matrix();

    let in_process = svc
        .submit(GemmRequest::new(a, b).with_alpha(2.0).with_c(-1.5, c0))
        .unwrap()
        .wait()
        .unwrap();
    for (w, p) in wire.as_slice().iter().zip(in_process.c.as_slice()) {
        assert_eq!(w.to_bits(), p.to_bits());
    }
}

/// Hold delivery: Poll answers Pending/Completion, Wait blocks
/// server-side; unknown ids get a typed error.
#[test]
fn hold_delivery_poll_and_wait() {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let mut client = NetClient::connect(server.addr()).unwrap();

    let a = Matrix::<f64>::random(24, 24, 4);
    let b = Matrix::<f64>::random(24, 24, 5);
    let id = client.submit(NetSubmit::new(&a, &b).held()).unwrap();
    // Poll until done (first polls may legitimately return Pending).
    let completion = loop {
        if let Some(c) = client.poll(id).unwrap() {
            break c;
        }
    };
    assert!(completion.result.is_ok());

    // Wait on a second held submit exercises the blocking path.
    let id2 = client.submit(NetSubmit::new(&a, &b).held()).unwrap();
    assert!(client.wait(id2).unwrap().result.is_ok());

    // A redeemed (or never-submitted) id is a typed error, not a hang.
    match client.poll(id2) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, error_code::UNKNOWN_REQUEST),
        other => panic!("expected UNKNOWN_REQUEST, got {other:?}"),
    }
}

/// A deadline the admission model deems infeasible surfaces as wire error
/// code DEADLINE_EXCEEDED, as the refused submit's own completion.
#[test]
fn infeasible_deadline_is_a_wire_error() {
    let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    }));
    // Seed the batched path at 100k ns/flop: a 64^3 problem predicts
    // ~52s, hopeless against 50ms (same deterministic setup as the QoS
    // integration tests).
    let flops = 2 * 64u64.pow(3);
    for _ in 0..4 {
        svc.seed_routing(RoutePath::Batched, flops, flops * 100_000);
    }
    let server = start(&svc, NetServerConfig::default());
    let mut client = NetClient::connect(server.addr()).unwrap();

    let a = Matrix::<f64>::random(64, 64, 6);
    let b = Matrix::<f64>::random(64, 64, 7);
    let id = client
        .submit(NetSubmit::new(&a, &b).with_deadline(Duration::from_millis(50)))
        .unwrap();
    match client.wait(id).unwrap().result {
        Err((code, message)) => {
            assert_eq!(code, error_code::DEADLINE_EXCEEDED);
            assert!(message.contains("infeasible"), "{message}");
        }
        Ok(_) => panic!("expected DEADLINE_EXCEEDED wire error, got a result"),
    }
    // The connection survives the rejection.
    let id = client.submit(NetSubmit::new(&a, &b)).unwrap();
    assert!(client.wait(id).unwrap().result.is_ok());
}

/// Killing a client mid-stream leaks nothing: its operand handles are
/// released and the resident-bytes accounting returns to baseline.
#[test]
fn killed_client_leaks_no_handles() {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let a = Matrix::<f64>::random(64, 64, 8);
    let b = Matrix::<f64>::random(64, 64, 9);

    {
        let mut client = NetClient::connect(server.addr()).unwrap();
        let ha = client.upload(&a).unwrap();
        let hb = client.upload(&b).unwrap();
        assert_eq!(server.store().handle_count(), 2);
        assert!(server.store().resident_bytes() > 0);
        // Fire-and-forget stream submits, then vanish without waiting.
        client.submit(NetSubmit::new(ha, hb)).unwrap();
        client.submit(NetSubmit::new(ha, hb)).unwrap();
        // Drop = TCP close mid-stream, completions undelivered.
    }

    wait_until("operand store back to baseline", || {
        server.store().handle_count() == 0 && server.store().resident_bytes() == 0
    });
}

/// Byte-budget eviction over the wire: the oldest handle is evicted, a
/// submit against it completes with UNKNOWN_HANDLE, an operand larger than
/// the whole budget answers OPERAND_BUDGET.
#[test]
fn operand_budget_evicts_lru() {
    let svc = service();
    // Budget: exactly two 32x32 f64 operands.
    let server = start(
        &svc,
        NetServerConfig {
            operand_budget: 2 * 32 * 32 * 8,
            ..NetServerConfig::default()
        },
    );
    let mut client = NetClient::connect(server.addr()).unwrap();

    let m = Matrix::<f64>::random(32, 32, 10);
    let h1 = client.upload(&m).unwrap();
    let _h2 = client.upload(&m).unwrap();
    let _h3 = client.upload(&m).unwrap(); // evicts h1
    assert_eq!(server.store().evictions(), 1);
    assert_eq!(server.store().handle_count(), 2);

    let id = client.submit(NetSubmit::new(h1, h1)).unwrap();
    match client.wait(id).unwrap().result {
        Err((code, _)) => assert_eq!(code, error_code::UNKNOWN_HANDLE),
        Ok(_) => panic!("expected UNKNOWN_HANDLE, got a result"),
    }

    let huge = Matrix::<f64>::zeros(64, 64); // 32 KiB > 16 KiB budget
    match client.upload(&huge) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, error_code::OPERAND_BUDGET),
        other => panic!("expected OPERAND_BUDGET, got {other:?}"),
    }
}

/// Protocol robustness on a live connection: wrong version, missing
/// Hello, unknown verb, malformed payload, and an oversized frame each
/// get their typed error frame — and the same connection (and server)
/// keeps working afterwards.
#[test]
fn protocol_errors_keep_connection_alive() {
    let svc = service();
    let server = start(
        &svc,
        NetServerConfig {
            max_frame: 64 * 1024,
            ..NetServerConfig::default()
        },
    );

    // Raw socket: drive the handshake by hand to hit the pre-Hello paths.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let expect_error = |raw: &mut TcpStream, want: u16| {
        let (event, _) = read_frame(raw, 64 * 1024).unwrap();
        match event {
            ReadEvent::Frame(Frame::Error { code, .. }) => assert_eq!(code, want),
            other => panic!("expected error frame {want}, got {other:?}"),
        }
    };

    // 1. First frame not Hello.
    write_frame(&mut raw, &Frame::Poll { id: 1 }).unwrap();
    expect_error(&mut raw, error_code::EXPECTED_HELLO);

    // 2. Unsupported version.
    write_frame(
        &mut raw,
        &Frame::Hello {
            version: PROTO_VERSION + 99,
            features: 0,
        },
    )
    .unwrap();
    expect_error(&mut raw, error_code::UNSUPPORTED_VERSION);

    // 3. The *same* connection recovers with a correct Hello.
    write_frame(
        &mut raw,
        &Frame::Hello {
            version: PROTO_VERSION,
            features: u32::MAX,
        },
    )
    .unwrap();
    let (event, _) = read_frame(&mut raw, 64 * 1024).unwrap();
    match event {
        ReadEvent::Frame(Frame::ServerHello { version, .. }) => assert_eq!(version, PROTO_VERSION),
        other => panic!("expected ServerHello, got {other:?}"),
    }

    // 4. Unknown verb byte.
    raw.write_all(&[1u32.to_le_bytes(), [200, 0, 0, 0]].concat()[..5])
        .unwrap();
    expect_error(&mut raw, error_code::UNKNOWN_VERB);

    // 5. Malformed payload (Poll frame with a truncated id).
    let mut bad = Vec::new();
    bad.extend_from_slice(&3u32.to_le_bytes());
    bad.push(ftgemm::net::proto::verb::POLL);
    bad.extend_from_slice(&[0, 0]);
    raw.write_all(&bad).unwrap();
    expect_error(&mut raw, error_code::MALFORMED_FRAME);

    // 6. Oversized frame: claims 1 MiB against a 64 KiB cap. Drained,
    // answered, framing stays in sync.
    let len = 1024 * 1024u32;
    raw.write_all(&len.to_le_bytes()).unwrap();
    raw.write_all(&vec![0u8; len as usize]).unwrap();
    expect_error(&mut raw, error_code::FRAME_TOO_LARGE);

    // 7. After all that abuse, the same connection still serves GEMMs.
    let a = Matrix::<f64>::random(8, 8, 20);
    write_frame(
        &mut raw,
        &Frame::Submit(ftgemm::net::proto::SubmitFrame {
            hold: false,
            policy: 2,
            priority: 1,
            tenant: 0,
            deadline_ns: 0,
            alpha: 1.0,
            beta: 0.0,
            a: ftgemm::net::OperandRef::inline(&a),
            b: ftgemm::net::OperandRef::inline(&a),
            c: None,
        }),
    )
    .unwrap();
    let (event, _) = read_frame(&mut raw, 64 * 1024).unwrap();
    assert!(
        matches!(event, ReadEvent::Frame(Frame::SubmitAck { .. })),
        "submit after protocol abuse must succeed, got {event:?}"
    );

    // 8. And the server still accepts fresh connections.
    let mut fresh = NetClient::connect(server.addr()).unwrap();
    let id = fresh.submit(NetSubmit::new(&a, &a)).unwrap();
    assert!(fresh.wait(id).unwrap().result.is_ok());
}

/// The per-connection in-flight cap is enforced with a typed error, as the
/// refused submit's completion.
#[test]
fn in_flight_cap_is_a_typed_error() {
    let svc = service();
    let server = start(
        &svc,
        NetServerConfig {
            max_in_flight: 0,
            ..NetServerConfig::default()
        },
    );
    let mut client = NetClient::connect(server.addr()).unwrap();
    let a = Matrix::<f64>::random(8, 8, 21);
    let id = client.submit(NetSubmit::new(&a, &a)).unwrap();
    match client.next_completion().unwrap() {
        CompletionFrame {
            id: got,
            result: Err((code, _)),
        } => {
            assert_eq!(got, id);
            assert_eq!(code, error_code::TOO_MANY_IN_FLIGHT);
        }
        other => panic!("expected TOO_MANY_IN_FLIGHT, got {other:?}"),
    }
}

/// A submit does not wait for its answer: against a fake server that
/// answers the Hello and then reads without answering anything, 256
/// submits return before a watchdog fires, and the server reads all 256.
#[test]
fn submits_do_not_wait_for_their_acks() {
    const SUBMITS: usize = 256;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let (event, _) = read_frame(&mut sock, DEFAULT_MAX_FRAME).unwrap();
        assert!(
            matches!(event, ReadEvent::Frame(Frame::Hello { .. })),
            "{event:?}"
        );
        let hello = Frame::ServerHello {
            version: PROTO_VERSION,
            features: FEATURES,
            max_frame: DEFAULT_MAX_FRAME,
        };
        write_frame(&mut sock, &hello).unwrap();
        let mut submits = 0;
        while let Ok((ReadEvent::Frame(Frame::Submit(_)), _)) =
            read_frame(&mut sock, DEFAULT_MAX_FRAME)
        {
            submits += 1;
        }
        submits
    });

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap();
        let ids: Vec<u64> = (0..SUBMITS)
            .map(|_| client.submit(NetSubmit::new(1, 2)).unwrap())
            .collect();
        done_tx.send(ids).unwrap();
        // Dropping the client closes the connection and ends the server.
    });
    let ids = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a submit waited for an answer the server never sends");
    client.join().unwrap();
    let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(distinct.len(), SUBMITS, "ids must be distinct: {ids:?}");
    assert_eq!(server.join().unwrap(), SUBMITS);
}

/// Submits wait in the client's write buffer until the client must wait.
/// Against a fake server: after the hello, `K` submits put no byte on the
/// socket (a 100 ms read times out); `flush` then delivers exactly `K`
/// `Submit` frames, in submit order; and one more submit followed by
/// `next_completion` reaches the server with no `flush`, because the client
/// writes its buffer before a read that would block. The fake server
/// answers only once it has read that submit, so a client that read first
/// would wait forever; a watchdog turns that into a failure.
#[test]
fn submits_leave_when_the_client_must_wait() {
    use std::io::{ErrorKind, Read};
    use std::sync::mpsc;
    const K: u32 = 5;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (to_server, server_rx) = mpsc::channel::<()>();
    let (to_client, client_rx) = mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let patient = Some(Duration::from_secs(10));
        sock.set_read_timeout(patient).unwrap();
        let next = |sock: &mut TcpStream| read_frame(sock, DEFAULT_MAX_FRAME).unwrap().0;
        let hello = next(&mut sock);
        assert!(
            matches!(hello, ReadEvent::Frame(Frame::Hello { .. })),
            "{hello:?}"
        );
        let server_hello = Frame::ServerHello {
            version: PROTO_VERSION,
            features: FEATURES,
            max_frame: DEFAULT_MAX_FRAME,
        };
        write_frame(&mut sock, &server_hello).unwrap();
        let nothing_more = |sock: &mut TcpStream, what: &str| {
            sock.set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            match sock.read(&mut [0u8; 1]) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                other => panic!("{what}: the socket read {other:?}"),
            }
            sock.set_read_timeout(patient).unwrap();
        };

        // K submits made, none flushed.
        server_rx.recv().unwrap();
        nothing_more(&mut sock, "a submit left before the client had to wait");
        to_client.send(()).unwrap();

        // The flush: exactly K submits, in order.
        let tenants: Vec<u32> = (0..K)
            .map(|_| match next(&mut sock) {
                ReadEvent::Frame(Frame::Submit(s)) => s.tenant,
                other => panic!("expected a Submit, got {other:?}"),
            })
            .collect();
        assert_eq!(tenants, (0..K).collect::<Vec<_>>());
        nothing_more(&mut sock, "flush wrote more than the K submits");
        to_client.send(()).unwrap();

        // One more submit, then next_completion: it must arrive unflushed.
        match next(&mut sock) {
            ReadEvent::Frame(Frame::Submit(s)) => assert_eq!(s.tenant, K),
            other => panic!("expected the last Submit, got {other:?}"),
        }
        let mut answers = Vec::new();
        for server_id in 0..=u64::from(K) {
            write_frame(
                &mut answers,
                &Frame::SubmitAck {
                    id: 100 + server_id,
                },
            )
            .unwrap();
        }
        let completion = Frame::Completion(CompletionFrame {
            id: 100 + u64::from(K),
            result: Err((error_code::UNKNOWN_HANDLE, "fake".into())),
        });
        write_frame(&mut answers, &completion).unwrap();
        sock.write_all(&answers).unwrap();
        // Hold the socket open until the client hangs up.
        while let Ok((ReadEvent::Frame(_), _)) = read_frame(&mut sock, DEFAULT_MAX_FRAME) {}
    });

    let (done_tx, done_rx) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap();
        for tenant in 0..K {
            client
                .submit(NetSubmit::new(1, 2).with_tenant(tenant))
                .unwrap();
        }
        to_server.send(()).unwrap();
        client_rx.recv().unwrap();
        client.flush().unwrap();
        client_rx.recv().unwrap();
        let last = client.submit(NetSubmit::new(1, 2).with_tenant(K)).unwrap();
        let done = client.next_completion().unwrap();
        done_tx.send((last, done)).unwrap();
    });
    let Ok((last, done)) = done_rx.recv_timeout(Duration::from_secs(10)) else {
        if server.is_finished() {
            server.join().unwrap();
        }
        panic!("next_completion read before it wrote the buffered submit");
    };
    assert_eq!(done.id, last);
    assert!(
        matches!(done.result, Err((error_code::UNKNOWN_HANDLE, _))),
        "{done:?}"
    );
    client.join().unwrap();
    server.join().unwrap();
}

/// What one pipelined submit must resolve to.
enum Want {
    /// Bit for bit what `a * b` (DetectCorrect) gives in process.
    Product(Matrix<f64>, Matrix<f64>),
    /// A failed completion with this code and a message containing this.
    Refused(u16, String),
}

/// One client pipelines stream and held submits, submits the server
/// refuses (a handle no longer resident, a deadline the admission model
/// finds infeasible), uploads and releases, without reading a single answer
/// or completion in between: every submit's answer is still unread when
/// the next frame goes out, except where an upload or release reads its
/// own. Afterwards every id resolves exactly once, the products are
/// bit-identical to in-process, and each refusal is its own id's failed
/// completion with the code and message a synchronous refusal carried.
#[test]
fn pipelined_mix_resolves_every_id_once() {
    let svc = service();
    // Same deterministic setup as `infeasible_deadline_is_a_wire_error`: a
    // 64^3 problem predicts ~52s, hopeless against 50ms.
    let flops = 2 * 64u64.pow(3);
    for _ in 0..4 {
        svc.seed_routing(RoutePath::Batched, flops, flops * 100_000);
    }
    let server = start(&svc, NetServerConfig::default());
    let mut client = NetClient::connect(server.addr()).unwrap();

    let a = Matrix::<f64>::random(64, 64, 60);
    let b = Matrix::<f64>::random(64, 64, 61);
    let ha = client.upload(&a).unwrap();
    let gone = client.upload(&b).unwrap();
    client.release(gone).unwrap();

    let mut want = std::collections::HashMap::new();
    let (mut held, mut streamed) = (Vec::new(), Vec::new());
    for i in 0..20u64 {
        let x = Matrix::<f64>::random(64, 64, 100 + i);
        // Each kind of refusal alternates between stream and hold delivery.
        let odd_round = i / 5 % 2 == 1;
        let (submit, hold, wanted) = match i % 5 {
            0 => (NetSubmit::new(ha, &x), false, Want::Product(a.clone(), x)),
            1 => (NetSubmit::new(&x, &b), true, Want::Product(x, b.clone())),
            2 => (
                NetSubmit::new(gone, &x),
                odd_round,
                Want::Refused(
                    error_code::UNKNOWN_HANDLE,
                    format!("operand handle {gone} is not resident"),
                ),
            ),
            3 => (
                NetSubmit::new(&x, &b).with_deadline(Duration::from_millis(50)),
                !odd_round,
                Want::Refused(error_code::DEADLINE_EXCEEDED, "infeasible".into()),
            ),
            _ => {
                // An upload and a release read their own answers past the
                // submit answers queued ahead of them.
                let hx = client.upload(&x).unwrap();
                let submit = NetSubmit::new(hx, ha);
                let id = client
                    .submit(submit.with_policy(FtPolicy::DetectCorrect))
                    .unwrap();
                client.release(hx).unwrap();
                assert!(want.insert(id, Want::Product(x, a.clone())).is_none());
                streamed.push(id);
                continue;
            }
        };
        let submit = submit.with_policy(FtPolicy::DetectCorrect);
        let id = client
            .submit(if hold { submit.held() } else { submit })
            .unwrap();
        assert!(want.insert(id, wanted).is_none(), "id {id} issued twice");
        if hold {
            held.push(id);
        } else {
            streamed.push(id);
        }
    }

    let mut resolved = std::collections::HashMap::new();
    // Held ids first, in reverse: answers and completions read on the way
    // are stashed for the stream half.
    for &id in held.iter().rev() {
        let done = client.wait(id).unwrap();
        assert_eq!(done.id, id);
        assert!(resolved.insert(id, done.result).is_none(), "id {id} twice");
    }
    for _ in 0..streamed.len() {
        let done = client.next_completion().unwrap();
        assert!(!held.contains(&done.id), "held id {} streamed", done.id);
        assert!(
            resolved.insert(done.id, done.result).is_none(),
            "id {} twice",
            done.id
        );
    }
    assert_eq!(resolved.len(), want.len());
    for (id, wanted) in want {
        let result = resolved
            .remove(&id)
            .unwrap_or_else(|| panic!("id {id} never resolved"));
        match (wanted, result) {
            (Want::Product(x, y), Ok(ok)) => {
                let expected = svc
                    .run(GemmRequest::new(x, y).with_policy(FtPolicy::DetectCorrect))
                    .unwrap();
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ok.data), bits(expected.c.as_slice()), "request {id}");
            }
            (Want::Refused(code, text), Err((got, message))) => {
                assert_eq!(got, code, "request {id}: {message}");
                assert!(message.contains(&text), "request {id}: {message}");
            }
            (Want::Product(..), Err(e)) => panic!("request {id} failed: {e:?}"),
            (Want::Refused(code, _), Ok(_)) => panic!("request {id} ran; wanted code {code}"),
        }
    }
    // Redeemed ids are gone, client-side as they were server-side.
    for id in [held[0], streamed[0]] {
        match client.wait(id) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, error_code::UNKNOWN_REQUEST),
            other => panic!("expected UNKNOWN_REQUEST for {id}, got {other:?}"),
        }
    }
}

/// A `Submit` frame carrying `a * b` inline (DetectCorrect, normal
/// priority, tenant 0), for tests that drive the codec directly.
fn inline_submit(a: &Matrix<f64>, b: &Matrix<f64>, hold: bool) -> Frame {
    let inline = |m: &Matrix<f64>| OperandRef::Inline {
        rows: m.nrows() as u32,
        cols: m.ncols() as u32,
        data: m.as_slice().to_vec(),
    };
    Frame::Submit(SubmitFrame {
        hold,
        policy: 2,
        priority: 1,
        tenant: 0,
        deadline_ns: 0,
        alpha: 1.0,
        beta: 0.0,
        a: inline(a),
        b: inline(b),
        c: None,
    })
}

/// The cap counts requests the service has not finished, not completions
/// the client has not read. A client with a cap of 2 submits 8 rounds of
/// 2 requests with 2 MB results and reads nothing, so the outbound thread
/// is soon blocked in a write with finished completions queued behind it;
/// each round is sent only once the service has finished the round before
/// (a second connection's identical request, queued behind them, has come
/// back). Every submit must still be admitted.
#[test]
fn in_flight_cap_ignores_completions_the_client_has_not_read() {
    const ROUNDS: usize = 8;
    const CAP: usize = 2;
    let svc = service();
    let server = start(
        &svc,
        NetServerConfig {
            max_in_flight: CAP,
            ..NetServerConfig::default()
        },
    );
    let mut quiet = NetClient::connect(server.addr()).unwrap();
    let mut probe = NetClient::connect(server.addr()).unwrap();
    let a = Matrix::<f64>::random(512, 8, 31);
    let b = Matrix::<f64>::random(8, 512, 32);

    for round in 1..=ROUNDS {
        for _ in 0..CAP {
            quiet.send(&inline_submit(&a, &b, false)).unwrap();
        }
        // Submitted so far: this connection's rounds plus one probe per
        // earlier round.
        let admitted = (round * CAP + round - 1) as u64;
        wait_until("the round's submits to be admitted", || {
            svc.stats().submitted >= admitted
        });
        probe.submit(NetSubmit::new(&a, &b)).unwrap();
        assert!(probe.next_completion().unwrap().result.is_ok());
    }

    let (mut acks, mut completions) = (0, 0);
    while acks < ROUNDS * CAP || completions < ROUNDS * CAP {
        match quiet.read_response().expect("a submit was refused") {
            Frame::SubmitAck { .. } => acks += 1,
            Frame::Completion(c) => {
                assert!(c.result.is_ok());
                completions += 1;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
}

/// A client that pipelines its whole workload before reading anything:
/// `requests` inline `dim`^3 submits written back to back, far past the
/// loopback socket buffers, and only then the acks and completions read.
/// With `hold`, every submit is hold-delivery and followed at once by a
/// `Wait` on its id, so the reader also has to get through `requests`
/// waits while the outbound thread is blocked writing to a client that is
/// not reading yet. The server can only take either if its reader never
/// depends on a socket write — responses pile up on the outbound side
/// while the reader keeps draining the receive side. A watchdog turns a
/// wedged connection into a failure instead of a hung suite.
fn pipeline_without_reading(requests: usize, dim: usize, hold: bool) {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let addr = server.addr();

    let b = Matrix::<f64>::random(dim, dim, 1000);
    let inputs: Vec<Matrix<f64>> = (0..requests)
        .map(|i| Matrix::<f64>::random(dim, dim, i as u64))
        .collect();
    let submits: Vec<Frame> = inputs.iter().map(|a| inline_submit(a, &b, hold)).collect();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let max_frame = ftgemm::net::proto::DEFAULT_MAX_FRAME;
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut raw,
            &Frame::Hello {
                version: PROTO_VERSION,
                features: 0,
            },
        )
        .unwrap();
        // This connection is the fresh service's only submitter, so its
        // request ids are 0, 1, 2, … — which is how a `Wait` can name an
        // id before the ack carrying it has been read.
        for (id, frame) in submits.iter().enumerate() {
            write_frame(&mut raw, frame).unwrap();
            if hold {
                write_frame(&mut raw, &Frame::Wait { id: id as u64 }).unwrap();
            }
        }
        // Only now start reading: the hello, then acks (in submit order)
        // and completions in whatever interleaving the server chose.
        let mut acked = Vec::new();
        let mut completed = std::collections::HashMap::new();
        let mut hello_seen = false;
        while acked.len() < requests || completed.len() < requests {
            match read_frame(&mut raw, max_frame).unwrap().0 {
                ReadEvent::Frame(Frame::ServerHello { .. }) => hello_seen = true,
                ReadEvent::Frame(Frame::SubmitAck { id }) => acked.push(id),
                ReadEvent::Frame(Frame::Completion(c)) => {
                    let ok = c.result.expect("request failed");
                    assert!(completed.insert(c.id, ok.data).is_none(), "duplicate");
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert!(hello_seen);
        done_tx.send((acked, completed)).unwrap();
    });
    let (acked, completed) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("pipelined connection wedged (or the client thread panicked)");
    client.join().unwrap();

    for (a, id) in inputs.into_iter().zip(acked) {
        let expected = svc
            .run(GemmRequest::new(a, b.clone()).with_policy(FtPolicy::DetectCorrect))
            .unwrap();
        assert_eq!(completed[&id], expected.c.as_slice(), "request {id}");
    }
}

/// 64 stream-delivery 96^3 submits (about 9 MB) before the first read.
#[test]
fn pipelined_writer_that_reads_nothing_until_the_end() {
    pipeline_without_reading(64, 96, false);
}

/// 60 hold-delivery 160^3 submits, each followed by its `Wait` (about
/// 25 MB in, 12 MB out) before the first read: leaving `Wait` must not
/// depend on the outbound thread, which by then is blocked in a write.
#[test]
fn pipelined_holds_and_waits_that_read_nothing_until_the_end() {
    pipeline_without_reading(60, 160, true);
}

/// Releasing someone else's (or a made-up) handle is refused.
#[test]
fn foreign_handle_release_is_refused() {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let m = Matrix::<f64>::random(8, 8, 22);

    let mut owner = NetClient::connect(server.addr()).unwrap();
    let h = owner.upload(&m).unwrap();

    let mut thief = NetClient::connect(server.addr()).unwrap();
    match thief.release(h) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, error_code::UNKNOWN_HANDLE),
        other => panic!("expected UNKNOWN_HANDLE, got {other:?}"),
    }
    // The owner's handle is untouched.
    let id = owner.submit(NetSubmit::new(h, h)).unwrap();
    assert!(owner.wait(id).unwrap().result.is_ok());
}

/// Answers no completion follows — the hello, an operand handle, an error,
/// a release — leave before the reader blocks on its next read. Nothing
/// else wakes the outbound thread for them: a reader that woke it only
/// after its next read returned would leave a client that waits for its
/// answer waiting for ever. The 512² upload takes the server a while to
/// answer (decode, copy, sum), so a wake sent when the frame was read
/// cannot pass for one sent after the answer was queued. A read timeout
/// turns a wedged answer into a failure.
#[test]
fn answers_leave_before_the_reader_blocks() {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut ask = |frame: Frame| {
        write_frame(&mut raw, &frame).unwrap();
        match read_frame(&mut raw, DEFAULT_MAX_FRAME) {
            Ok((ReadEvent::Frame(answer), _)) => answer,
            other => panic!(
                "no answer to {} before the reader blocked: {other:?}",
                frame.verb()
            ),
        }
    };

    let hello = ask(Frame::Hello {
        version: PROTO_VERSION,
        features: FEATURES,
    });
    assert!(matches!(hello, Frame::ServerHello { .. }), "{hello:?}");
    let m = Matrix::<f64>::random(512, 512, 23);
    let handle = match ask(Frame::UploadOperand {
        rows: 512,
        cols: 512,
        data: m.as_slice().to_vec(),
    }) {
        Frame::OperandHandle { handle, .. } => handle,
        other => panic!("expected OperandHandle, got {other:?}"),
    };
    match ask(Frame::Poll { id: 1 << 40 }) {
        Frame::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_REQUEST),
        other => panic!("expected UNKNOWN_REQUEST, got {other:?}"),
    }
    let released = ask(Frame::ReleaseHandle { handle });
    assert_eq!(released, Frame::Released { handle });
}

/// The Shutdown verb stops the whole server: Goodbye to the requester,
/// accept loop exits, `stop()` joins without hanging.
#[test]
fn shutdown_verb_stops_server() {
    let svc = service();
    let server = start(&svc, NetServerConfig::default());
    let client = NetClient::connect(server.addr()).unwrap();
    client.shutdown_server().unwrap();
    wait_until("accept loop to exit", || {
        TcpStream::connect(server.addr()).is_err() || {
            // The self-connect wake may still be in the backlog; any
            // connection made now is never serviced, so a read returns
            // EOF. Either observation proves the loop is gone.
            match TcpStream::connect(server.addr()) {
                Err(_) => true,
                Ok(mut s) => {
                    let _ = write_frame(
                        &mut s,
                        &Frame::Hello {
                            version: PROTO_VERSION,
                            features: 0,
                        },
                    );
                    matches!(read_frame(&mut s, 1024), Ok((ReadEvent::Eof, _)) | Err(_))
                }
            }
        }
    });
    server.stop();
}

/// The wire frontend's `(family, kind)` set in a real `/metrics` scrape is
/// a dashboard contract, like the service's `GOLDEN` in `obs_endpoint.rs`:
/// every `ftgemm_net_*` and `ftgemm_scrub_*` family the scrape holds once
/// the frontend has seen traffic must be exactly this list (the obs
/// endpoint renders the global registry into every exposition).
#[test]
fn net_metric_families_scrape() {
    let svc = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 2,
        obs_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServiceConfig::default()
    }));
    let server = start(&svc, NetServerConfig::default());

    // Generate traffic across the families: connect, upload, submit,
    // protocol error, release.
    let mut client = NetClient::connect(server.addr()).unwrap();
    let a = Matrix::<f64>::random(16, 16, 23);
    let h = client.upload(&a).unwrap();
    let id = client.submit(NetSubmit::new(h, h)).unwrap();
    client.wait(id).unwrap().result.unwrap();
    let _ = client.release(99_999).unwrap_err(); // protocol error counter
    client.release(h).unwrap();

    let obs = svc.obs_addr().expect("obs endpoint bound");
    let mut stream = TcpStream::connect(obs).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\nHost: ftgemm\r\n\r\n").unwrap();
    let mut body = String::new();
    use std::io::Read;
    stream.read_to_string(&mut body).unwrap();

    const GOLDEN: [(&str, &str); 14] = [
        ("ftgemm_net_bytes_in_total", "counter"),
        ("ftgemm_net_bytes_out_total", "counter"),
        ("ftgemm_net_connections", "gauge"),
        ("ftgemm_net_connections_total", "counter"),
        ("ftgemm_net_frames_in_total", "counter"),
        ("ftgemm_net_frames_out_total", "counter"),
        ("ftgemm_net_operand_evictions_total", "counter"),
        ("ftgemm_net_operand_handles", "gauge"),
        ("ftgemm_net_protocol_errors_total", "counter"),
        ("ftgemm_net_resident_operand_bytes", "gauge"),
        ("ftgemm_scrub_corrupted_total", "counter"),
        ("ftgemm_scrub_operands_verified_total", "counter"),
        ("ftgemm_scrub_passes_total", "counter"),
        ("ftgemm_scrub_quarantined", "gauge"),
    ];
    let scraped: BTreeSet<(&str, &str)> = body
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split_once(' '))
        .filter(|(family, _)| {
            family.starts_with("ftgemm_net_") || family.starts_with("ftgemm_scrub_")
        })
        .collect();
    assert_eq!(scraped, BTreeSet::from(GOLDEN));
}
