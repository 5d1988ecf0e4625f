//! Wire-frontend walkthrough: start a `NetServer` on a loopback port,
//! connect a `NetClient`, and drive the whole protocol surface — operand
//! upload with reuse handles, handle-based and inline submits, completions
//! taken as they arrive or waited for by id, and handle release.
//!
//! The server is plain `std::net` (no async runtime): one accept loop,
//! a reader and an outbound thread per connection, bridging frames onto
//! the same `GemmService` the in-process examples use. The client
//! pipelines: a submit returns without waiting for the server's ack, and
//! its frame waits in the client's write buffer until the client must wait
//! for the server (a read that would block, or a call that sends a frame of
//! its own, such as `upload` or `release`) or `flush` is called; a burst of
//! submits leaves in one write. Uploaded
//! operands stay server-resident behind ref-counted handles, so a client
//! that re-fires against the same matrices ships 16 bytes per submit
//! instead of two full operands.
//!
//! ```sh
//! cargo run --release --example net_serving
//! ```

use ftgemm::net::{NetClient, NetServer, NetServerConfig, NetSubmit};
use ftgemm::serve::{FtPolicy, GemmService, ServiceConfig};
use ftgemm::Matrix;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // The compute plane: an ordinary in-process service...
    let service = Arc::new(GemmService::<f64>::new(ServiceConfig {
        threads: 4,
        max_batch: 8,
        ..ServiceConfig::default()
    }));
    // ...and the wire frontend bound on it. Port 0 asks the OS for a free
    // port; addr() reports where it landed.
    let server = NetServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind");
    println!("wire frontend live at {}\n", server.addr());

    let mut client = NetClient::connect(server.addr()).expect("connect");
    println!("negotiated feature bits: {:#b}", client.features());

    // Upload once, submit many: A and B become server-resident handles.
    let a = Matrix::<f64>::random(96, 96, 1);
    let b = Matrix::<f64>::random(96, 96, 2);
    let ha = client.upload(&a).expect("upload A");
    let hb = client.upload(&b).expect("upload B");
    println!("uploaded operands: A -> handle {ha}, B -> handle {hb}");

    // The server pushes each completion as its request finishes;
    // next_completion() takes them in arrival order.
    let n = 8;
    for _ in 0..n {
        client
            .submit(NetSubmit::new(ha, hb).with_policy(FtPolicy::DetectCorrect))
            .expect("submit");
    }
    let mut checked = 0;
    for _ in 0..n {
        let c = client.next_completion().expect("completion");
        let ok = c.result.expect("request failed");
        let out = ok.to_matrix();
        assert_eq!((out.nrows(), out.ncols()), (96, 96));
        checked += 1;
    }
    println!("{checked} handle-based submits completed over the wire");

    // wait(id) takes one request's completion, out of arrival order: the
    // client stashes the others it reads on the way. Inline operands work
    // too — no upload needed.
    let small_a = Matrix::<f64>::random(32, 32, 3);
    let small_b = Matrix::<f64>::random(32, 32, 4);
    let first = client
        .submit(NetSubmit::new(&small_a, &small_b).with_deadline(Duration::from_secs(30)))
        .expect("submit inline");
    let second = client.submit(NetSubmit::new(ha, hb)).expect("submit");
    let report = client
        .wait(second)
        .expect("wait")
        .result
        .expect("request failed");
    println!(
        "submit {second} waited for first (verifications: {})",
        report.report().verifications
    );
    let report = client
        .wait(first)
        .expect("wait")
        .result
        .expect("request failed");
    println!(
        "inline submit {first} done (verifications: {})",
        report.report().verifications
    );

    // Handles are ref-counted server state: release them when done. A
    // dropped connection releases its handles automatically.
    client.release(ha).expect("release A");
    client.release(hb).expect("release B");
    println!(
        "handles released; server-resident bytes now {}",
        server.store().resident_bytes()
    );

    server.stop();
    println!("server stopped");
}
