//! What an open wire connection costs in threads: exactly two — its reader
//! and its outbound thread. This file holds one test and nothing else, so
//! the process's task count moves only when this test moves it.
#![cfg(target_os = "linux")]

use ftgemm::net::{NetClient, NetServer, NetServerConfig};
use ftgemm::serve::{GemmService, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_connection_costs_two_threads_and_returns_them() {
    const CONNECTIONS: usize = 8;
    let service = Arc::new(GemmService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    }));
    let server = NetServer::start(service, "127.0.0.1:0", NetServerConfig::default())
        .expect("bind wire frontend");
    // Pools, dispatcher and accept thread are all up once `start` returns.
    let baseline = live_threads();

    // `connect` returns after the hello round trip, which the reader
    // decoded and the outbound thread answered: both exist by then.
    let clients: Vec<NetClient> = (0..CONNECTIONS)
        .map(|_| NetClient::connect(server.addr()).expect("connect + hello"))
        .collect();
    assert_eq!(
        live_threads(),
        baseline + 2 * CONNECTIONS,
        "{CONNECTIONS} open connections"
    );

    // Closing is seen by each reader at its next read; the threads leave
    // on their own, no accept needed.
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    while live_threads() != baseline {
        assert!(
            Instant::now() < deadline,
            "{} threads still alive over the baseline of {baseline}",
            live_threads() - baseline
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
