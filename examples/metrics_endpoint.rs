//! Observability walkthrough: run a service with the `/metrics` endpoint
//! live, push traffic through it, and scrape yourself over plain TCP —
//! the same bytes Prometheus would collect.
//!
//! `ServiceConfig::obs_addr` is all it takes: the service binds a tiny
//! HTTP/1.0 listener (std::net, no framework) serving the Prometheus text
//! exposition at `/metrics`, a liveness probe at `/healthz`, and the
//! request-lifecycle trace rings at `/trace`. Port 0 asks the OS for a
//! free port; `GemmService::obs_addr` reports the resolved address.
//!
//! ```sh
//! cargo run --release --example metrics_endpoint
//! ```

use ftgemm::serve::{FtPolicy, GemmRequest, GemmService, ServiceConfig};
use ftgemm::{FaultInjector, Matrix};
use std::io::{Read, Write};
use std::net::TcpStream;

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    raw.split_once("\r\n\r\n").expect("body").1.to_string()
}

fn main() {
    let service = GemmService::<f64>::new(ServiceConfig {
        threads: 4,
        max_batch: 8,
        obs_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServiceConfig::default()
    });
    let addr = service.obs_addr().expect("endpoint bound");
    println!("metrics endpoint live at http://{addr}/metrics\n");

    // Traffic: a burst of small GEMMs, some carrying fault injectors so the
    // ABFT counter families have something to say.
    let mut handles = Vec::new();
    for i in 0..64u64 {
        let a = Matrix::<f64>::random(64, 64, i);
        let b = Matrix::<f64>::random(64, 64, i + 500);
        let mut req = GemmRequest::new(a, b).with_policy(FtPolicy::DetectCorrect);
        if i % 8 == 0 {
            req = req.with_injector(FaultInjector::counted(i, 1));
        }
        handles.push(service.submit(req).expect("submit"));
    }
    for h in handles {
        h.wait().expect("request");
    }

    println!("healthz: {}", get(addr, "/healthz").trim());

    // The scrape, filtered to the headline families (the full body carries
    // every StatsSnapshot field; each family explains itself in its # HELP
    // line, and the names are pinned by GOLDEN in tests/obs_endpoint.rs).
    let metrics = get(addr, "/metrics");
    println!("\n-- selected /metrics families --");
    for line in metrics.lines() {
        if line.starts_with("ftgemm_requests_")
            || line.starts_with("ftgemm_ft_")
            || line.starts_with("ftgemm_request_turnaround_seconds_count")
            || line.starts_with("ftgemm_abft_corrected_total")
        {
            println!("{line}");
        }
    }

    // The last few lifecycle trace records: admitted → queued →
    // dispatched(path) → computed → completed, per request.
    println!("\n-- tail of /trace --");
    let trace = get(addr, "/trace");
    for line in trace.lines().rev().take(8).collect::<Vec<_>>().iter().rev() {
        println!("{line}");
    }
}
