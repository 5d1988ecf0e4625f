//! The observability endpoint: a hand-rolled HTTP/1.0 server over
//! [`std::net`] (no async runtime — the environment is offline and the
//! serving stack's transport threads are plain threads anyway).
//!
//! One acceptor thread serves short-lived connections sequentially:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4),
//! * `GET /healthz` — liveness probe (`ok`),
//! * `GET /trace`   — recent request-lifecycle trace records.
//!
//! Responses always carry `Connection: close` + `Content-Length`, so any
//! HTTP client (or `curl`) can scrape it. Binding, the accept thread and
//! shutdown are [`AcceptLoop`]'s.

use crate::accept::AcceptLoop;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A route handler: produces the plaintext body for one scrape.
pub type Handler = Box<dyn Fn() -> String + Send + Sync>;

/// The route table an [`ObsServer`] serves.
pub struct ObsRoutes {
    /// Body of `GET /metrics` (Prometheus text exposition).
    pub metrics: Handler,
    /// Body of `GET /trace` (recent lifecycle records, plaintext).
    pub trace: Handler,
}

impl std::fmt::Debug for ObsRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRoutes").finish_non_exhaustive()
    }
}

/// The metrics/tracing endpoint server thread.
///
/// Binds eagerly (so a taken port fails at construction, not first
/// scrape); [`addr`](ObsServer::addr) reports the actual bound address —
/// bind to port `0` to let the OS pick one, the idiom every test here
/// uses. Dropping the server (or [`shutdown`](ObsServer::shutdown)) stops
/// the acceptor and joins it.
#[derive(Debug)]
pub struct ObsServer {
    accept: AcceptLoop,
}

/// Per-connection read cap: request lines + headers beyond this are
/// rejected (nothing legitimate scrapes with 8 KiB of headers).
const MAX_REQUEST_BYTES: usize = 8 * 1024;

impl ObsServer {
    /// Binds `addr` and starts the acceptor thread.
    pub fn bind(addr: SocketAddr, routes: ObsRoutes) -> std::io::Result<ObsServer> {
        // Sequential handling: scrapes are tiny and rare; a slow or
        // malicious client is bounded by the read timeout below.
        let accept = AcceptLoop::bind(addr, "ftgemm-obs-endpoint", move |stream, _| {
            let _ = handle_connection(stream, &routes);
        })?;
        Ok(ObsServer { accept })
    }

    /// The actually bound address (port resolved if `0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// Stops the acceptor and joins its thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.accept.shutdown();
    }
}

/// Reads the request head (through the blank line), routes, writes one
/// HTTP/1.0 response, closes.
fn handle_connection(mut stream: TcpStream, routes: &ObsRoutes) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head_complete(&buf) {
        if buf.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, 413, "text/plain", "request too large\n");
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(()); // client went away
        }
        #[expect(clippy::indexing_slicing, reason = "read returns n <= chunk.len()")]
        buf.extend_from_slice(&chunk[..n]);
    }

    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    // Ignore any query string: `/metrics?foo=1` still scrapes.
    let path = target.split('?').next().unwrap_or_default();

    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    crate::global_counter!(
        "ftgemm_obs_http_requests_total",
        "HTTP requests the observability endpoint handled (any route)."
    )
    .inc();
    match path {
        "/metrics" => {
            crate::global_counter!(
                "ftgemm_obs_scrapes_total",
                "Prometheus scrapes served (GET /metrics)."
            )
            .inc();
            let body = (routes.metrics)();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/trace" => {
            let body = (routes.trace)();
            respond(&mut stream, 200, "text/plain", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// The request head is complete once the blank line arrives.
fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Error",
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn test_server() -> ObsServer {
        ObsServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            ObsRoutes {
                metrics: Box::new(|| {
                    "# HELP ftgemm_t t\n# TYPE ftgemm_t gauge\nftgemm_t 1\n".into()
                }),
                trace: Box::new(|| "# tracelog: empty\n".into()),
            },
        )
        .expect("bind loopback")
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let code: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    #[test]
    fn serves_routes_and_404() {
        let server = test_server();
        let addr = server.addr();
        assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("ftgemm_t 1\n"));
        let (code, body) = get(addr, "/trace");
        assert_eq!(code, 200);
        assert!(body.starts_with("# tracelog"));
        assert_eq!(get(addr, "/nope").0, 404);
        // Query strings are ignored for routing.
        assert_eq!(get(addr, "/metrics?x=1").0, 200);
    }

    #[test]
    fn rejects_non_get() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
    }

    #[test]
    fn shutdown_joins_and_unbinds() {
        let mut server = test_server();
        let addr = server.addr();
        server.shutdown();
        server.shutdown(); // idempotent
                           // Port released (or at least no longer answered by our loop): a
                           // fresh bind to the same port should eventually succeed.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after shutdown");
    }

    #[test]
    fn drop_stops_the_server() {
        let addr = {
            let server = test_server();
            server.addr()
        };
        // After drop, connects may be refused or reset — but no handler
        // should answer with a 200 body anymore. Tolerate both failure
        // shapes (refused connect vs reset read).
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = write!(stream, "GET /healthz HTTP/1.0\r\n\r\n");
            let mut response = String::new();
            let _ = stream.read_to_string(&mut response);
            assert!(!response.contains("ok\n"), "server answered after drop");
        }
    }
}
