//! `NetServer`: TCP accept loop binding the wire protocol to a
//! [`GemmService`].
//!
//! Binding, the accept thread and stop-and-wake are `ftgemm-obs`'s
//! [`AcceptLoop`], shared with `ObsServer`: the listener binds eagerly in
//! [`NetServer::start`] (so the caller gets the bound address and any bind
//! error synchronously), and a wire `Shutdown` frame stops the loop through
//! the same [`StopHandle`](ftgemm_obs::StopHandle) the server itself uses.
//! Each accepted connection runs on its own reader thread plus one
//! outbound thread (see the `conn` module). The accept loop keeps a table
//! of live connections and reaps the finished ones — joins the thread,
//! closes the server's clone of the socket — every time it accepts, so the
//! table and the process's descriptor count follow the number of *open*
//! connections, not the number ever accepted. On shutdown the server
//! half-closes every live connection's socket and joins its thread, which
//! releases that connection's operand handles.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;

use parking_lot::Mutex;
use std::thread::{self, JoinHandle};

use ftgemm_obs::AcceptLoop;
use ftgemm_serve::GemmService;

use crate::conn::{handle_conn, ConnContext};
use crate::proto::DEFAULT_MAX_FRAME;
use crate::store::OperandStore;

/// Live connections: the accept-side socket clone (for shutdown wakeup)
/// plus the connection thread to join.
type ConnTable = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Tunables for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Largest accepted frame (length prefix); larger frames are drained
    /// and answered with a `FRAME_TOO_LARGE` error frame.
    pub max_frame: u32,
    /// Per-connection cap on unfinished submits; submits past it are
    /// answered with a `TOO_MANY_IN_FLIGHT` error frame.
    pub max_in_flight: usize,
    /// Byte budget of the server-resident operand store (LRU eviction
    /// past it).
    pub operand_budget: u64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
            max_in_flight: 64,
            operand_budget: 256 * 1024 * 1024,
        }
    }
}

/// Handle to a running wire frontend. Stops (and joins every connection)
/// on [`stop`](NetServer::stop) or drop.
pub struct NetServer {
    accept: AcceptLoop,
    store: Arc<OperandStore>,
    conns: ConnTable,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// starts the accept loop against `service`. Binding happens in the
    /// caller's thread, so the returned server's [`addr`](Self::addr) is
    /// immediately connectable.
    pub fn start(
        service: Arc<GemmService<f64>>,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        crate::metrics::register_all();
        let store = Arc::new(OperandStore::new(config.operand_budget));
        let conns: ConnTable = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let store = Arc::clone(&store);
            let conns = Arc::clone(&conns);
            AcceptLoop::bind(addr, "ftgemm-net-accept", move |stream, stop| {
                // Acks and pushed completions are latency-sensitive;
                // don't let Nagle hold them behind unacked segments.
                let _ = stream.set_nodelay(true);
                let Ok(peer) = stream.try_clone() else {
                    return;
                };
                let ctx = ConnContext {
                    service: Arc::clone(&service),
                    store: Arc::clone(&store),
                    max_frame: config.max_frame,
                    max_in_flight: config.max_in_flight,
                    stop: stop.clone(),
                };
                let handle = thread::spawn(move || handle_conn(stream, ctx));
                let mut table = conns.lock();
                reap_finished(&mut table);
                table.push((peer, handle));
            })?
        };
        Ok(NetServer {
            accept,
            store,
            conns,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// The server-resident operand store (shared by all connections).
    /// Exposed for budget/leak assertions in tests and benches.
    pub fn store(&self) -> &Arc<OperandStore> {
        &self.store
    }

    /// Stops the accept loop, closes every live connection, and joins all
    /// threads. Idempotent via the stop flag; also runs on drop.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.accept.shutdown();
        let conns = std::mem::take(&mut *self.conns.lock());
        for (stream, handle) in conns {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Joins every connection thread that has already returned and drops the
/// server's clone of its socket; live connections stay in the table.
fn reap_finished(table: &mut Vec<(TcpStream, JoinHandle<()>)>) {
    for (_peer, handle) in table.extract_if(.., |(_, handle)| handle.is_finished()) {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetClient;
    use ftgemm_serve::ServiceConfig;
    use std::time::{Duration, Instant};

    /// Connection churn must not grow the server: a finished connection
    /// leaves the table (its thread joined, the server's clone of its
    /// socket closed) at the next accept.
    #[test]
    fn finished_connections_are_reaped_under_churn() {
        let service = Arc::new(GemmService::new(ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        }));
        let server = NetServer::start(service, "127.0.0.1:0", NetServerConfig::default())
            .expect("bind wire frontend");
        let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                thread::sleep(Duration::from_millis(2));
            }
        };

        let mut deepest = 0;
        for _ in 0..300 {
            drop(NetClient::connect(server.addr()).expect("connect + hello"));
            deepest = deepest.max(server.conns.lock().len());
        }
        // An entry waits for the accept after its thread returned, and a
        // thread whose client just left may not have returned yet, so a
        // few linger — a few, not one per connection ever accepted.
        assert!(deepest <= 32, "table grew to {deepest} entries");

        // Once every thread has returned, one more accept leaves the table
        // holding that connection alone.
        wait_until("connection threads to return", &|| {
            server.conns.lock().iter().all(|(_, h)| h.is_finished())
        });
        let _last = NetClient::connect(server.addr()).expect("connect + hello");
        wait_until("the last accept to reap", &|| {
            server.conns.lock().len() == 1
        });
    }
}
