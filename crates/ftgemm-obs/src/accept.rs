//! The accept-loop skeleton every TCP server in the workspace is built on
//! ([`ObsServer`](crate::ObsServer) here, `NetServer` in `ftgemm-net`).
//!
//! The listener binds eagerly in the caller's thread, so the caller gets
//! the bound address — and any bind error — synchronously. One background
//! thread accepts connections and hands each stream to the server's
//! closure. Stopping raises the stop cell and then connects to the
//! listener's own address, which is what gets a thread parked in
//! `accept()` to look at the cell. A [`StopHandle`] lets anything that can
//! end the server (a wire `Shutdown` frame, say) do exactly that without
//! owning it.

// Concurrency contract (checked by `scripts/orderings.sh`): `stop`
// is the one shutdown publication cell of every server built on this
// module — Release store in `StopHandle::stop`, Acquire loads in the accept
// loop and in `StopHandle::is_stopped`, so a thread that observes the flag
// also observes everything the stopping thread wrote before raising it.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Cloneable handle that stops the [`AcceptLoop`] it came from.
#[derive(Debug, Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Raises the stop cell and wakes the accept thread. Idempotent; does
    /// not wait for the thread (that is [`AcceptLoop::shutdown`]).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // A throwaway connection: the blocked `accept()` returns, the loop
        // sees the cell and exits.
        let _ = TcpStream::connect(self.addr);
    }

    /// True once [`stop`](Self::stop) has been called on any clone.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A bound listener plus the thread accepting on it. Dropping it (or
/// [`shutdown`](AcceptLoop::shutdown)) stops the thread and joins it.
#[derive(Debug)]
pub struct AcceptLoop {
    stop: StopHandle,
    thread: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Binds `addr` (port `0` lets the OS pick) and starts a thread named
    /// `thread_name` that calls `on_stream` with every accepted
    /// connection, one at a time, until stopped. The closure also gets the
    /// loop's own stop handle, to clone into whatever may end the server.
    pub fn bind(
        addr: impl ToSocketAddrs,
        thread_name: &str,
        mut on_stream: impl FnMut(TcpStream, &StopHandle) + Send + 'static,
    ) -> io::Result<AcceptLoop> {
        let listener = TcpListener::bind(addr)?;
        let stop = StopHandle {
            stop: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        };
        let seen = stop.clone();
        let thread = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || {
                for incoming in listener.incoming() {
                    if seen.is_stopped() {
                        break;
                    }
                    if let Ok(stream) = incoming {
                        on_stream(stream, &seen);
                    }
                }
            })?;
        Ok(AcceptLoop {
            stop,
            thread: Some(thread),
        })
    }

    /// The actually bound address (port resolved if `0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// Stops the accept thread and joins it. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.stop();
            let _ = thread.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}
