//! `NetClient`: a blocking client for the wire protocol, used by the
//! tests, the example, and the repo benchmark's `wire_small` workload.
//!
//! One TCP connection, pipelined both ways. [`NetClient::submit`] appends
//! its frame to the connection's write buffer and returns at once, with an
//! id the client assigns itself; it neither writes nor waits for the
//! server's answer. The buffer leaves in one write when the client must
//! wait for the server: before a read that may block (the read buffer does
//! not hold a whole frame), in every call that sends a frame of its own
//! (`upload`, `release`, `shutdown_server`, `send`), in
//! [`NetClient::flush`], and on drop. It also leaves once it
//! holds a server turn's worth of bytes, so it stays bounded. A closed loop
//! that refills its window as completions arrive thus makes one write per
//! burst of submits, not one per request. Reads take in up to one server
//! turn at a time, and a frame that arrived whole is decoded where it
//! landed.
//!
//! The server answers a connection's frames strictly in order, each
//! `Submit` with one `SubmitAck` or one `Error`, and an ack always before
//! its own completion. So whichever call reads next takes those answers
//! off the front of a FIFO of unanswered submits as it meets them: an ack
//! maps the server's id to the client's, and an `Error` becomes that id's
//! completion, `Err((code, message))`, the same shape as a request that
//! failed in the service.
//!
//! Every id this client hands out or takes is its own: from `submit`, in
//! completions, and to [`NetClient::wait`]. `upload`, `release` and
//! `shutdown_server` send one frame and read until its answer, taking in
//! the submit answers queued ahead of it. Completions arrive whenever
//! requests finish; the read loop stashes them, and [`NetClient::wait`] and
//! [`NetClient::next_completion`] consume the stash first. `wait` on an id
//! never issued, or already handed out, is
//! [`ClientError::NotOutstanding`], answered without asking the server.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ftgemm_abft::FtPolicy;
use ftgemm_core::Matrix;

use crate::codec::{
    encode_into, encode_upload_into, take_frame, whole_frame, ReadEvent, TURN_BYTES,
};
use crate::proto::{
    CompletionFrame, Frame, OperandRef, SubmitFrame, DEFAULT_MAX_FRAME, FEATURES, PROTO_VERSION,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The server answered the call's own frame with an error frame (a
    /// refused submit is a failed completion instead).
    Server { id: u64, code: u16, message: String },
    /// [`NetClient::wait`] on an id this client never issued or has
    /// already handed out; no frame was sent or read.
    NotOutstanding(u64),
    /// The server violated the protocol (malformed frame, oversized
    /// frame, or a response of the wrong type).
    Protocol(String),
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server { id, code, message } => {
                write!(f, "server error {code} (request {id}): {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::NotOutstanding(id) => {
                write!(f, "request {id} is not outstanding on this client")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Builder for one wire submit; mirrors `GemmRequest`'s surface.
#[derive(Debug, Clone)]
pub struct NetSubmit {
    a: OperandRef,
    b: OperandRef,
    c: Option<(u32, u32, Vec<f64>)>,
    alpha: f64,
    beta: f64,
    policy: FtPolicy,
    deadline: Option<Duration>,
}

impl NetSubmit {
    /// `C = A*B` against two operands (inline matrices or uploaded
    /// handles), default policy, no deadline.
    pub fn new(a: impl Into<OperandRef>, b: impl Into<OperandRef>) -> Self {
        NetSubmit {
            a: a.into(),
            b: b.into(),
            c: None,
            alpha: 1.0,
            beta: 0.0,
            policy: FtPolicy::default(),
            deadline: None,
        }
    }

    /// Supplies the input/output `C` and its scale.
    #[must_use]
    pub fn with_c(mut self, beta: f64, c: &Matrix<f64>) -> Self {
        self.beta = beta;
        self.c = Some((c.nrows() as u32, c.ncols() as u32, c.as_slice().to_vec()));
        self
    }

    /// Sets `alpha`.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the fault-tolerance policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FtPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets a relative completion deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    fn into_frame(self) -> SubmitFrame {
        SubmitFrame {
            // Reserved; the server refuses any other value.
            hold: false,
            policy: match self.policy {
                FtPolicy::Off => 0,
                FtPolicy::Detect => 1,
                FtPolicy::DetectCorrect => 2,
            },
            // Reserved fields: the service keeps one FIFO queue.
            priority: 1,
            tenant: 0,
            deadline_ns: self.deadline.map_or(0, |d| d.as_nanos() as u64),
            alpha: self.alpha,
            beta: self.beta,
            a: self.a,
            b: self.b,
            c: self.c,
        }
    }
}

impl From<&Matrix<f64>> for OperandRef {
    fn from(m: &Matrix<f64>) -> Self {
        OperandRef::inline(m)
    }
}

impl From<u64> for OperandRef {
    fn from(handle: u64) -> Self {
        OperandRef::Handle(handle)
    }
}

/// Write-buffer capacity kept from one write to the next: room for about a
/// thousand by-handle submits. A buffer an upload or inline operands grew
/// past it is let go once written, so it does not stay resident.
const KEPT_OUT_BYTES: usize = 64 * 1024;

/// Blocking wire-protocol client. See the module docs.
pub struct NetClient {
    /// The connection, read through a buffer of one server turn; written
    /// through `&TcpStream`.
    reader: BufReader<TcpStream>,
    /// Frames encoded back to back and not written yet.
    out: Vec<u8>,
    /// The buffer a frame's body is read into when it did not arrive whole.
    body: Vec<u8>,
    max_frame: u32,
    features: u32,
    /// The id the next submit gets.
    next_id: u64,
    /// Submits whose answer has not been read, oldest first.
    unanswered: VecDeque<u64>,
    /// Admitted submits still running: server id -> id.
    streams: HashMap<u64, u64>,
    /// Finished submits not yet handed out, in arrival order.
    stash: VecDeque<CompletionFrame>,
}

impl NetClient {
    /// Connects and performs the Hello / ServerHello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // The client coalesces its frames itself and writes only when it
        // must wait for an answer: a burst written while the previous
        // burst's segment is unacknowledged must not then wait in Nagle's
        // buffer for that acknowledgement too.
        stream.set_nodelay(true)?;
        let mut client = NetClient {
            reader: BufReader::with_capacity(TURN_BYTES, stream),
            out: Vec::new(),
            body: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
            features: 0,
            next_id: 0,
            unanswered: VecDeque::new(),
            streams: HashMap::new(),
            stash: VecDeque::new(),
        };
        client.send(&Frame::Hello {
            version: PROTO_VERSION,
            features: FEATURES,
        })?;
        match client.read_response()? {
            Frame::ServerHello { features, .. } => {
                client.features = features;
                Ok(client)
            }
            other => Err(unexpected("ServerHello", &other)),
        }
    }

    /// The feature set negotiated at connect time.
    pub fn features(&self) -> u32 {
        self.features
    }

    /// Uploads a matrix; returns its server-resident handle. The frame is
    /// encoded from `m` itself, not from a copy of it.
    pub fn upload(&mut self, m: &Matrix<f64>) -> Result<u64, ClientError> {
        let (rows, cols) = (m.nrows() as u32, m.ncols() as u32);
        encode_upload_into(&mut self.out, rows, cols, m.as_slice())?;
        self.flush()?;
        match self.reply()? {
            Frame::OperandHandle { handle, .. } => Ok(handle),
            other => Err(unexpected("OperandHandle", &other)),
        }
    }

    /// Submits one GEMM and returns at once, without reading its answer;
    /// the id is this client's own. The frame waits in the write buffer
    /// until the client must wait (see the module docs) or
    /// [`flush`](Self::flush) is called. A refused submit is not an error
    /// here: its refusal is the id's completion, `Err((code, message))`.
    pub fn submit(&mut self, submit: NetSubmit) -> Result<u64, ClientError> {
        if self.out.len() >= TURN_BYTES {
            self.flush()?;
        }
        encode_into(&mut self.out, &Frame::Submit(submit.into_frame()))?;
        let id = self.next_id;
        self.next_id += 1;
        self.unanswered.push_back(id);
        Ok(id)
    }

    /// Blocks until request `id` finishes, reading it off the connection
    /// (completions for other requests are stashed).
    pub fn wait(&mut self, id: u64) -> Result<CompletionFrame, ClientError> {
        loop {
            if let Some(pos) = self.stash.iter().position(|c| c.id == id) {
                #[expect(clippy::unwrap_used, reason = "position found pos in the stash")]
                return Ok(self.stash.remove(pos).unwrap());
            }
            let running = self.unanswered.contains(&id) || self.streams.values().any(|&c| c == id);
            if !running {
                return Err(ClientError::NotOutstanding(id));
            }
            self.take_in()?;
        }
    }

    /// The next completion, in arrival order.
    pub fn next_completion(&mut self) -> Result<CompletionFrame, ClientError> {
        loop {
            if let Some(c) = self.stash.pop_front() {
                return Ok(c);
            }
            self.take_in()?;
        }
    }

    /// Releases a server-resident operand handle.
    pub fn release(&mut self, handle: u64) -> Result<(), ClientError> {
        self.send(&Frame::ReleaseHandle { handle })?;
        match self.reply()? {
            Frame::Released { handle: got } if got == handle => Ok(()),
            other => Err(unexpected("Released", &other)),
        }
    }

    /// Asks the server to shut down (accept loop and all connections);
    /// consumes the client.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.send(&Frame::Shutdown)?;
        match self.reply()? {
            Frame::Goodbye => Ok(()),
            other => Err(unexpected("Goodbye", &other)),
        }
    }

    /// Sends a raw frame, after whatever the write buffer holds, without
    /// awaiting a response. Public for protocol robustness tests; pair with
    /// [`read_response`](Self::read_response). Neither keeps the submit
    /// bookkeeping: a raw `Submit` is not this client's, and its answer
    /// must be read raw too.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        encode_into(&mut self.out, frame)?;
        self.flush()
    }

    /// Writes every buffered frame to the socket in one piece. The client
    /// does this itself whenever it must wait for the server, so a caller
    /// needs it only to get submits on their way while it does something
    /// else.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.reader.get_ref().write_all(&self.out);
        self.out.clear();
        if self.out.capacity() > KEPT_OUT_BYTES {
            self.out = Vec::new();
        }
        Ok(written?)
    }

    /// Reads one frame that must be a submit's answer or a completion, and
    /// files it.
    fn take_in(&mut self) -> Result<(), ClientError> {
        match self.read_answer()? {
            None => Ok(()),
            Some(other) => Err(unexpected("SubmitAck/Error/Completion", &other)),
        }
    }

    /// Reads until the answer to the caller's own request arrives.
    fn reply(&mut self) -> Result<Frame, ClientError> {
        loop {
            if let Some(frame) = self.read_answer()? {
                return Ok(frame);
            }
        }
    }

    /// Reads one frame. The server answers a connection's frames in order,
    /// so while submits are unanswered an ack or an error frame answers the
    /// oldest of them: an ack maps the server's id to the submit's, and an
    /// error becomes the submit's completion. Those, and completions, are
    /// filed under this client's ids and give `None`. Anything else is
    /// the answer to the caller's own request; an error frame as
    /// [`ClientError::Server`].
    fn read_answer(&mut self) -> Result<Option<Frame>, ClientError> {
        let answer = match self.read_frame()? {
            Frame::SubmitAck { id } => Ok(id),
            Frame::Error { id, code, message } => Err((id, code, message)),
            Frame::Completion(c) => {
                let Some(id) = self.streams.remove(&c.id) else {
                    return Ok(Some(Frame::Completion(c)));
                };
                self.stash.push_back(CompletionFrame { id, ..c });
                return Ok(None);
            }
            other => return Ok(Some(other)),
        };
        let Some(id) = self.unanswered.pop_front() else {
            return Err(match answer {
                Ok(server) => {
                    ClientError::Protocol(format!("SubmitAck {server} with no submit unanswered"))
                }
                Err((id, code, message)) => ClientError::Server { id, code, message },
            });
        };
        match answer {
            Ok(server) => {
                self.streams.insert(server, id);
            }
            Err((_, code, message)) => self.stash.push_back(CompletionFrame {
                id,
                result: Err((code, message)),
            }),
        }
        Ok(None)
    }

    /// Reads the next frame, turning server error frames into
    /// [`ClientError::Server`]. Public counterpart of [`send`](Self::send).
    pub fn read_response(&mut self) -> Result<Frame, ClientError> {
        match self.read_frame()? {
            Frame::Error { id, code, message } => Err(ClientError::Server { id, code, message }),
            other => Ok(other),
        }
    }

    /// Reads the next frame, writing the buffered frames first unless that
    /// frame is whole in the read buffer already: a read that may block
    /// must not wait for an answer to frames the server has not been sent.
    fn read_frame(&mut self) -> Result<Frame, ClientError> {
        if whole_frame(self.reader.buffer()).is_none() {
            self.flush()?;
        }
        let (event, _) = take_frame(&mut self.reader, self.max_frame, &mut self.body)?;
        match event {
            ReadEvent::Frame(f) => Ok(f),
            ReadEvent::Eof => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            ReadEvent::TooLarge { len } => Err(ClientError::Protocol(format!(
                "server sent oversized frame of {len} bytes"
            ))),
            ReadEvent::Malformed(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }
}

impl Drop for NetClient {
    /// Writes what the buffer still holds, so a dropped client's submits
    /// reach the server; a write that fails is the connection's end anyway.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn unexpected(wanted: &str, got: &Frame) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got verb {}", got.verb()))
}
