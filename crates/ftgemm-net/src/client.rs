//! `NetClient`: a blocking client for the wire protocol, used by the
//! tests, the example, and the repo benchmark's `wire_small` workload.
//!
//! One TCP connection, synchronous transactions: each call sends a frame
//! and reads until its response arrives. Stream-delivery completions can
//! arrive at any point (the server pushes them as requests finish), so
//! the read loop stashes any [`Frame::Completion`] that is not the
//! response being awaited; [`NetClient::wait`] and
//! [`NetClient::next_completion`] consume the stash first.

use std::collections::{HashSet, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ftgemm_abft::FtPolicy;
use ftgemm_core::Matrix;
use ftgemm_serve::{Priority, TenantId, DEFAULT_TENANT};

use crate::codec::{read_frame, write_frame, ReadEvent};
use crate::proto::{
    CompletionFrame, Frame, OperandRef, SubmitFrame, DEFAULT_MAX_FRAME, FEATURES, PROTO_VERSION,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The server answered with an error frame.
    Server { id: u64, code: u16, message: String },
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
    priority: Priority,
    tenant: TenantId,
    deadline: Option<Duration>,
    hold: bool,
}

impl NetSubmit {
    /// `C = A*B` against two operands (inline matrices or uploaded
    /// handles), stream delivery, default policy/QoS.
    pub fn new(a: impl Into<OperandRef>, b: impl Into<OperandRef>) -> Self {
        NetSubmit {
            a: a.into(),
            b: b.into(),
            c: None,
            alpha: 1.0,
            beta: 0.0,
            policy: FtPolicy::default(),
            priority: Priority::default(),
            tenant: DEFAULT_TENANT,
            deadline: None,
            hold: false,
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

    /// Tags the owning tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a relative completion deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Hold delivery: the server parks the completion for
    /// [`NetClient::poll`] / [`NetClient::wait`] instead of pushing it.
    #[must_use]
    pub fn held(mut self) -> Self {
        self.hold = true;
        self
    }

    fn into_frame(self) -> SubmitFrame {
        SubmitFrame {
            hold: self.hold,
            policy: match self.policy {
                FtPolicy::Off => 0,
                FtPolicy::Detect => 1,
                FtPolicy::DetectCorrect => 2,
            },
            priority: match self.priority {
                Priority::High => 0,
                Priority::Normal => 1,
                Priority::Low => 2,
            },
            tenant: self.tenant,
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

/// Blocking wire-protocol client. See the module docs.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: u32,
    features: u32,
    /// Stream-delivery completions that arrived while awaiting another
    /// response.
    stash: VecDeque<CompletionFrame>,
    /// Ids submitted with hold delivery (wait must ask, not drain).
    held: HashSet<u64>,
}

impl NetClient {
    /// Connects and performs the Hello / ServerHello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Small request/ack frames must not sit in Nagle's buffer behind
        // an unacked segment — every submit is a round trip.
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let mut client = NetClient {
            reader: BufReader::new(stream),
            writer,
            max_frame: DEFAULT_MAX_FRAME,
            features: 0,
            stash: VecDeque::new(),
            held: HashSet::new(),
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

    /// Uploads a matrix; returns its server-resident handle.
    pub fn upload(&mut self, m: &Matrix<f64>) -> Result<u64, ClientError> {
        self.send(&Frame::UploadOperand {
            rows: m.nrows() as u32,
            cols: m.ncols() as u32,
            data: m.as_slice().to_vec(),
        })?;
        match self.read_transaction()? {
            Frame::OperandHandle { handle, .. } => Ok(handle),
            other => Err(unexpected("OperandHandle", &other)),
        }
    }

    /// Submits one GEMM; returns the server-assigned request id.
    pub fn submit(&mut self, submit: NetSubmit) -> Result<u64, ClientError> {
        let hold = submit.hold;
        self.send(&Frame::Submit(submit.into_frame()))?;
        match self.read_transaction()? {
            Frame::SubmitAck { id } => {
                if hold {
                    self.held.insert(id);
                }
                Ok(id)
            }
            other => Err(unexpected("SubmitAck", &other)),
        }
    }

    /// Blocks until request `id` finishes. Hold-delivery ids are waited
    /// server-side; stream-delivery ids are drained off the connection
    /// (completions for other requests are stashed).
    pub fn wait(&mut self, id: u64) -> Result<CompletionFrame, ClientError> {
        if let Some(pos) = self.stash.iter().position(|c| c.id == id) {
            return Ok(self.stash.remove(pos).unwrap());
        }
        if self.held.remove(&id) {
            self.send(&Frame::Wait { id })?;
        }
        loop {
            match self.read_response()? {
                Frame::Completion(c) if c.id == id => return Ok(c),
                Frame::Completion(c) => self.stash.push_back(c),
                other => return Err(unexpected("Completion", &other)),
            }
        }
    }

    /// Non-blocking check of a hold-delivery request.
    pub fn poll(&mut self, id: u64) -> Result<Option<CompletionFrame>, ClientError> {
        self.send(&Frame::Poll { id })?;
        loop {
            match self.read_response()? {
                Frame::Pending { id: got } if got == id => return Ok(None),
                Frame::Completion(c) if c.id == id => {
                    self.held.remove(&id);
                    return Ok(Some(c));
                }
                Frame::Completion(c) => self.stash.push_back(c),
                other => return Err(unexpected("Pending/Completion", &other)),
            }
        }
    }

    /// The next stream-delivery completion, in arrival order.
    pub fn next_completion(&mut self) -> Result<CompletionFrame, ClientError> {
        if let Some(c) = self.stash.pop_front() {
            return Ok(c);
        }
        match self.read_response()? {
            Frame::Completion(c) => Ok(c),
            other => Err(unexpected("Completion", &other)),
        }
    }

    /// Releases a server-resident operand handle.
    pub fn release(&mut self, handle: u64) -> Result<(), ClientError> {
        self.send(&Frame::ReleaseHandle { handle })?;
        match self.read_transaction()? {
            Frame::Released { handle: got } if got == handle => Ok(()),
            other => Err(unexpected("Released", &other)),
        }
    }

    /// Asks the server to shut down (accept loop and all connections);
    /// consumes the client.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.read_response()? {
                Frame::Goodbye => return Ok(()),
                Frame::Completion(_) => continue,
                other => return Err(unexpected("Goodbye", &other)),
            }
        }
    }

    /// Sends a raw frame without awaiting a response. Public for protocol
    /// robustness tests; pair with [`read_response`](Self::read_response).
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Sends pre-encoded bytes verbatim (for malformed-frame tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next transactional response, stashing stream-delivery
    /// completions that the server pushed while this request was on the
    /// wire (pipelined submits see their predecessors' completions
    /// interleave with the ack they are awaiting).
    fn read_transaction(&mut self) -> Result<Frame, ClientError> {
        loop {
            match self.read_response()? {
                Frame::Completion(c) => self.stash.push_back(c),
                other => return Ok(other),
            }
        }
    }

    /// Reads the next frame, turning server error frames into
    /// [`ClientError::Server`]. Public counterpart of [`send`](Self::send).
    pub fn read_response(&mut self) -> Result<Frame, ClientError> {
        let (event, _) = read_frame(&mut self.reader, self.max_frame)?;
        match event {
            ReadEvent::Frame(Frame::Error { id, code, message }) => {
                Err(ClientError::Server { id, code, message })
            }
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

fn unexpected(wanted: &str, got: &Frame) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got verb {}", got.verb()))
}
