//! Wire-protocol vocabulary: version, verbs, frame types, error codes.
//!
//! Every frame on the wire is
//!
//! ```text
//! +-------------+--------+--------------------+
//! | len: u32 LE | verb:u8|  payload (len - 1) |
//! +-------------+--------+--------------------+
//! ```
//!
//! where `len` counts the verb byte plus the payload. All integers are
//! little-endian; `f64` values travel as `to_bits()` so results round-trip
//! bit-identically. Strings are a `u32` byte length followed by UTF-8.
//! Matrices are `rows: u32, cols: u32` followed by `rows * cols` column-major
//! `f64`s (the in-memory layout of [`ftgemm_core::Matrix`], which is
//! contiguous with `ld == nrows`).
//!
//! The protocol is strictly client-initiates / server-responds, with one
//! exception: completions are pushed by the server whenever their requests
//! finish, so a client may see [`Frame::Completion`] frames interleaved
//! with the response it is waiting for. A connection's frames get one
//! answer each, in the order they were sent, and a submit's ack always
//! comes before its own completion: a client may pipeline submits and pair
//! their answers up first-in, first-out.

use ftgemm_abft::FtReport;
use ftgemm_core::Matrix;

/// Protocol version carried in [`Frame::Hello`] / [`Frame::ServerHello`].
/// A server answers an unsupported version with an
/// [`error_code::UNSUPPORTED_VERSION`] error frame and keeps the
/// connection open so the client can retry with a supported version.
pub const PROTO_VERSION: u16 = 1;

/// Feature bit: the server keeps uploaded operands resident and accepts
/// handle-based submits ([`Frame::UploadOperand`] / [`OperandRef::Handle`]).
pub const FEATURE_OPERAND_HANDLES: u32 = 1 << 0;

/// Feature bit: the server pushes each completion as its request finishes
/// ([`Frame::Completion`]), the one way a result is delivered.
pub const FEATURE_STREAMING: u32 = 1 << 1;

/// All features this implementation speaks.
pub const FEATURES: u32 = FEATURE_OPERAND_HANDLES | FEATURE_STREAMING;

/// Default cap on a single frame (length prefix), server and client side.
pub const DEFAULT_MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Verb bytes. Pinned — never renumber; append only.
pub mod verb {
    pub const HELLO: u8 = 1;
    pub const SERVER_HELLO: u8 = 2;
    pub const UPLOAD_OPERAND: u8 = 3;
    pub const OPERAND_HANDLE: u8 = 4;
    pub const SUBMIT: u8 = 5;
    pub const SUBMIT_ACK: u8 = 6;
    // 7, 8 and 9 are retired: they were hold delivery's `Poll`, `Pending`
    // and `Wait`. Never reuse them — a client built against them would
    // misread the answer. A server answers them as unknown verbs.
    pub const COMPLETION: u8 = 10;
    pub const RELEASE_HANDLE: u8 = 11;
    pub const RELEASED: u8 = 12;
    pub const SHUTDOWN: u8 = 13;
    pub const GOODBYE: u8 = 14;
    pub const ERROR: u8 = 15;
}

/// Wire error codes carried by [`Frame::Error`] and failed completions.
/// Pinned — never renumber; append only.
///
/// Codes 1..=99 are reserved for [`ftgemm_serve::ServeError::wire_code`]
/// (request-level failures); 100+ are protocol-level failures originated
/// by the transport itself.
pub mod error_code {
    /// `ServeError::Shape` — inconsistent operand shapes.
    pub const SHAPE: u16 = 1;
    /// `ServeError::Ft` — the fault-tolerant driver gave up.
    pub const FT: u16 = 2;
    /// `ServeError::Closed` — the service is shutting down.
    pub const CLOSED: u16 = 3;
    // 4 is retired: it was `OVERLOADED`, the bounded submission queue's
    // rejection, and that queue is gone. Never reuse it — a client built
    // against it reads 4 as "shed load and retry".
    /// `ServeError::DeadlineExceeded` — infeasible or expired deadline.
    pub const DEADLINE_EXCEEDED: u16 = 5;

    /// Client Hello carried a version this server does not speak.
    pub const UNSUPPORTED_VERSION: u16 = 100;
    /// Frame payload failed to decode (truncated, trailing bytes, bad
    /// enum value, non-UTF-8 string, operand length mismatch).
    pub const MALFORMED_FRAME: u16 = 101;
    /// Frame length prefix exceeded the server's max frame size. The
    /// oversized frame is discarded in full so framing stays in sync and
    /// the connection survives.
    pub const FRAME_TOO_LARGE: u16 = 102;
    /// Submit/Release referenced a handle this connection does not own
    /// (never uploaded, already released, or evicted by the byte budget).
    pub const UNKNOWN_HANDLE: u16 = 103;
    /// Upload rejected: the operand alone exceeds the store's byte budget.
    pub const OPERAND_BUDGET: u16 = 104;
    /// Unknown verb byte (a frame from a future protocol revision).
    pub const UNKNOWN_VERB: u16 = 105;
    /// Submit rejected: connection already has `max_in_flight` requests.
    pub const TOO_MANY_IN_FLIGHT: u16 = 106;
    /// A request id that is not outstanding. Reserved: neither end sends
    /// it (a [`NetClient::wait`](crate::NetClient::wait) on such an id is
    /// [`ClientError::NotOutstanding`](crate::ClientError::NotOutstanding),
    /// answered without a frame).
    pub const UNKNOWN_REQUEST: u16 = 107;
    /// The first frame on the connection was not Hello.
    pub const EXPECTED_HELLO: u16 = 108;
    /// Submit referenced a quarantined handle: an earlier protected submit
    /// found the resident operand's bytes changed since upload (they no
    /// longer matched the sums pinned at upload) and failed, so the server
    /// refuses to compute on it. Release the handle and re-upload.
    pub const OPERAND_QUARANTINED: u16 = 109;
}

/// An input operand inside a [`SubmitFrame`]: inline matrix data, or a
/// server-resident handle from a previous [`Frame::UploadOperand`].
#[derive(Debug, Clone, PartialEq)]
pub enum OperandRef {
    /// Column-major matrix data shipped with the submit.
    Inline {
        rows: u32,
        cols: u32,
        data: Vec<f64>,
    },
    /// A handle minted by [`Frame::OperandHandle`]; resolves zero-copy to
    /// the server-resident `Arc<Matrix<f64>>`.
    Handle(u64),
}

impl OperandRef {
    /// Builds an inline operand from a matrix (copies the data once, at
    /// the client).
    pub fn inline(m: &Matrix<f64>) -> Self {
        OperandRef::Inline {
            rows: m.nrows() as u32,
            cols: m.ncols() as u32,
            data: m.as_slice().to_vec(),
        }
    }
}

/// Payload of [`Frame::Submit`] — the full `GemmRequest` surface on the
/// wire: operands (by handle or inline), scalars, FT policy, deadline and
/// three reserved fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitFrame {
    /// Reserved byte, must be 0 (`false`): it selected hold delivery, which
    /// is retired. A submit carrying 1 is refused as a malformed frame and
    /// not admitted.
    pub hold: bool,
    /// `FtPolicy` discriminant: 0 = Off, 1 = Detect, 2 = DetectCorrect.
    pub policy: u8,
    /// Reserved: decoded (and range-checked, `<= 2`) but ignored by the
    /// server, which keeps one FIFO queue. [`NetClient`](crate::NetClient)
    /// writes 1.
    pub priority: u8,
    /// Reserved: decoded but ignored by the server.
    /// [`NetClient`](crate::NetClient) writes 0.
    pub tenant: u32,
    /// Relative deadline in nanoseconds; 0 = none.
    pub deadline_ns: u64,
    /// Scale on `A*B` (f64 bits on the wire).
    pub alpha: f64,
    /// Scale on the input `C`.
    pub beta: f64,
    /// Left operand (`m x k`).
    pub a: OperandRef,
    /// Right operand (`k x n`).
    pub b: OperandRef,
    /// Optional input/output `C` (`m x n`, column-major); absent means
    /// `C = alpha*A*B`, with `beta` ignored (taken as 0).
    pub c: Option<(u32, u32, Vec<f64>)>,
}

/// Successful half of a [`CompletionFrame`]: the output matrix plus the
/// request's fault-tolerance counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionOk {
    pub rows: u32,
    pub cols: u32,
    /// Column-major output, bit-identical to the in-process result.
    pub data: Vec<f64>,
    pub verifications: u64,
    pub detected: u64,
    pub corrected: u64,
    pub injected: u64,
    pub retried_panels: u64,
}

impl CompletionOk {
    /// Reassembles the output matrix (panics only if rows/cols/data are
    /// inconsistent, which the codec rejects at decode time).
    pub fn to_matrix(&self) -> Matrix<f64> {
        #[expect(clippy::expect_used, reason = "decode rejects inconsistent shapes")]
        Matrix::from_col_major(self.rows as usize, self.cols as usize, &self.data)
            .expect("codec-validated completion shape")
    }

    /// Reassembles the fault-tolerance report.
    pub fn report(&self) -> FtReport {
        FtReport {
            verifications: self.verifications as usize,
            detected: self.detected as usize,
            corrected: self.corrected as usize,
            injected: self.injected as usize,
            retried_panels: self.retried_panels as usize,
        }
    }
}

/// Payload of [`Frame::Completion`]: one finished request, successful or
/// failed (failed completions carry a wire error code and message — e.g. a
/// deadline that expired while queued).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionFrame {
    /// On the wire, the service-assigned request id (from
    /// [`Frame::SubmitAck`]). [`NetClient`](crate::NetClient) hands a
    /// completion out under its own id for the request, the one its
    /// `submit` returned.
    pub id: u64,
    pub result: Result<CompletionOk, (u16, String)>,
}

/// Every frame the protocol speaks, both directions.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: version/feature negotiation; must be the first
    /// frame on a connection.
    Hello { version: u16, features: u32 },
    /// Server → client: negotiated version, the feature intersection, and
    /// the server's max frame size.
    ServerHello {
        version: u16,
        features: u32,
        max_frame: u32,
    },
    /// Client → server: make a matrix server-resident; answered with
    /// [`Frame::OperandHandle`].
    UploadOperand {
        rows: u32,
        cols: u32,
        data: Vec<f64>,
    },
    /// Server → client: the minted handle and the store's resident bytes
    /// after insertion (budget observability for the client).
    OperandHandle { handle: u64, resident_bytes: u64 },
    /// Client → server: submit one GEMM; answered with
    /// [`Frame::SubmitAck`] (or an error frame on rejection).
    Submit(SubmitFrame),
    /// Server → client: the request was admitted under this id.
    SubmitAck { id: u64 },
    /// Server → client: one finished request, pushed as soon as it
    /// finishes, always after its [`Frame::SubmitAck`].
    Completion(CompletionFrame),
    /// Client → server: drop a server-resident operand handle.
    ReleaseHandle { handle: u64 },
    /// Server → client: the handle was released.
    Released { handle: u64 },
    /// Client → server: stop the whole server (accept loop and all);
    /// answered with [`Frame::Goodbye`].
    Shutdown,
    /// Server → client: shutdown acknowledged, connection closing.
    Goodbye,
    /// Server → client: a request- or protocol-level failure. `id` is the
    /// request id when the failure is tied to one, 0 otherwise.
    Error { id: u64, code: u16, message: String },
}

impl Frame {
    /// The frame's verb byte (see [`verb`]).
    pub fn verb(&self) -> u8 {
        match self {
            Frame::Hello { .. } => verb::HELLO,
            Frame::ServerHello { .. } => verb::SERVER_HELLO,
            Frame::UploadOperand { .. } => verb::UPLOAD_OPERAND,
            Frame::OperandHandle { .. } => verb::OPERAND_HANDLE,
            Frame::Submit(_) => verb::SUBMIT,
            Frame::SubmitAck { .. } => verb::SUBMIT_ACK,
            Frame::Completion(_) => verb::COMPLETION,
            Frame::ReleaseHandle { .. } => verb::RELEASE_HANDLE,
            Frame::Released { .. } => verb::RELEASED,
            Frame::Shutdown => verb::SHUTDOWN,
            Frame::Goodbye => verb::GOODBYE,
            Frame::Error { .. } => verb::ERROR,
        }
    }
}

#[cfg(test)]
mod tests {
    use ftgemm_abft::FtError;
    use ftgemm_serve::ServeError;

    /// The pinned wire vocabulary, in declaration order. Renumbering or
    /// renaming an entry breaks deployed clients: append, never edit.
    const VERBS: [(&str, u16); 12] = [
        ("HELLO", 1),
        ("SERVER_HELLO", 2),
        ("UPLOAD_OPERAND", 3),
        ("OPERAND_HANDLE", 4),
        ("SUBMIT", 5),
        ("SUBMIT_ACK", 6),
        ("COMPLETION", 10),
        ("RELEASE_HANDLE", 11),
        ("RELEASED", 12),
        ("SHUTDOWN", 13),
        ("GOODBYE", 14),
        ("ERROR", 15),
    ];
    const ERROR_CODES: [(&str, u16); 14] = [
        ("SHAPE", 1),
        ("FT", 2),
        ("CLOSED", 3),
        ("DEADLINE_EXCEEDED", 5),
        ("UNSUPPORTED_VERSION", 100),
        ("MALFORMED_FRAME", 101),
        ("FRAME_TOO_LARGE", 102),
        ("UNKNOWN_HANDLE", 103),
        ("OPERAND_BUDGET", 104),
        ("UNKNOWN_VERB", 105),
        ("TOO_MANY_IN_FLIGHT", 106),
        ("UNKNOWN_REQUEST", 107),
        ("EXPECTED_HELLO", 108),
        ("OPERAND_QUARANTINED", 109),
    ];

    /// `(name, value)` of every `pub const` in `pub mod {module}` of this
    /// file, so a constant added without a pin fails as surely as one
    /// renumbered.
    fn declared(module: &str) -> Vec<(&'static str, u16)> {
        let src = include_str!("proto.rs");
        let start = src.find(&format!("pub mod {module} {{")).unwrap();
        let body = &src[start..];
        body[..body.find("\n}").unwrap()]
            .lines()
            .filter_map(|line| {
                let (name, rest) = line.trim().strip_prefix("pub const ")?.split_once(':')?;
                let value = rest.split_once('=')?.1.trim().trim_end_matches(';');
                Some((name, value.parse().unwrap()))
            })
            .collect()
    }

    /// Lowercase alphanumerics only: `SERVER_HELLO` == `ServerHello`.
    fn normalize(s: &str) -> String {
        s.chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase()
    }

    #[test]
    fn verbs_and_error_codes_are_pinned() {
        assert_eq!(declared("verb"), VERBS);
        assert_eq!(declared("error_code"), ERROR_CODES);
    }

    /// Codes `1..=99` are exactly `ServeError::wire_code` of every variant,
    /// under the variant's name; `100+` belong to the transport alone.
    #[test]
    fn request_band_mirrors_serve_error() {
        let ft = FtError::Unrecoverable {
            jc: 0,
            pc: 0,
            detail: String::new(),
        };
        let variants = [
            ServeError::Shape(String::new()),
            ServeError::Ft(ft),
            ServeError::Closed,
            ServeError::DeadlineExceeded(String::new()),
        ];
        let serve: Vec<(String, u16)> = variants
            .iter()
            .map(|e| {
                // Exhaustive: a new variant fails to compile until listed.
                let name = match e {
                    ServeError::Shape(_) => "Shape",
                    ServeError::Ft(_) => "Ft",
                    ServeError::Closed => "Closed",
                    ServeError::DeadlineExceeded(_) => "DeadlineExceeded",
                };
                (normalize(name), e.wire_code())
            })
            .collect();
        let band: Vec<(String, u16)> = declared("error_code")
            .into_iter()
            .filter(|&(_, v)| v < 100)
            .map(|(n, v)| (normalize(n), v))
            .collect();
        assert_eq!(band, serve);
        assert!(serve.iter().all(|&(_, v)| (1..=99).contains(&v)));
    }

    /// Every verb and every request-level code sits in
    /// `docs/ARCHITECTURE.md` on a line holding both its name (compared as
    /// [`normalize`]d) and its number.
    #[test]
    fn architecture_doc_states_every_verb_and_wire_code() {
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        let lines: Vec<(String, Vec<u16>)> = doc
            .lines()
            .map(|l| {
                let numbers = l
                    .split(|c: char| !c.is_ascii_alphanumeric())
                    .filter_map(|w| w.parse().ok())
                    .collect();
                (normalize(l), numbers)
            })
            .collect();
        let codes = declared("error_code").into_iter().filter(|&(_, v)| v < 100);
        for (name, value) in declared("verb").into_iter().chain(codes) {
            let name_n = normalize(name);
            assert!(
                lines
                    .iter()
                    .any(|(l, numbers)| l.contains(&name_n) && numbers.contains(&value)),
                "docs/ARCHITECTURE.md has no line naming `{name}` with {value}"
            );
        }
    }
}
