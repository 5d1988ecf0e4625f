//! Frame encoding/decoding and blocking frame I/O.
//!
//! Decoding is total: any byte sequence produces either a [`Frame`] or a
//! typed [`WireError`], never a panic. [`read_frame`] additionally keeps
//! the *stream* total — an oversized length prefix is drained in chunks
//! (so framing stays in sync) and reported as [`ReadEvent::TooLarge`]
//! rather than torn down, and a malformed payload is surfaced as
//! [`ReadEvent::Malformed`] with the stream already positioned at the next
//! frame boundary. [`take_frame`] reads the same stream through a
//! [`BufRead`], decoding a frame that is whole in the buffer where it lies.

use std::io::{self, BufRead, Read, Write};

use ftgemm_abft::FtReport;
use ftgemm_core::scalar::f64_bytes;

use crate::proto::{verb, CompletionFrame, CompletionOk, Frame, OperandRef, SubmitFrame};

/// Typed decode failure; mapped to [`error_code`](crate::proto::error_code)
/// values by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before the field being read.
    Truncated,
    /// Bytes left over after the last field of the payload.
    Trailing(usize),
    /// Verb byte no frame type claims.
    UnknownVerb(u8),
    /// A field held a value outside its domain (bad enum discriminant,
    /// non-UTF-8 string, operand data length mismatch).
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::UnknownVerb(v) => write!(f, "unknown verb byte {v}"),
            WireError::BadValue(what) => write!(f, "bad value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        #[expect(clippy::indexing_slicing, reason = "remaining() >= n, checked above")]
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        #[expect(clippy::indexing_slicing, reason = "bytes(1) returns one byte")]
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        #[expect(clippy::unwrap_used, reason = "bytes(2) returns 2 bytes")]
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        #[expect(clippy::unwrap_used, reason = "bytes(4) returns 4 bytes")]
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        #[expect(clippy::unwrap_used, reason = "bytes(8) returns 8 bytes")]
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadValue("non-UTF-8 string"))
    }

    /// `rows * cols` f64s, converted in one pass; the byte count is
    /// validated against the remaining payload *before* allocating, so a
    /// forged huge shape cannot trigger a large allocation.
    fn f64_mat(&mut self, rows: u32, cols: u32) -> Result<Vec<f64>, WireError> {
        let n = (rows as u64)
            .checked_mul(cols as u64)
            .ok_or(WireError::BadValue("operand shape overflows"))?;
        let len = n
            .checked_mul(8)
            .and_then(|b| usize::try_from(b).ok())
            .ok_or(WireError::Truncated)?;
        let (words, _) = self.bytes(len)?.as_chunks::<8>();
        Ok(words.iter().copied().map(f64::from_le_bytes).collect())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

/// Bytes that the prefix, verb and fixed-width fields of any frame fit in (a
/// by-handle submit, the largest, takes 55): a frame without a matrix or a
/// long message is one allocation, and one with a matrix is not moved again
/// by the fields after it (a completion's five counters).
const FIXED_BYTES: usize = 64;

struct Wr<'a> {
    buf: &'a mut Vec<u8>,
    /// A matrix left out of `buf` ([`Wr::matrix_apart`]): the offset its
    /// bytes belong at, and their count.
    gap: Option<(usize, usize)>,
}

impl Wr<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A matrix: its shape, then its column-major data.
    fn matrix(&mut self, rows: u32, cols: u32, data: &[f64]) {
        self.u32(rows);
        self.u32(cols);
        self.f64_slice(data);
    }

    /// [`Wr::matrix`] without the data: its bytes are counted in the frame
    /// and left for the writer to send from where they lie.
    fn matrix_apart(&mut self, rows: u32, cols: u32, data: &[f64]) {
        self.u32(rows);
        self.u32(cols);
        self.gap = Some((self.buf.len(), 8 * data.len()));
    }

    /// The whole matrix in one copy of its bytes, which on the little-endian
    /// targets this crate builds for are already the wire's, with room for
    /// the fields after it.
    fn f64_slice(&mut self, data: &[f64]) {
        let bytes = f64_bytes(data);
        self.buf.reserve(bytes.len() + FIXED_BYTES);
        self.buf.extend_from_slice(bytes);
    }
}

// ---------------------------------------------------------------------------
// Frame payload codec
// ---------------------------------------------------------------------------

fn put_operand_ref(w: &mut Wr<'_>, op: &OperandRef) {
    match op {
        OperandRef::Inline { rows, cols, data } => {
            w.u8(0);
            w.matrix(*rows, *cols, data);
        }
        OperandRef::Handle(h) => {
            w.u8(1);
            w.u64(*h);
        }
    }
}

fn get_operand_ref(r: &mut Rd<'_>) -> Result<OperandRef, WireError> {
    match r.u8()? {
        0 => {
            let rows = r.u32()?;
            let cols = r.u32()?;
            let data = r.f64_mat(rows, cols)?;
            Ok(OperandRef::Inline { rows, cols, data })
        }
        1 => Ok(OperandRef::Handle(r.u64()?)),
        _ => Err(WireError::BadValue("operand-ref tag")),
    }
}

/// The length prefix of a frame whose verb and payload are `body` bytes, or
/// `InvalidInput` past what a `u32` states: a truncated prefix would have
/// the receiver read the wrong number of bytes and lose the stream.
fn frame_len(body: usize) -> io::Result<u32> {
    u32::try_from(body).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a {body}-byte frame does not fit a u32 length prefix"),
        )
    })
}

/// A completion's result as the encoder reads it: the output matrix's shape
/// and column-major data as a slice (of a [`CompletionOk`], or of the
/// service's result matrix itself) and the request's report, or the
/// failure's code and message.
pub(crate) type CompletionFields<'a> = Result<(u32, u32, &'a [f64], FtReport), (u16, &'a str)>;

/// A completion's payload; an `Ok` result's matrix is left out of the
/// buffer if `apart`.
fn put_completion(w: &mut Wr<'_>, id: u64, result: CompletionFields<'_>, apart: bool) {
    w.u64(id);
    match result {
        Ok((rows, cols, data, r)) => {
            w.u8(0);
            if apart {
                w.matrix_apart(rows, cols, data);
            } else {
                w.matrix(rows, cols, data);
            }
            for n in [
                r.verifications,
                r.detected,
                r.corrected,
                r.injected,
                r.retried_panels,
            ] {
                w.u64(n as u64);
            }
        }
        Err((code, message)) => {
            w.u8(1);
            w.u16(code);
            w.string(message);
        }
    }
}

/// Encodes a frame into a complete wire message: `[len u32][verb][payload]`.
///
/// # Panics
/// If the frame is over `u32::MAX` bytes (4 GiB), which no length prefix
/// can state; [`write_frame`] returns an error instead.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    #[expect(clippy::expect_used, reason = "documented: only a frame over 4 GiB")]
    try_encode(frame).expect("frame over 4 GiB")
}

fn try_encode(frame: &Frame) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(FIXED_BYTES);
    encode_into(&mut buf, frame)?;
    Ok(buf)
}

/// Appends one frame to `buf`: prefix and verb first, the payload `put`
/// writes after them, then the prefix patched to the length, which counts a
/// matrix `put` left out. Returns the offset in `buf` that matrix's bytes
/// belong at (the frame's end if none was). A frame over 4 GiB is
/// `InvalidInput` and leaves `buf` as it was.
fn append_frame(buf: &mut Vec<u8>, verb: u8, put: impl FnOnce(&mut Wr<'_>)) -> io::Result<usize> {
    let at = buf.len();
    buf.reserve(FIXED_BYTES);
    buf.extend_from_slice(&[0, 0, 0, 0, verb]);
    let mut w = Wr {
        buf: &mut *buf,
        gap: None,
    };
    put(&mut w);
    let (gap, apart) = w.gap.unwrap_or((buf.len(), 0));
    match frame_len(buf.len() + apart - at - 4) {
        Ok(len) => {
            if let Some(prefix) = buf.get_mut(at..).and_then(<[u8]>::first_chunk_mut::<4>) {
                *prefix = len.to_le_bytes();
            }
            Ok(gap)
        }
        Err(e) => {
            buf.truncate(at);
            Err(e)
        }
    }
}

/// Appends a completion to `buf` with an `Ok` result's matrix left out, and
/// returns the offset in `buf` its bytes belong at ([`f64_bytes`]; the
/// frame's end for a failure, which has none): sending
/// `buf[..at]`, those bytes, then `buf[at..]` sends the completion's frame.
/// The server sends the service's result from where it lies, without
/// copying it into a [`CompletionOk`] or into `buf`.
pub(crate) fn encode_completion_apart(
    buf: &mut Vec<u8>,
    id: u64,
    result: CompletionFields<'_>,
) -> io::Result<usize> {
    append_frame(buf, verb::COMPLETION, |w| {
        put_completion(w, id, result, true)
    })
}

/// Appends an `UploadOperand` to `buf`, its matrix read in place: the
/// client encodes the caller's matrix without copying it into the frame.
pub(crate) fn encode_upload_into(
    buf: &mut Vec<u8>,
    rows: u32,
    cols: u32,
    data: &[f64],
) -> io::Result<()> {
    append_frame(buf, verb::UPLOAD_OPERAND, |w| w.matrix(rows, cols, data)).map(drop)
}

/// Appends one frame to `buf`; see [`append_frame`].
pub(crate) fn encode_into(buf: &mut Vec<u8>, frame: &Frame) -> io::Result<()> {
    append_frame(buf, frame.verb(), |w| put_payload(w, frame)).map(drop)
}

fn put_payload(w: &mut Wr<'_>, frame: &Frame) {
    match frame {
        Frame::Hello { version, features } => {
            w.u16(*version);
            w.u32(*features);
        }
        Frame::ServerHello {
            version,
            features,
            max_frame,
        } => {
            w.u16(*version);
            w.u32(*features);
            w.u32(*max_frame);
        }
        Frame::UploadOperand { rows, cols, data } => w.matrix(*rows, *cols, data),
        Frame::OperandHandle {
            handle,
            resident_bytes,
        } => {
            w.u64(*handle);
            w.u64(*resident_bytes);
        }
        Frame::Submit(s) => {
            w.u8(s.hold as u8);
            w.u8(s.policy);
            w.u8(s.priority);
            w.u32(s.tenant);
            w.u64(s.deadline_ns);
            w.f64(s.alpha);
            w.f64(s.beta);
            put_operand_ref(w, &s.a);
            put_operand_ref(w, &s.b);
            match &s.c {
                None => w.u8(0),
                Some((rows, cols, data)) => {
                    w.u8(1);
                    w.matrix(*rows, *cols, data);
                }
            }
        }
        Frame::SubmitAck { id } => w.u64(*id),
        Frame::Completion(c) => {
            let result = match &c.result {
                Ok(ok) => Ok((ok.rows, ok.cols, ok.data.as_slice(), ok.report())),
                Err((code, message)) => Err((*code, message.as_str())),
            };
            put_completion(w, c.id, result, false);
        }
        Frame::ReleaseHandle { handle } | Frame::Released { handle } => {
            w.u64(*handle);
        }
        Frame::Shutdown | Frame::Goodbye => {}
        Frame::Error { id, code, message } => {
            w.u64(*id);
            w.u16(*code);
            w.string(message);
        }
    }
}

/// Decodes a frame payload given its verb byte. Total: every input maps to
/// a frame or a [`WireError`].
pub fn decode_frame(verb_byte: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Rd::new(payload);
    let frame = match verb_byte {
        verb::HELLO => Frame::Hello {
            version: r.u16()?,
            features: r.u32()?,
        },
        verb::SERVER_HELLO => Frame::ServerHello {
            version: r.u16()?,
            features: r.u32()?,
            max_frame: r.u32()?,
        },
        verb::UPLOAD_OPERAND => {
            let rows = r.u32()?;
            let cols = r.u32()?;
            let data = r.f64_mat(rows, cols)?;
            Frame::UploadOperand { rows, cols, data }
        }
        verb::OPERAND_HANDLE => Frame::OperandHandle {
            handle: r.u64()?,
            resident_bytes: r.u64()?,
        },
        verb::SUBMIT => {
            // Reserved: a submit is malformed unless it is 0.
            if r.u8()? != 0 {
                return Err(WireError::BadValue("reserved hold byte"));
            }
            let policy = r.u8()?;
            if policy > 2 {
                return Err(WireError::BadValue("ft policy"));
            }
            let priority = r.u8()?;
            if priority > 2 {
                return Err(WireError::BadValue("priority"));
            }
            let tenant = r.u32()?;
            let deadline_ns = r.u64()?;
            let alpha = r.f64()?;
            let beta = r.f64()?;
            let a = get_operand_ref(&mut r)?;
            let b = get_operand_ref(&mut r)?;
            let c = match r.u8()? {
                0 => None,
                1 => {
                    let rows = r.u32()?;
                    let cols = r.u32()?;
                    let data = r.f64_mat(rows, cols)?;
                    Some((rows, cols, data))
                }
                _ => return Err(WireError::BadValue("output tag")),
            };
            Frame::Submit(SubmitFrame {
                hold: false,
                policy,
                priority,
                tenant,
                deadline_ns,
                alpha,
                beta,
                a,
                b,
                c,
            })
        }
        verb::SUBMIT_ACK => Frame::SubmitAck { id: r.u64()? },
        verb::COMPLETION => {
            let id = r.u64()?;
            let result = match r.u8()? {
                0 => {
                    let rows = r.u32()?;
                    let cols = r.u32()?;
                    let data = r.f64_mat(rows, cols)?;
                    Ok(CompletionOk {
                        rows,
                        cols,
                        data,
                        verifications: r.u64()?,
                        detected: r.u64()?,
                        corrected: r.u64()?,
                        injected: r.u64()?,
                        retried_panels: r.u64()?,
                    })
                }
                1 => Err((r.u16()?, r.string()?)),
                _ => return Err(WireError::BadValue("completion tag")),
            };
            Frame::Completion(CompletionFrame { id, result })
        }
        verb::RELEASE_HANDLE => Frame::ReleaseHandle { handle: r.u64()? },
        verb::RELEASED => Frame::Released { handle: r.u64()? },
        verb::SHUTDOWN => Frame::Shutdown,
        verb::GOODBYE => Frame::Goodbye,
        verb::ERROR => Frame::Error {
            id: r.u64()?,
            code: r.u16()?,
            message: r.string()?,
        },
        other => return Err(WireError::UnknownVerb(other)),
    };
    r.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Blocking frame I/O
// ---------------------------------------------------------------------------

/// Outcome of [`read_frame`]: the stream survives everything but I/O
/// failure, so protocol-level problems are events, not errors.
#[derive(Debug, PartialEq)]
pub enum ReadEvent {
    /// A well-formed frame.
    Frame(Frame),
    /// Length prefix exceeded the max frame size; the frame's bytes were
    /// drained and discarded, the stream is at the next frame boundary.
    TooLarge { len: u32 },
    /// Payload failed to decode; the stream is at the next frame boundary.
    Malformed(WireError),
    /// Clean end of stream (peer closed between frames).
    Eof,
}

/// A body buffer past this capacity is let go after its frame is decoded
/// rather than kept for the next one: one large upload does not pin its
/// size for the rest of the connection.
const KEPT_BODY_BYTES: usize = 1 << 20;

/// The bytes one side of a connection moves per system call: the server's
/// outbound thread writes what it has once its turn has encoded this much,
/// and [`NetClient`](crate::NetClient) reads into a buffer of this size, so
/// one read can take in a whole turn.
pub(crate) const TURN_BYTES: usize = 256 * 1024;

/// Reads one length-prefixed frame. `max_frame` bounds the length prefix;
/// larger frames are drained in 64 KiB chunks and reported as
/// [`ReadEvent::TooLarge`] so a single oversized frame cannot desync or
/// kill the connection. Returns the total bytes consumed alongside the
/// event (for byte-level metrics). For a stream of frames, prefer
/// [`read_frame_into`] with one body buffer kept across calls.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> io::Result<(ReadEvent, u64)> {
    read_frame_into(r, max_frame, &mut Vec::new())
}

/// [`read_frame`], with the frame's body read into `body`, which the caller
/// keeps and passes again: the body is read straight into its spare
/// capacity, never zero-filled first, and a buffer that has held a frame of
/// this size before is not allocated again.
pub fn read_frame_into(
    r: &mut impl Read,
    max_frame: u32,
    body: &mut Vec<u8>,
) -> io::Result<(ReadEvent, u64)> {
    let mut len_buf = [0u8; 4];
    // EOF before any length byte is a clean close; EOF mid-prefix is not.
    match r.read(&mut len_buf[..1])? {
        0 => return Ok((ReadEvent::Eof, 0)),
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Ok((ReadEvent::Malformed(WireError::Truncated), 4));
    }
    if len > max_frame {
        let mut left = len as u64;
        let mut chunk = [0u8; 64 * 1024];
        while left > 0 {
            let take = left.min(chunk.len() as u64) as usize;
            #[expect(clippy::indexing_slicing, reason = "take <= chunk.len()")]
            r.read_exact(&mut chunk[..take])?;
            left -= take as u64;
        }
        return Ok((ReadEvent::TooLarge { len }, 4 + len as u64));
    }
    body.clear();
    body.reserve(len as usize);
    if (&mut *r).take(len as u64).read_to_end(body)? < len as usize {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let event = decode_body(body);
    if body.capacity() > KEPT_BODY_BYTES {
        *body = Vec::new();
    }
    Ok((event, 4 + len as u64))
}

/// A frame's verb and payload, decoded.
fn decode_body(body: &[u8]) -> ReadEvent {
    match body.split_first() {
        Some((&verb, payload)) => match decode_frame(verb, payload) {
            Ok(f) => ReadEvent::Frame(f),
            Err(e) => ReadEvent::Malformed(e),
        },
        None => ReadEvent::Malformed(WireError::Truncated),
    }
}

/// The length prefix of the frame at the front of `buf`, if all of that
/// frame's bytes are there.
pub(crate) fn whole_frame(buf: &[u8]) -> Option<u32> {
    let len = u32::from_le_bytes(*buf.first_chunk::<4>()?);
    (buf.len() - 4 >= len as usize).then_some(len)
}

/// [`read_frame_into`] through a buffered reader: a frame whose bytes are
/// all in `r`'s buffer already is decoded there, without being copied into
/// `body` first. A frame the buffer holds only part of, or one over
/// `max_frame`, goes through [`read_frame_into`]; so on the same bytes the
/// events and byte counts are that function's, a zero length and a
/// malformed payload included. Blocks only when the buffer is empty or
/// holds part of a frame.
pub fn take_frame(
    r: &mut impl BufRead,
    max_frame: u32,
    body: &mut Vec<u8>,
) -> io::Result<(ReadEvent, u64)> {
    let buf = r.fill_buf()?;
    let Some(frame) = whole_frame(buf)
        .filter(|&len| len <= max_frame)
        .and_then(|len| buf.get(4..4 + len as usize))
    else {
        return read_frame_into(r, max_frame, body);
    };
    let event = decode_body(frame);
    let n = 4 + frame.len();
    r.consume(n);
    Ok((event, n as u64))
}

/// Writes one frame; returns the bytes written. A frame over 4 GiB is
/// `InvalidInput` and nothing of it is written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    let bytes = try_encode(frame)?;
    w.write_all(&bytes)?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_submit() {
        let mut s = SubmitFrame {
            hold: false,
            policy: 2,
            priority: 0,
            tenant: 7,
            deadline_ns: 123,
            alpha: 1.5,
            beta: -0.25,
            a: OperandRef::Handle(42),
            b: OperandRef::Inline {
                rows: 2,
                cols: 2,
                data: vec![1.0, 2.0, 3.0, 4.0],
            },
            c: Some((2, 2, vec![0.0; 4])),
        };
        let f = Frame::Submit(s.clone());
        let bytes = encode_frame(&f);
        let got = decode_frame(bytes[4], &bytes[5..]).unwrap();
        assert_eq!(got, f);
        // The retired hold byte must be 0.
        s.hold = true;
        let bytes = encode_frame(&Frame::Submit(s));
        assert_eq!(
            decode_frame(bytes[4], &bytes[5..]),
            Err(WireError::BadValue("reserved hold byte"))
        );
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode_frame(&Frame::SubmitAck { id: 9 });
        bytes.push(0xFF);
        // Patch the length prefix to claim the extra byte.
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) + 1;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_frame(bytes[4], &bytes[5..]),
            Err(WireError::Trailing(1))
        );
    }

    #[test]
    fn oversized_frame_is_drained_not_fatal() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(&[0u8; 100]);
        wire.extend_from_slice(&encode_frame(&Frame::Goodbye));
        let mut cur = std::io::Cursor::new(wire);
        let (ev, n) = read_frame(&mut cur, 64).unwrap();
        assert!(matches!(ev, ReadEvent::TooLarge { len: 100 }));
        assert_eq!(n, 104);
        let (ev, _) = read_frame(&mut cur, 64).unwrap();
        assert!(matches!(ev, ReadEvent::Frame(Frame::Goodbye)));
    }

    /// The encoder as it was before matrices were converted in bulk, for the
    /// three frames that carry them: one append per element, the payload
    /// built apart and copied behind the length prefix and verb.
    fn per_element_encoder(frame: &Frame) -> Vec<u8> {
        fn mat(p: &mut Vec<u8>, rows: u32, cols: u32, data: &[f64]) {
            p.extend_from_slice(&rows.to_le_bytes());
            p.extend_from_slice(&cols.to_le_bytes());
            for &v in data {
                p.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        fn operand(p: &mut Vec<u8>, op: &OperandRef) {
            match op {
                OperandRef::Inline { rows, cols, data } => {
                    p.push(0);
                    mat(p, *rows, *cols, data);
                }
                OperandRef::Handle(h) => {
                    p.push(1);
                    p.extend_from_slice(&h.to_le_bytes());
                }
            }
        }
        let mut p = Vec::new();
        match frame {
            Frame::UploadOperand { rows, cols, data } => mat(&mut p, *rows, *cols, data),
            Frame::Submit(s) => {
                p.extend_from_slice(&[s.hold as u8, s.policy, s.priority]);
                p.extend_from_slice(&s.tenant.to_le_bytes());
                p.extend_from_slice(&s.deadline_ns.to_le_bytes());
                p.extend_from_slice(&s.alpha.to_bits().to_le_bytes());
                p.extend_from_slice(&s.beta.to_bits().to_le_bytes());
                operand(&mut p, &s.a);
                operand(&mut p, &s.b);
                match &s.c {
                    None => p.push(0),
                    Some((rows, cols, data)) => {
                        p.push(1);
                        mat(&mut p, *rows, *cols, data);
                    }
                }
            }
            Frame::Completion(c) => {
                let ok = c.result.as_ref().expect("a completion with a result");
                p.extend_from_slice(&c.id.to_le_bytes());
                p.push(0);
                mat(&mut p, ok.rows, ok.cols, &ok.data);
                for n in [
                    ok.verifications,
                    ok.detected,
                    ok.corrected,
                    ok.injected,
                    ok.retried_panels,
                ] {
                    p.extend_from_slice(&n.to_le_bytes());
                }
            }
            other => unreachable!("no matrix in {other:?}"),
        }
        let mut out = Vec::with_capacity(5 + p.len());
        out.extend_from_slice(&(1 + p.len() as u32).to_le_bytes());
        out.push(frame.verb());
        out.extend_from_slice(&p);
        out
    }

    /// `n` values cycling through two NaN payloads, both zeros, subnormals,
    /// infinities and ordinary numbers.
    fn awkward(n: usize, seed: u64) -> Vec<f64> {
        let special = [
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            f64::NEG_INFINITY,
        ];
        (0..n)
            .map(|i| match i % 9 {
                j if j < special.len() => special[j],
                _ => (i as f64 + seed as f64) * 0.37,
            })
            .collect()
    }

    /// Every `f64` a frame carries, as bits: `PartialEq` cannot tell NaN
    /// payloads apart, and `Debug` prints every NaN alike.
    fn float_bits(frame: &Frame) -> Vec<u64> {
        let mut all = Vec::new();
        let mut add = |d: &[f64]| all.extend(d.iter().map(|v| v.to_bits()));
        match frame {
            Frame::UploadOperand { data, .. } => add(data),
            Frame::Submit(s) => {
                add(&[s.alpha, s.beta]);
                for op in [&s.a, &s.b] {
                    if let OperandRef::Inline { data, .. } = op {
                        add(data);
                    }
                }
                if let Some((_, _, data)) = &s.c {
                    add(data);
                }
            }
            Frame::Completion(c) => add(&c.result.as_ref().unwrap().data),
            _ => {}
        }
        all
    }

    /// The three matrix-carrying frames at `n` elements per matrix, each
    /// with the payload offset of its first matrix's shape.
    fn matrix_frames(n: usize) -> [(Frame, usize); 3] {
        let (rows, cols) = match n {
            0 => (0, 4),
            4097 => (17, 241),
            _ => (1, n as u32),
        };
        let inline = |seed| OperandRef::Inline {
            rows,
            cols,
            data: awkward(n, seed),
        };
        [
            (
                Frame::Submit(SubmitFrame {
                    hold: false,
                    policy: 1,
                    priority: 2,
                    tenant: 3,
                    deadline_ns: 4,
                    alpha: f64::from_bits(0x7ff8_0000_0000_0042),
                    beta: -0.0,
                    a: inline(1),
                    b: inline(2),
                    c: Some((rows, cols, awkward(n, 3))),
                }),
                // hold, policy, priority, tenant, deadline, alpha, beta, tag
                32,
            ),
            (
                Frame::UploadOperand {
                    rows,
                    cols,
                    data: awkward(n, 4),
                },
                0,
            ),
            (
                Frame::Completion(CompletionFrame {
                    id: 77,
                    result: Ok(CompletionOk {
                        rows,
                        cols,
                        data: awkward(n, 5),
                        verifications: 1,
                        detected: 2,
                        corrected: 3,
                        injected: 4,
                        retried_panels: 5,
                    }),
                }),
                // id, tag
                9,
            ),
        ]
    }

    #[test]
    fn bulk_encoding_is_byte_identical_and_round_trips_bit_for_bit() {
        for n in [0, 1, 7, 4097] {
            for (frame, _) in matrix_frames(n) {
                let bytes = encode_frame(&frame);
                assert_eq!(bytes, per_element_encoder(&frame), "{n} elements");
                let back = decode_frame(bytes[4], &bytes[5..]).unwrap();
                assert_eq!(format!("{back:?}"), format!("{frame:?}"));
                assert_eq!(float_bits(&back), float_bits(&frame), "{n} elements");
            }
        }
    }

    /// A payload cut inside a matrix is `Truncated`, and found so before the
    /// matrix is allocated: with its shape forged to 2^48 elements, decoding
    /// that allocated first would abort the process instead.
    #[test]
    fn a_payload_cut_inside_a_matrix_is_truncated_before_allocating() {
        for (frame, shape_at) in matrix_frames(4097) {
            let bytes = encode_frame(&frame);
            let mut payload = bytes[5..bytes.len() / 2].to_vec();
            assert_eq!(decode_frame(bytes[4], &payload), Err(WireError::Truncated));
            payload[shape_at..shape_at + 8]
                .copy_from_slice(&[0xff, 0xff, 0xff, 0, 0xff, 0xff, 0xff, 0]);
            assert_eq!(decode_frame(bytes[4], &payload), Err(WireError::Truncated));
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_length_prefix_states_up_to_u32_max_and_refuses_past_it() {
        let max = u32::MAX as usize;
        assert_eq!(frame_len(max - 1).unwrap(), u32::MAX - 1);
        assert_eq!(frame_len(max).unwrap(), u32::MAX);
        let err = frame_len(max + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn forged_shape_cannot_force_huge_alloc() {
        // Claims a 2^31 x 2^31 operand with no data behind it.
        let mut w = Vec::new();
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(verb::UPLOAD_OPERAND, &w),
            Err(WireError::Truncated)
        );
    }
}
