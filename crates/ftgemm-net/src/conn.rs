//! Per-connection protocol state machine: a reader thread (this module's
//! entry point) and one outbound thread.
//!
//! The reader owns the protocol: it decodes frames, resolves operand
//! handles against the shared [`OperandStore`], and bridges admissions
//! into [`GemmService::submit_streamed`]. It never writes to the socket —
//! every response goes into the connection's outbox — and it never waits
//! for the outbound thread, so a client that pipelines requests without
//! reading its responses can fill the socket's send buffer without
//! stopping the reader from draining the receive side. That is the
//! deadlock a single thread per connection would have, and why a
//! connection is two threads and not one.
//!
//! The outbound thread is the one socket-write site: it owns the write
//! half, takes the whole outbox each turn, encodes it into one buffer it
//! keeps, writes it through one `write_vectored` loop, and parks when a
//! turn had nothing to do. A finished request stays the service's
//! [`Completion`] until its turn is written, and its result matrix goes to
//! the socket from where the service left it, between its frame's header
//! and trailer bytes: the one copy of a result on the way out is the
//! kernel's, into the socket.
//!
//! Finished requests are taken off the connection's [`Completions`]
//! stream by [`ConnState::route_finished`], under the connection lock, to
//! the back of the outbox: a completion has one route, outbox → outbound
//! turn → socket. The outbound thread routes every turn; the reader routes
//! only for a Submit at the in-flight cap, so that answer does not depend
//! on the outbound thread getting out of a blocked write. The reader never
//! parks. The stream's waker unparks the outbound thread, and so does the
//! reader after every outbox push.
//!
//! Every protocol-level failure (malformed frame, oversize frame, unknown
//! verb/handle, unsupported version, in-flight cap) is answered
//! with a typed [`Frame::Error`] and the connection stays alive; only I/O
//! failure or an explicit Shutdown ends it. On exit — clean or not — the
//! connection joins its outbound thread and releases every operand handle
//! it owns, so a killed client returns the store's resident bytes to
//! baseline.

use std::collections::HashSet;
use std::io::{self, BufReader, IoSlice, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use ftgemm_abft::FtPolicy;
use ftgemm_core::scalar::f64_bytes;
use ftgemm_core::Matrix;
use ftgemm_obs::StopHandle;
use ftgemm_serve::{
    completion_channel, Completion, Completions, GemmRequest, GemmService, Operand, ServeError,
};

use crate::codec::{
    encode_completion_apart, encode_into, take_frame, ReadEvent, WireError, TURN_BYTES,
};
use crate::metrics;
use crate::proto::{error_code, Frame, OperandRef, SubmitFrame, FEATURES, PROTO_VERSION};
use crate::store::{OperandStore, StoreGetError};

/// Everything a connection needs from its server.
pub(crate) struct ConnContext {
    pub service: Arc<GemmService<f64>>,
    pub store: Arc<OperandStore>,
    pub max_frame: u32,
    pub max_in_flight: usize,
    /// Stops the server's accept loop when a client issues Shutdown.
    pub stop: StopHandle,
}

/// One frame in the outbox.
enum Outgoing {
    Frame(Frame),
    /// A finished request, sent straight from its result matrix.
    Completion(Completion<f64>),
}

/// The bytes of a completion's result matrix; none for a failure.
fn result_bytes(c: &Completion<f64>) -> &[u8] {
    c.result
        .as_ref()
        .map_or(&[], |resp| f64_bytes(resp.c.as_slice()))
}

/// State shared between the reader and the outbound thread, under one
/// lock.
struct ConnState {
    /// Frames to write, in order: the reader's answers and completions.
    outbox: Vec<Outgoing>,
    /// Finished requests arrive here; see [`ConnState::route_finished`].
    completions: Completions<f64>,
    /// Submitted and not yet routed, against [`ConnContext::max_in_flight`].
    in_flight: usize,
    /// The reader has exited; the outbound thread drains in-flight work
    /// and stops.
    closing: bool,
}

impl ConnState {
    /// Takes every finished request off the stream to the back of the
    /// outbox. Leaves the waker registered for the next one. True when the
    /// stream is drained (nothing queued, nothing in flight).
    fn route_finished(&mut self, cx: &mut Context<'_>) -> bool {
        loop {
            match self.completions.poll_next(cx) {
                Poll::Ready(Some(c)) => {
                    self.in_flight -= 1;
                    self.outbox.push(Outgoing::Completion(c));
                }
                Poll::Ready(None) => return true,
                Poll::Pending => return false,
            }
        }
    }
}

/// Waker for [`Completions::poll_next`]: unparks the outbound thread, which
/// writes what finished.
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

fn serve_error_frame(id: u64, e: &ServeError) -> Frame {
    Frame::Error {
        id,
        code: e.wire_code(),
        message: e.to_string(),
    }
}

/// Turns a wire submit into a service request. Handle misses surface as
/// an error frame, not a disconnect.
fn build_request(s: SubmitFrame, store: &OperandStore) -> Result<GemmRequest<f64>, (u16, String)> {
    let resolve = |op: OperandRef| -> Result<Operand<f64>, (u16, String)> {
        match op {
            OperandRef::Inline { rows, cols, data } => {
                Matrix::from_col_major(rows as usize, cols as usize, &data)
                    .map(Operand::Owned)
                    .map_err(|e| (error_code::MALFORMED_FRAME, e.to_string()))
            }
            OperandRef::Handle(h) => {
                store
                    .try_get(h)
                    .map(Operand::Shared)
                    .map_err(|e| match e {
                        StoreGetError::Quarantined => (
                            error_code::OPERAND_QUARANTINED,
                            format!(
                                "operand handle {h} is quarantined (a protected submit found its resident bytes changed since upload); release and re-upload"
                            ),
                        ),
                        StoreGetError::Unknown => (
                            error_code::UNKNOWN_HANDLE,
                            format!("operand handle {h} is not resident"),
                        ),
                    })
            }
        }
    };
    let a = resolve(s.a)?;
    let b = resolve(s.b)?;
    // Without a `C` the submit is `C = alpha*A*B`: `beta` is taken as 0, so
    // the output need not be zeroed and no stale value is ever scaled in.
    let (beta, c) = match s.c {
        Some((rows, cols, data)) => (
            s.beta,
            Matrix::from_col_major(rows as usize, cols as usize, &data)
                .map_err(|e| (error_code::MALFORMED_FRAME, e.to_string()))?,
        ),
        None => (0.0, Matrix::for_overwrite(a.nrows(), b.ncols())),
    };
    // Discriminants are codec-validated (<= 2), so these matches are total.
    let policy = match s.policy {
        0 => FtPolicy::Off,
        1 => FtPolicy::Detect,
        _ => FtPolicy::DetectCorrect,
    };
    Ok(GemmRequest {
        alpha: s.alpha,
        a,
        b,
        beta,
        c,
        policy,
        injector: None,
        deadline: (s.deadline_ns > 0).then(|| Duration::from_nanos(s.deadline_ns)),
    })
}

/// The outbound thread's write buffer: frames encoded back to back, except
/// each completion's result matrix, which stays in its [`Completion`] until
/// the turn is written. The turn goes out in one `write_vectored` loop: the
/// buffer in pieces, each held matrix between the header and the trailer
/// bytes of its frame. Past [`TURN_BYTES`], buffer and held matrices
/// together, a turn writes what it has before encoding more, like a
/// buffered writer's capacity: it stays within that plus one frame, and a
/// long turn's first frames do not wait for its last.
#[derive(Default)]
struct Turn {
    buf: Vec<u8>,
    /// Each completion in the turn, with the offset in `buf` its result's
    /// bytes go at.
    held: Vec<(usize, Completion<f64>)>,
    /// The bytes of the held results.
    held_bytes: usize,
    frames: u64,
}

impl Turn {
    /// Adds a frame to the turn; false if it is too large to encode.
    fn push(&mut self, frame: Outgoing) -> bool {
        let encoded = match frame {
            Outgoing::Frame(frame) => encode_into(&mut self.buf, &frame),
            Outgoing::Completion(c) => {
                let result = match &c.result {
                    Ok(resp) => {
                        let (rows, cols) = (resp.c.nrows() as u32, resp.c.ncols() as u32);
                        Ok((rows, cols, resp.c.as_slice(), resp.report))
                    }
                    Err(e) => Err((e.wire_code(), &*e.to_string())),
                };
                encode_completion_apart(&mut self.buf, c.id, result).map(|at| {
                    self.held_bytes += result_bytes(&c).len();
                    self.held.push((at, c));
                })
            }
        };
        self.frames += u64::from(encoded.is_ok());
        encoded.is_ok()
    }

    /// The turn's bytes so far.
    fn len(&self) -> usize {
        self.buf.len() + self.held_bytes
    }

    /// Writes and empties the turn; false if the write failed. Counted
    /// before the write, so a client never reads a frame the counters do
    /// not hold yet.
    fn write_to(&mut self, out: &mut impl Write) -> bool {
        metrics::frames_out_total().add(self.frames);
        metrics::bytes_out_total().add(self.len() as u64);
        let written = self.len() == 0 || self.write_all(out).is_ok();
        self.buf.clear();
        self.held.clear();
        self.held_bytes = 0;
        self.frames = 0;
        written
    }

    /// `buf` with every held result in its place, through as many
    /// `write_vectored` calls as `out` needs to take it all.
    fn write_all(&self, out: &mut impl Write) -> io::Result<()> {
        let mut slices = Vec::with_capacity(2 * self.held.len() + 1);
        let mut from = 0;
        for (at, c) in &self.held {
            slices.push(IoSlice::new(self.buf.get(from..*at).unwrap_or_default()));
            slices.push(IoSlice::new(result_bytes(c)));
            from = *at;
        }
        slices.push(IoSlice::new(self.buf.get(from..).unwrap_or_default()));
        let mut left = slices.as_mut_slice();
        while !left.is_empty() {
            match out.write_vectored(left) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The outbound thread: the connection's one socket-write site. Each turn
/// routes what has finished and takes the whole outbox under one hold of
/// the connection lock, adds it to the [`Turn`], writes that through one
/// `write_vectored` loop with each result matrix sent from where it lies,
/// and parks when there was nothing to write. Ends once the reader
/// has closed and the stream is drained: no submit follows `closing`, so
/// that state is final. A failed write (or a frame too large to encode)
/// stops the writing but not the draining, so the connection still leaves
/// with its in-flight work accounted for.
fn outbound_loop(mut out: TcpStream, state: &Mutex<ConnState>, waker: &Waker) {
    let mut cx = Context::from_waker(waker);
    let mut turn = Turn::default();
    let mut frames = Vec::new();
    let mut writable = true;
    loop {
        let done = {
            let mut st = state.lock();
            let drained = st.route_finished(&mut cx);
            std::mem::swap(&mut st.outbox, &mut frames);
            st.closing && drained
        };
        let idle = frames.is_empty();
        for frame in frames.drain(..) {
            if !writable {
                break;
            }
            let encoded = turn.push(frame);
            if !encoded || turn.len() >= TURN_BYTES {
                writable = turn.write_to(&mut out) && encoded;
            }
        }
        writable = writable && turn.write_to(&mut out);
        if done {
            break;
        }
        if idle {
            thread::park();
        }
    }
}

/// Runs one client connection to completion. Called from the accept
/// loop's per-connection thread, which becomes the connection's reader.
pub(crate) fn handle_conn(stream: TcpStream, ctx: ConnContext) {
    metrics::connections().add(1.0);
    metrics::connections_total().inc();

    let (sink, completions) = completion_channel::<f64>();
    let shared = Arc::new(Mutex::new(ConnState {
        outbox: Vec::new(),
        completions,
        in_flight: 0,
        closing: false,
    }));
    let outbound = stream.try_clone().and_then(|out| {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("ftgemm-net-outbound".to_string())
            .spawn(move || {
                let waker = Waker::from(Arc::new(Unpark(thread::current())));
                outbound_loop(out, &shared, &waker);
            })
    });
    let Ok(outbound) = outbound else {
        metrics::connections().add(-1.0);
        return;
    };
    let waker = Waker::from(Arc::new(Unpark(outbound.thread().clone())));
    let mut cx = Context::from_waker(&waker);

    let mut owned: HashSet<u64> = HashSet::new();
    let mut hello_done = false;
    let mut stop_server = false;
    let mut reader = BufReader::new(stream);
    let mut body = Vec::new();

    {
        // The reader's only way to answer: queue the frame and wake the
        // outbound thread. Never a socket write.
        let reply = |mut st: MutexGuard<'_, ConnState>, frame: Outgoing| {
            st.outbox.push(frame);
            drop(st);
            outbound.thread().unpark();
        };
        let send = |frame: Frame| reply(shared.lock(), Outgoing::Frame(frame));
        let protocol_error = |id: u64, code: u16, message: String| {
            metrics::protocol_errors_total().inc();
            send(Frame::Error { id, code, message });
        };

        while let Ok((event, n)) = take_frame(&mut reader, ctx.max_frame, &mut body) {
            metrics::bytes_in_total().add(n);
            let frame = match event {
                ReadEvent::Eof => break,
                ReadEvent::TooLarge { len } => {
                    protocol_error(
                        0,
                        error_code::FRAME_TOO_LARGE,
                        format!("frame of {len} bytes exceeds max {}", ctx.max_frame),
                    );
                    continue;
                }
                ReadEvent::Malformed(WireError::UnknownVerb(v)) => {
                    protocol_error(0, error_code::UNKNOWN_VERB, format!("unknown verb {v}"));
                    continue;
                }
                ReadEvent::Malformed(e) => {
                    protocol_error(0, error_code::MALFORMED_FRAME, e.to_string());
                    continue;
                }
                ReadEvent::Frame(f) => f,
            };
            metrics::frames_in_total().inc();

            if !hello_done {
                match frame {
                    Frame::Hello { version, features } => {
                        if version != PROTO_VERSION {
                            protocol_error(
                                0,
                                error_code::UNSUPPORTED_VERSION,
                                format!(
                                    "server speaks version {PROTO_VERSION}, client sent {version}"
                                ),
                            );
                        } else {
                            hello_done = true;
                            send(Frame::ServerHello {
                                version: PROTO_VERSION,
                                features: features & FEATURES,
                                max_frame: ctx.max_frame,
                            });
                        }
                    }
                    _ => protocol_error(
                        0,
                        error_code::EXPECTED_HELLO,
                        "first frame must be Hello".into(),
                    ),
                }
                continue;
            }

            match frame {
                Frame::Hello { .. } => {
                    // Re-negotiation is a no-op; answer with the same hello.
                    send(Frame::ServerHello {
                        version: PROTO_VERSION,
                        features: FEATURES,
                        max_frame: ctx.max_frame,
                    });
                }
                Frame::UploadOperand { rows, cols, data } => {
                    match Matrix::from_col_major(rows as usize, cols as usize, &data) {
                        Err(e) => protocol_error(0, error_code::MALFORMED_FRAME, e.to_string()),
                        Ok(m) => match ctx.store.insert(m) {
                            Ok((handle, resident_bytes)) => {
                                owned.insert(handle);
                                send(Frame::OperandHandle {
                                    handle,
                                    resident_bytes,
                                });
                            }
                            Err(e) => protocol_error(
                                0,
                                error_code::OPERAND_BUDGET,
                                format!(
                                    "operand of {} bytes exceeds store budget of {}",
                                    e.bytes, e.budget
                                ),
                            ),
                        },
                    }
                }
                Frame::Submit(s) => {
                    let at_cap = {
                        let mut st = shared.lock();
                        if st.in_flight >= ctx.max_in_flight {
                            st.route_finished(&mut cx);
                        }
                        st.in_flight >= ctx.max_in_flight
                    };
                    if at_cap {
                        protocol_error(
                            0,
                            error_code::TOO_MANY_IN_FLIGHT,
                            format!(
                                "connection already has {} requests in flight",
                                ctx.max_in_flight
                            ),
                        );
                        continue;
                    }
                    let req = match build_request(s, &ctx.store) {
                        Ok(r) => r,
                        Err((code, message)) => {
                            protocol_error(0, code, message);
                            continue;
                        }
                    };
                    // Hold the lock across submit so the ack is queued
                    // before anyone can route the completion: an ack always
                    // precedes its completion in the outbox.
                    let mut st = shared.lock();
                    let answer = match ctx.service.submit_streamed(req, &sink) {
                        Ok(id) => {
                            st.in_flight += 1;
                            Frame::SubmitAck { id }
                        }
                        Err(e) => serve_error_frame(0, &e),
                    };
                    reply(st, Outgoing::Frame(answer));
                }
                Frame::ReleaseHandle { handle } => {
                    if owned.remove(&handle) {
                        // Best-effort: the store entry may already be evicted.
                        ctx.store.release(handle);
                        send(Frame::Released { handle });
                    } else {
                        protocol_error(
                            0,
                            error_code::UNKNOWN_HANDLE,
                            format!("handle {handle} is not owned by this connection"),
                        );
                    }
                }
                Frame::Shutdown => {
                    send(Frame::Goodbye);
                    stop_server = true;
                    break;
                }
                // Server→client frames arriving server-bound.
                Frame::ServerHello { .. }
                | Frame::OperandHandle { .. }
                | Frame::SubmitAck { .. }
                | Frame::Completion(_)
                | Frame::Released { .. }
                | Frame::Goodbye
                | Frame::Error { .. } => {
                    protocol_error(
                        0,
                        error_code::MALFORMED_FRAME,
                        format!("verb {} is server-to-client only", frame.verb()),
                    );
                }
            }
        }
    }

    // Teardown: let the outbound thread drain in-flight work and stop;
    // return owned operands to the store.
    shared.lock().closing = true;
    outbound.thread().unpark();
    let _ = outbound.join();
    // Un-counted before its handles go, which a reader can see.
    metrics::connections().add(-1.0);
    for handle in owned {
        ctx.store.release(handle);
    }

    if stop_server {
        ctx.stop.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_frame;
    use crate::proto::{CompletionFrame, CompletionOk};
    use ftgemm_abft::FtReport;
    use ftgemm_serve::GemmResponse;

    /// A writer that takes at most `cap` bytes per call, across slices, and
    /// fails its first call with `Interrupted` if `interrupt`.
    struct Capped {
        bytes: Vec<u8>,
        cap: usize,
        interrupt: bool,
    }

    impl Write for Capped {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if std::mem::take(&mut self.interrupt) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.cap - n);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A successful completion of a `rows x cols` result, and its frame.
    fn done(id: u64, rows: usize, cols: usize) -> (Outgoing, Frame) {
        let c = Matrix::from_fn(rows, cols, |i, j| (i * 31 + j) as f64 * 0.37 - 1.0);
        let report = FtReport {
            verifications: 1 + id as usize,
            detected: 2,
            corrected: 3,
            injected: 4,
            retried_panels: 5,
        };
        let frame = Frame::Completion(CompletionFrame {
            id,
            result: Ok(CompletionOk {
                rows: rows as u32,
                cols: cols as u32,
                data: c.as_slice().to_vec(),
                verifications: report.verifications as u64,
                detected: 2,
                corrected: 3,
                injected: 4,
                retried_panels: 5,
            }),
        });
        let resp = GemmResponse {
            c,
            report,
            batched: true,
        };
        let result = Ok(resp);
        (Outgoing::Completion(Completion { id, result }), frame)
    }

    /// One turn of every kind of frame, its results sent from where they lie,
    /// is the bytes `encode_frame` gives its frames back to back — through
    /// writers that take any number of bytes per call, or fail a call with
    /// `Interrupted`.
    #[test]
    fn a_vectored_turn_is_the_encoded_frames_back_to_back() {
        let late = ServeError::DeadlineExceeded("deadline passed in queue".into());
        let writers = [(1, false), (7, false), (4096, false), (usize::MAX, false)];
        for (cap, interrupt) in writers.into_iter().chain([(4096, true)]) {
            let error = Frame::Error {
                id: 0,
                code: error_code::UNKNOWN_HANDLE,
                message: "operand handle 9 is not resident".into(),
            };
            let failed = Frame::Completion(CompletionFrame {
                id: 5,
                result: Err((late.wire_code(), late.to_string())),
            });
            let (mut turn, mut want) = (Turn::default(), Vec::new());
            for (out, frame) in [
                (
                    Outgoing::Frame(Frame::SubmitAck { id: 1 }),
                    Frame::SubmitAck { id: 1 },
                ),
                done(1, 1, 1),
                (Outgoing::Frame(error.clone()), error),
                done(2, 48, 64),
                (
                    Outgoing::Completion(Completion {
                        id: 5,
                        result: Err(late.clone()),
                    }),
                    failed,
                ),
                (
                    Outgoing::Frame(Frame::SubmitAck { id: 6 }),
                    Frame::SubmitAck { id: 6 },
                ),
                done(6, 128, 128),
            ] {
                assert!(turn.push(out));
                want.extend(encode_frame(&frame));
            }
            assert_eq!((turn.len(), turn.frames), (want.len(), 7));
            let mut out = Capped {
                bytes: Vec::new(),
                cap,
                interrupt,
            };
            assert!(turn.write_to(&mut out), "{cap} bytes per call");
            assert!(out.bytes == want, "{cap} bytes per call");
            assert_eq!((turn.len(), turn.held.len()), (0, 0));
        }
    }
}
