//! Per-connection protocol state machine: a reader thread (this module's
//! entry point) and one outbound thread.
//!
//! The reader owns the protocol: it decodes frames, resolves operand
//! handles against the shared [`OperandStore`], and bridges admissions
//! into [`GemmService::submit_streamed`]. It never writes to the socket —
//! every response goes into the connection's outbox — so a client that
//! pipelines requests without reading its responses can fill the socket's
//! send buffer without stopping the reader from draining the receive side.
//! That is the deadlock a single thread per connection would have, and why
//! a connection is two threads and not one.
//!
//! The outbound thread is the one socket-write site. It owns the write
//! half and the connection's [`Completions`] stream, and multiplexes the
//! two sources: the reader's outbox, and finished requests taken with
//! [`Completions::poll_next`], which either go straight onto the wire
//! (stream delivery) or are parked in the held table for Poll/Wait (hold
//! delivery). Between events it parks; the reader unparks it after every
//! outbox push, the completion channel's waker unparks it when a request
//! finishes.
//!
//! Every protocol-level failure (malformed frame, oversize frame, unknown
//! verb/handle/request, unsupported version, in-flight cap) is answered
//! with a typed [`Frame::Error`] and the connection stays alive; only I/O
//! failure or an explicit Shutdown ends it. On exit — clean or not — the
//! connection joins its outbound thread and releases every operand handle
//! it owns, so a killed client returns the store's resident bytes to
//! baseline.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use ftgemm_abft::FtPolicy;
use ftgemm_core::Matrix;
use ftgemm_obs::StopHandle;
use ftgemm_serve::{
    completion_channel, Completion, Completions, GemmRequest, GemmService, Operand, Priority,
    ServeError,
};

use crate::codec::{read_frame, write_frame, ReadEvent, WireError};
use crate::metrics;
use crate::proto::{
    error_code, CompletionFrame, CompletionOk, Frame, OperandRef, SubmitFrame, FEATURES,
    PROTO_VERSION,
};
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

/// State shared between the reader and the outbound thread.
struct SharedState {
    /// Frames the reader wants written, in order.
    outbox: Vec<Frame>,
    /// Hold-delivery requests: id -> parked completion (None until it
    /// finishes). Ids are inserted under the lock *before* submit returns,
    /// so the outbound thread can never race a completion past its
    /// registration.
    held: HashMap<u64, Option<CompletionFrame>>,
    /// The reader has exited; the outbound thread drains in-flight work
    /// and stops.
    closing: bool,
}

struct Shared {
    state: Mutex<SharedState>,
    /// Wakes a reader blocked in Wait (held completion arrived).
    held_ready: Condvar,
    /// Unfinished submits, against [`ConnContext::max_in_flight`]. A plain
    /// Relaxed counter: the cap is advisory backpressure, not a
    /// synchronization point.
    in_flight: AtomicUsize,
}

/// Waker for [`Completions::poll_next`]: unparks the outbound thread.
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

fn completion_to_frame(c: Completion<f64>) -> CompletionFrame {
    let result = match c.result {
        Ok(resp) => Ok(CompletionOk {
            rows: resp.c.nrows() as u32,
            cols: resp.c.ncols() as u32,
            data: resp.c.as_slice().to_vec(),
            verifications: resp.report.verifications as u64,
            detected: resp.report.detected as u64,
            corrected: resp.report.corrected as u64,
            injected: resp.report.injected as u64,
            retried_panels: resp.report.retried_panels as u64,
        }),
        Err(e) => Err((e.wire_code(), e.to_string())),
    };
    CompletionFrame { id: c.id, result }
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
                                "operand handle {h} was quarantined by the scrubber (resident bytes no longer match upload-time checksums); release and re-upload"
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
    let c = match s.c {
        Some((rows, cols, data)) => Matrix::from_col_major(rows as usize, cols as usize, &data)
            .map_err(|e| (error_code::MALFORMED_FRAME, e.to_string()))?,
        None => Matrix::zeros(a.nrows(), b.ncols()),
    };
    // Discriminants are codec-validated (<= 2), so these matches are total.
    let policy = match s.policy {
        0 => FtPolicy::Off,
        1 => FtPolicy::Detect,
        _ => FtPolicy::DetectCorrect,
    };
    let priority = match s.priority {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    };
    Ok(GemmRequest {
        alpha: s.alpha,
        a,
        b,
        beta: s.beta,
        c,
        policy,
        injector: None,
        home: None,
        tenant: s.tenant,
        priority,
        deadline: (s.deadline_ns > 0).then(|| Duration::from_nanos(s.deadline_ns)),
    })
}

/// The outbound thread: the connection's one socket-write site. Each turn
/// takes at most one finished request and, under one hold of the shared
/// lock, the reader's whole outbox; writes them; and parks when a turn had
/// nothing to do. Ends once the reader has closed and nothing is in
/// flight. A failed write stops the writing but not the draining, so the
/// connection still leaves with its in-flight work accounted for.
fn outbound_loop(mut out: TcpStream, mut completions: Completions<f64>, shared: &Shared) {
    let waker = Waker::from(Arc::new(Unpark(thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut writable = true;
    let mut closing = false;
    loop {
        // `closing` as of the previous turn: if the reader had already
        // finished before this poll, an empty stream now stays empty.
        let reader_done = closing;
        let finished = match completions.poll_next(&mut cx) {
            Poll::Ready(Some(c)) => Some(completion_to_frame(c)),
            Poll::Ready(None) if reader_done => break,
            Poll::Ready(None) | Poll::Pending => None,
        };
        let delivered = finished.is_some();
        // The completion was polled before the outbox is taken, and the
        // reader queues a SubmitAck under the lock it submits under, so an
        // ack always precedes its completion on the wire.
        let (mut frames, streamed) = {
            let mut st = shared.state.lock();
            closing = st.closing;
            let frames = std::mem::take(&mut st.outbox);
            let streamed = finished.and_then(|frame| match st.held.get_mut(&frame.id) {
                Some(slot) => {
                    *slot = Some(frame);
                    shared.held_ready.notify_all();
                    None
                }
                None => Some(Frame::Completion(frame)),
            });
            (frames, streamed)
        };
        frames.extend(streamed);
        let idle = frames.is_empty() && !delivered;
        for frame in frames {
            if !writable {
                break;
            }
            match write_frame(&mut out, &frame) {
                Ok(n) => {
                    metrics::frames_out_total().inc();
                    metrics::bytes_out_total().add(n);
                }
                Err(_) => writable = false,
            }
        }
        if delivered {
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        // The turn that first sees `closing` goes round again instead, so
        // the next poll can tell a drained stream from a momentarily
        // empty one.
        if idle && closing == reader_done {
            thread::park();
        }
    }
}

/// Runs one client connection to completion. Called from the accept
/// loop's per-connection thread, which becomes the connection's reader.
pub(crate) fn handle_conn(stream: TcpStream, ctx: ConnContext) {
    metrics::connections().add(1.0);
    metrics::connections_total().inc();

    let shared = Arc::new(Shared {
        state: Mutex::new(SharedState {
            outbox: Vec::new(),
            held: HashMap::new(),
            closing: false,
        }),
        held_ready: Condvar::new(),
        in_flight: AtomicUsize::new(0),
    });
    let (sink, completions) = completion_channel::<f64>();
    let outbound = stream.try_clone().and_then(|out| {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("ftgemm-net-outbound".to_string())
            .spawn(move || outbound_loop(out, completions, &shared))
    });
    let Ok(outbound) = outbound else {
        metrics::connections().add(-1.0);
        return;
    };

    let mut owned: HashSet<u64> = HashSet::new();
    let mut hello_done = false;
    let mut stop_server = false;
    let mut reader = BufReader::new(stream);

    {
        // The reader's only way to answer: queue the frame and wake the
        // outbound thread. Never a socket write.
        let send = |frame: Frame| {
            shared.state.lock().outbox.push(frame);
            outbound.thread().unpark();
        };
        let protocol_error = |id: u64, code: u16, message: String| {
            metrics::protocol_errors_total().inc();
            send(Frame::Error { id, code, message });
        };

        while let Ok((event, n)) = read_frame(&mut reader, ctx.max_frame) {
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
                    if shared.in_flight.load(Ordering::Relaxed) >= ctx.max_in_flight {
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
                    let hold = s.hold;
                    let req = match build_request(s, &ctx.store) {
                        Ok(r) => r,
                        Err((code, message)) => {
                            protocol_error(0, code, message);
                            continue;
                        }
                    };
                    // Hold the shared lock across submit so a hold-delivery id
                    // is registered, and the ack queued, before the outbound
                    // thread can route the completion.
                    let mut st = shared.state.lock();
                    shared.in_flight.fetch_add(1, Ordering::Relaxed);
                    match ctx.service.submit_streamed(req, &sink) {
                        Ok(id) => {
                            if hold {
                                st.held.insert(id, None);
                            }
                            st.outbox.push(Frame::SubmitAck { id });
                            drop(st);
                            outbound.thread().unpark();
                        }
                        Err(e) => {
                            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                            drop(st);
                            send(serve_error_frame(0, &e));
                        }
                    }
                }
                Frame::Poll { id } => {
                    let mut st = shared.state.lock();
                    match st.held.get_mut(&id) {
                        None => {
                            drop(st);
                            protocol_error(
                                id,
                                error_code::UNKNOWN_REQUEST,
                                format!("request {id} is not held on this connection"),
                            );
                        }
                        Some(slot) => match slot.take() {
                            Some(c) => {
                                st.held.remove(&id);
                                drop(st);
                                send(Frame::Completion(c));
                            }
                            None => {
                                drop(st);
                                send(Frame::Pending { id });
                            }
                        },
                    }
                }
                Frame::Wait { id } => {
                    let mut st = shared.state.lock();
                    if !st.held.contains_key(&id) {
                        drop(st);
                        protocol_error(
                            id,
                            error_code::UNKNOWN_REQUEST,
                            format!("request {id} is not held on this connection"),
                        );
                        continue;
                    }
                    while matches!(st.held.get(&id), Some(None)) {
                        shared.held_ready.wait(&mut st);
                    }
                    match st.held.remove(&id) {
                        Some(Some(c)) => {
                            drop(st);
                            send(Frame::Completion(c));
                        }
                        // Only this reader thread removes held entries, so
                        // the slot it just observed cannot vanish — but a
                        // protocol error beats a poisoned connection if
                        // that invariant ever breaks.
                        _ => {
                            drop(st);
                            protocol_error(
                                id,
                                error_code::UNKNOWN_REQUEST,
                                format!("request {id} was lost while waiting"),
                            );
                        }
                    }
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
                | Frame::Pending { .. }
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
    shared.state.lock().closing = true;
    outbound.thread().unpark();
    let _ = outbound.join();
    for handle in owned {
        ctx.store.release(handle);
    }
    metrics::connections().add(-1.0);

    if stop_server {
        ctx.stop.stop();
    }
}
