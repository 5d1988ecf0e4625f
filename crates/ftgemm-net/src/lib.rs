//! TCP wire frontend for the FT-GEMM service: "serving" over a socket.
//!
//! The rest of the workspace is a deep in-process serving stack —
//! [`GemmService`](ftgemm_serve::GemmService) with completion-channel submission,
//! batching, deadlines, and a `/metrics` endpoint. This crate puts that stack
//! on the network: [`NetServer`] accepts TCP connections speaking a
//! small, versioned, length-prefixed binary protocol (no external
//! dependencies; `std::net` all the way down, like `ftgemm-obs`'s
//! `ObsServer`), and [`NetClient`] is the matching blocking client.
//!
//! The protocol's centerpiece is operand reuse: a client uploads its
//! `A`/`B` matrices once ([`Frame::UploadOperand`]), gets back
//! server-resident handles, and then fires any number of submits against
//! them — each submit ships a few dozen header bytes instead of the
//! matrices, and the server builds requests against shared
//! (`Arc`-backed, zero-copy) operands. The full
//! [`GemmRequest`](ftgemm_serve::GemmRequest) surface rides in the submit
//! header: FT policy and deadline, so deadline admission control and
//! shedding are first-class wire errors (of three reserved header fields,
//! `priority` and `tenant` are decoded and ignored, and the hold byte must
//! be 0). Every completion is pushed to the client as its request
//! finishes.
//!
//! Module map:
//! - [`proto`]: frame vocabulary, version/feature constants, pinned verb
//!   bytes and error codes.
//! - [`codec`]: total encode/decode plus blocking frame I/O that survives
//!   oversized and malformed frames.
//! - [`store`]: [`OperandStore`] — ref-counted server-resident operands
//!   with byte-budget LRU eviction. Each operand's sums are pinned at
//!   upload, every protected product that reads it checks the data against
//!   them, and the store quarantines an operand a product found changed
//!   (`Off` submits verify nothing, so they cannot see a change).
//! - `conn`: per-connection reader and outbound threads bridging into
//!   `submit_streamed`.
//! - [`server`] / [`client`]: the two endpoints.
//! - `metrics`: the `ftgemm_net_*` metric families (documented there).
//!
//! No `unsafe` here: a matrix goes onto the wire as its in-memory bytes
//! through `ftgemm_core::scalar::f64_bytes`, which are the wire's
//! little-endian bytes only on a little-endian target — hence the one
//! target requirement below.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

#[cfg(not(target_endian = "little"))]
compile_error!(
    "the wire format is little-endian, and frames carry matrices as their in-memory bytes"
);

pub mod client;
pub mod codec;
mod conn;
mod metrics;
pub mod proto;
pub mod server;
pub mod store;

pub use client::{ClientError, NetClient, NetSubmit};
pub use codec::{ReadEvent, WireError};
pub use proto::{
    error_code, CompletionFrame, CompletionOk, Frame, OperandRef, SubmitFrame, FEATURES,
    PROTO_VERSION,
};
pub use server::{NetServer, NetServerConfig};
pub use store::{BudgetExceeded, OperandStore, StoreGetError};
