//! `ftgemm_net_*` metric families, registered in the global
//! [`Registry`](ftgemm_obs::Registry) so every `/metrics` scrape
//! ([`ObsServer`](ftgemm_obs::ObsServer)) exports them alongside the
//! service families from `ftgemm-serve`.
//!
//! | family | type | meaning |
//! |---|---|---|
//! | `ftgemm_net_connections` | gauge | currently open client connections |
//! | `ftgemm_net_connections_total` | counter | connections accepted since start |
//! | `ftgemm_net_frames_in_total` | counter | well-formed frames received |
//! | `ftgemm_net_frames_out_total` | counter | frames sent (counted as handed to the socket) |
//! | `ftgemm_net_bytes_in_total` | counter | wire bytes received (incl. discarded oversize frames) |
//! | `ftgemm_net_bytes_out_total` | counter | wire bytes sent (counted as handed to the socket) |
//! | `ftgemm_net_protocol_errors_total` | counter | error frames sent for protocol-level failures (malformed, oversize, unknown verb/handle, bad version, ...) |
//! | `ftgemm_net_resident_operand_bytes` | gauge | bytes held by server-resident operands |
//! | `ftgemm_net_operand_handles` | gauge | live operand handles |
//! | `ftgemm_net_operand_evictions_total` | counter | operands evicted by the byte budget |
//!
//! The global registry is process-wide (shared across every server in the
//! process and across tests), so tests that need exact numbers assert
//! against the per-store accessors on
//! [`OperandStore`](crate::OperandStore) instead; these families are for
//! scraping.

use ftgemm_obs::{global_counter, global_gauge, Counter, Gauge};

/// Registers every family (at its current value) so a scrape sees the
/// full table from server start, not just the families that have already
/// fired. Called by `NetServer::start`.
pub(crate) fn register_all() {
    connections();
    connections_total();
    frames_in_total();
    frames_out_total();
    bytes_in_total();
    bytes_out_total();
    protocol_errors_total();
    resident_operand_bytes();
    operand_handles();
    operand_evictions_total();
}

pub(crate) fn connections() -> &'static Gauge {
    global_gauge!(
        "ftgemm_net_connections",
        "Currently open wire-frontend client connections."
    )
}

pub(crate) fn connections_total() -> &'static Counter {
    global_counter!(
        "ftgemm_net_connections_total",
        "Wire-frontend connections accepted since process start."
    )
}

pub(crate) fn frames_in_total() -> &'static Counter {
    global_counter!(
        "ftgemm_net_frames_in_total",
        "Well-formed wire frames received."
    )
}

pub(crate) fn frames_out_total() -> &'static Counter {
    global_counter!("ftgemm_net_frames_out_total", "Wire frames sent.")
}

pub(crate) fn bytes_in_total() -> &'static Counter {
    global_counter!(
        "ftgemm_net_bytes_in_total",
        "Wire bytes received, including discarded oversized frames."
    )
}

pub(crate) fn bytes_out_total() -> &'static Counter {
    global_counter!("ftgemm_net_bytes_out_total", "Wire bytes sent.")
}

pub(crate) fn protocol_errors_total() -> &'static Counter {
    global_counter!(
        "ftgemm_net_protocol_errors_total",
        "Error frames sent for protocol-level failures (malformed frame, oversize frame, unknown verb/handle, unsupported version, in-flight cap)."
    )
}

pub(crate) fn resident_operand_bytes() -> &'static Gauge {
    global_gauge!(
        "ftgemm_net_resident_operand_bytes",
        "Bytes held by server-resident operands in the operand store."
    )
}

pub(crate) fn operand_handles() -> &'static Gauge {
    global_gauge!(
        "ftgemm_net_operand_handles",
        "Live operand handles in the operand store."
    )
}

pub(crate) fn operand_evictions_total() -> &'static Counter {
    global_counter!(
        "ftgemm_net_operand_evictions_total",
        "Server-resident operands evicted by the store's byte budget."
    )
}
