//! Transport constants shared by the protocol layers.
//!
//! * **TLS version** — TLS 1.3 completes a full handshake in one round
//!   trip (RFC 8446), TLS 1.2 in two; the proxy model charges the extra
//!   TLS 1.2 round trip when a measurement selects it.
//! * **UDP retransmission** — a stub resolver that loses a datagram
//!   waits [`UDP_RETRY_TIMEOUT`] before it retries.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// TLS protocol version, which determines handshake round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlsVersion {
    /// Two round-trip full handshake.
    V1_2,
    /// One round-trip full handshake (RFC 8446).
    V1_3,
}

/// Default DNS stub-resolver retransmission timeout.
pub const UDP_RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(1000);
