//! Per-(client, provider) connection lifecycle for encrypted DNS
//! transports (DESIGN.md §13).
//!
//! The paper measures DoH against Do53 only; this module adds the
//! connection lifecycle needed to compare the full encrypted-DNS
//! family — DoH (RFC 8484), DoT (RFC 7858) and DoQ (RFC 9250) — under
//! explicit cold/warm/resumed connection states:
//!
//! * **Cold** — no prior state. DoT and DoH pay a TCP three-way
//!   handshake (1 RTT) plus a TLS 1.3 full handshake (1 RTT). DoQ
//!   combines transport and crypto setup in a single QUIC Initial
//!   flight (1 RTT).
//! * **Warm** — an established connection inside its keep-alive window
//!   is reused for free (HTTP/2 stream for DoH, pipelined query for
//!   DoT, new QUIC stream for DoQ).
//! * **Resumed** — the connection idled out but a session ticket
//!   survives. DoT/DoH rebuild TCP (1 RTT) and resume TLS 1.3 for free;
//!   DoQ sends the query as 0-RTT early data (0 RTTs).
//!
//! Loss recovery also differs per stack: a lost segment under TCP
//! stalls every HTTP/2 stream behind the retransmission
//! (head-of-line blocking, ≈2 RTTs until recovery), while QUIC
//! retransmits within the affected stream only (≈1 RTT). The
//! [`loss_stall_rtts`](DnsTransport::loss_stall_rtts) constants encode
//! that asymmetry so packet loss visibly separates
//! H2 from QUIC in the tail quantiles.
//!
//! Everything here is deterministic: the lifecycle consumes no
//! randomness, idle timeouts are fixed per transport, and each
//! re-established connection carries a monotonically increasing
//! *generation* tag so reuse-after-timeout can never be confused with
//! reuse of the original connection.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Stub-resolver retransmission timeout: a Do53 query whose datagram
/// is lost waits this long before it retries.
pub const UDP_RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(1000);

/// The four DNS transports of the extended campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DnsTransport {
    /// Classic UDP port-53 DNS (RFC 1035) — connectionless.
    Do53,
    /// DNS over HTTPS (RFC 8484): TCP + TLS 1.3 + HTTP/2 framing.
    DoH,
    /// DNS over TLS (RFC 7858): TCP + TLS 1.3, 2-byte length framing.
    DoT,
    /// DNS over dedicated QUIC (RFC 9250): 1-RTT setup, 0-RTT resume.
    DoQ,
}

impl DnsTransport {
    /// All transports, in canonical campaign order.
    pub const ALL: [DnsTransport; 4] = [
        DnsTransport::Do53,
        DnsTransport::DoH,
        DnsTransport::DoT,
        DnsTransport::DoQ,
    ];

    /// Lower-case wire name, as accepted by `repro --protocols`.
    pub fn name(self) -> &'static str {
        match self {
            DnsTransport::Do53 => "do53",
            DnsTransport::DoH => "doh",
            DnsTransport::DoT => "dot",
            DnsTransport::DoQ => "doq",
        }
    }

    /// The RFC defining the transport.
    pub fn rfc(self) -> &'static str {
        match self {
            DnsTransport::Do53 => "RFC 1035",
            DnsTransport::DoH => "RFC 8484",
            DnsTransport::DoT => "RFC 7858",
            DnsTransport::DoQ => "RFC 9250",
        }
    }

    /// Parse a lower-case protocol name (`do53`, `doh`, `dot`, `doq`).
    pub fn parse(s: &str) -> Option<DnsTransport> {
        DnsTransport::ALL.into_iter().find(|t| t.name() == s)
    }

    /// Whether the transport encrypts queries (everything but Do53).
    pub fn is_encrypted(self) -> bool {
        !matches!(self, DnsTransport::Do53)
    }

    /// Round trips to establish a usable connection from the given
    /// warmth. Do53 is connectionless and always free.
    pub fn handshake_rtts(self, warmth: Warmth) -> u32 {
        match (self, warmth) {
            (DnsTransport::Do53, _) => 0,
            (_, Warmth::Warm) => 0,
            // TCP 3-way (1) + TLS 1.3 full handshake (1).
            (DnsTransport::DoH | DnsTransport::DoT, Warmth::Cold) => 2,
            // TCP 3-way (1) + TLS 1.3 PSK resumption (0).
            (DnsTransport::DoH | DnsTransport::DoT, Warmth::Resumed) => 1,
            // QUIC combines transport + crypto in one Initial flight.
            (DnsTransport::DoQ, Warmth::Cold) => 1,
            // QUIC 0-RTT: the query rides in the first flight.
            (DnsTransport::DoQ, Warmth::Resumed) => 0,
        }
    }

    /// Round trips stalled when a segment of an in-flight query is
    /// lost. TCP-based stacks (DoH's HTTP/2, DoT) block every stream
    /// behind the retransmission — detection plus recovery costs about
    /// two extra round trips. QUIC recovers within the affected stream
    /// in one. Do53 instead waits out the stub-resolver retransmission
    /// timer (see [`UDP_RETRY_TIMEOUT`]).
    pub fn loss_stall_rtts(self) -> u32 {
        match self {
            DnsTransport::Do53 => 0,
            DnsTransport::DoH | DnsTransport::DoT => 2,
            DnsTransport::DoQ => 1,
        }
    }

    /// Application-framing multiplier applied to the HTTPS message
    /// overhead draw. DoH pays full HTTP/2 HEADERS+DATA framing
    /// (factor 1); DoT's 2-byte length prefix, with no HTTP headers to
    /// serialise or parse, trims it to 0.65; DoQ's QUIC+"doq" framing
    /// sits between the two. Do53 carries bare DNS messages.
    pub fn framing_factor(self) -> f64 {
        match self {
            DnsTransport::Do53 => 0.0,
            DnsTransport::DoH => 1.0,
            DnsTransport::DoT => 0.65,
            DnsTransport::DoQ => 0.8,
        }
    }

    /// Deterministic keep-alive idle timeout. TCP-based transports use
    /// a conservative 10 s server keep-alive; QUIC advertises a longer
    /// 30 s `max_idle_timeout`, reflecting RFC 9250's guidance to keep
    /// connections open across queries. Do53 is connectionless — there
    /// is nothing to time out, so its reuse window never closes (every
    /// query costs the same regardless of warmth).
    pub fn idle_timeout(self) -> SimDuration {
        match self {
            DnsTransport::Do53 => SimDuration::MAX,
            DnsTransport::DoH | DnsTransport::DoT => SimDuration::from_millis(10_000),
            DnsTransport::DoQ => SimDuration::from_millis(30_000),
        }
    }
}

/// Connection warmth at the moment a query is issued — the campaign's
/// cold/warm dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Warmth {
    /// No prior state: full handshake required.
    Cold,
    /// Session ticket held, connection idled out: abbreviated
    /// (TLS 1.3 PSK / QUIC 0-RTT) re-establishment.
    Resumed,
    /// Established connection inside its keep-alive window.
    Warm,
}

impl Warmth {
    /// Lower-case label used in flight-recorder span attributes.
    pub fn name(self) -> &'static str {
        match self {
            Warmth::Cold => "cold",
            Warmth::Resumed => "resumed",
            Warmth::Warm => "warm",
        }
    }
}

/// What [`Connection::acquire`] decided for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Cold, resumed or warm — determines the handshake bill.
    pub warmth: Warmth,
    /// Generation of the connection servicing the query. Starts at 1
    /// on the first handshake and increments on every
    /// re-establishment, so a reuse after timeout is distinguishable
    /// from a reuse of the original connection.
    pub generation: u32,
}

/// A per-(client, provider) connection lifecycle.
///
/// The lifecycle is purely mechanical — it consumes no randomness and
/// performs no I/O; callers charge the RTT bill that
/// [`DnsTransport::handshake_rtts`] prescribes for the returned
/// [`Warmth`]. Warmth follows from the generation and the idle timeout
/// alone:
///
/// ```text
/// generation 0                        ──► Cold     (generation 1)
/// idle gap ≤ idle_timeout             ──► Warm     (same generation)
/// idle gap > idle_timeout (ticket held) ► Resumed  (generation + 1)
/// ```
///
/// ```
/// use dohperf_netsim::connection::{Connection, DnsTransport, Warmth};
/// use dohperf_netsim::time::SimTime;
///
/// let mut conn = Connection::new(DnsTransport::DoQ);
/// let t0 = SimTime::ZERO;
/// let first = conn.acquire(t0);
/// assert_eq!(first.warmth, Warmth::Cold);
/// assert_eq!(first.generation, 1);
/// // Same keep-alive window: free reuse on the same connection.
/// let again = conn.acquire(t0 + DnsTransport::DoQ.idle_timeout().halved());
/// assert_eq!(again.warmth, Warmth::Warm);
/// assert_eq!(again.generation, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Connection {
    transport: DnsTransport,
    /// 0 before the first handshake; every (re-)establishment bumps it
    /// and leaves a session ticket behind.
    generation: u32,
    last_used: SimTime,
}

impl Connection {
    /// A fresh, never-connected lifecycle for one transport.
    pub fn new(transport: DnsTransport) -> Connection {
        Connection {
            transport,
            generation: 0,
            last_used: SimTime::ZERO,
        }
    }

    /// Acquire a usable connection for a query at `now`: reuse the
    /// established one inside its keep-alive window (the window
    /// restarts), otherwise (re-)establish it. The caller charges the
    /// RTT bill for the returned warmth ([`DnsTransport::handshake_rtts`])
    /// and advances its own clock.
    pub fn acquire(&mut self, now: SimTime) -> Acquired {
        let warmth = if self.generation == 0 {
            Warmth::Cold
        } else if now.saturating_since(self.last_used) > self.transport.idle_timeout() {
            Warmth::Resumed
        } else {
            Warmth::Warm
        };
        if warmth != Warmth::Warm {
            self.generation += 1;
        }
        self.last_used = now;
        Acquired {
            warmth,
            generation: self.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + MS.saturating_mul(ms)
    }

    /// The lifecycle table: cold → warm → timed out and resumed →
    /// warm again, per encrypted transport, with the generation tag
    /// checked at each step.
    #[test]
    fn lifecycle_table_covers_every_transition_per_transport() {
        for transport in [DnsTransport::DoH, DnsTransport::DoT, DnsTransport::DoQ] {
            let idle = transport.idle_timeout();
            let mut conn = Connection::new(transport);
            let mut step = |now: SimTime| {
                let got = conn.acquire(now);
                (got.warmth, got.generation)
            };

            // Never connected: the first handshake is cold.
            assert_eq!(step(at(0)), (Warmth::Cold, 1), "{transport:?}");
            // Inside the keep-alive window: reuse of generation 1.
            assert_eq!(step(at(1)), (Warmth::Warm, 1));
            // One tick past the window (measured from the reuse, which
            // restarted it): the ticket resumes a new generation.
            let expiry = at(1) + idle + MS;
            assert_eq!(step(expiry), (Warmth::Resumed, 2), "{transport:?}");
            // Reuse after re-establishment carries the new tag.
            assert_eq!(step(expiry + MS), (Warmth::Warm, 2), "stale generation");
        }
    }

    #[test]
    fn acquire_composes_the_full_lifecycle() {
        let transport = DnsTransport::DoT;
        let idle = transport.idle_timeout();
        let mut conn = Connection::new(transport);

        let a = conn.acquire(at(0));
        assert_eq!((a.warmth, a.generation), (Warmth::Cold, 1));
        let b = conn.acquire(at(5));
        assert_eq!((b.warmth, b.generation), (Warmth::Warm, 1));
        let c = conn.acquire(at(5) + idle + MS);
        assert_eq!((c.warmth, c.generation), (Warmth::Resumed, 2));
        let d = conn.acquire(at(6) + idle + MS);
        assert_eq!((d.warmth, d.generation), (Warmth::Warm, 2));
    }

    #[test]
    fn reuse_exactly_at_the_idle_boundary_still_succeeds() {
        // The window is inclusive: `now - last_used > timeout` expires.
        let mut conn = Connection::new(DnsTransport::DoH);
        conn.acquire(at(0));
        let boundary = SimTime::ZERO + DnsTransport::DoH.idle_timeout();
        let reused = conn.acquire(boundary);
        assert_eq!((reused.warmth, reused.generation), (Warmth::Warm, 1));
    }

    #[test]
    fn do53_is_always_free_and_connectionless() {
        for warmth in [Warmth::Cold, Warmth::Resumed, Warmth::Warm] {
            assert_eq!(DnsTransport::Do53.handshake_rtts(warmth), 0);
        }
        assert_eq!(DnsTransport::Do53.loss_stall_rtts(), 0);
        assert!(!DnsTransport::Do53.is_encrypted());
    }

    #[test]
    fn handshake_rtt_table_matches_the_rfcs() {
        use DnsTransport::*;
        // RFC 7858/8484: TCP + TLS 1.3 = 2 cold, 1 resumed (ticket).
        for t in [DoH, DoT] {
            assert_eq!(t.handshake_rtts(Warmth::Cold), 2);
            assert_eq!(t.handshake_rtts(Warmth::Resumed), 1);
            assert_eq!(t.handshake_rtts(Warmth::Warm), 0);
        }
        // RFC 9250: QUIC 1-RTT cold, 0-RTT resumption.
        assert_eq!(DoQ.handshake_rtts(Warmth::Cold), 1);
        assert_eq!(DoQ.handshake_rtts(Warmth::Resumed), 0);
        assert_eq!(DoQ.handshake_rtts(Warmth::Warm), 0);
    }

    #[test]
    fn loss_separates_h2_from_quic() {
        assert!(DnsTransport::DoH.loss_stall_rtts() > DnsTransport::DoQ.loss_stall_rtts());
        assert_eq!(
            DnsTransport::DoH.loss_stall_rtts(),
            DnsTransport::DoT.loss_stall_rtts()
        );
    }

    #[test]
    fn names_round_trip_and_rfcs_are_cited() {
        for t in DnsTransport::ALL {
            assert_eq!(DnsTransport::parse(t.name()), Some(t));
            assert!(t.rfc().starts_with("RFC "));
        }
        assert_eq!(DnsTransport::parse("dns-over-carrier-pigeon"), None);
        assert_eq!(DnsTransport::parse("DoH"), None, "names are lower-case");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Satellite (differential suite, cost-model layer): for any
            /// nonnegative RTT, DoQ 0-RTT ≤ DoQ 1-RTT ≤ DoT cold.
            #[test]
            fn doq_resumption_dominates_for_any_rtt(rtt_ms in 0.0f64..2000.0) {
                let zero_rtt = DnsTransport::DoQ.handshake_rtts(Warmth::Resumed) as f64 * rtt_ms;
                let one_rtt = DnsTransport::DoQ.handshake_rtts(Warmth::Cold) as f64 * rtt_ms;
                let dot_cold = DnsTransport::DoT.handshake_rtts(Warmth::Cold) as f64 * rtt_ms;
                prop_assert!(zero_rtt <= one_rtt);
                prop_assert!(one_rtt <= dot_cold);
            }

            /// Warmth ordering holds for every transport: warm ≤ resumed
            /// ≤ cold, in handshake round trips.
            #[test]
            fn warmth_ordering_is_monotone(idx in 0usize..4) {
                let t = DnsTransport::ALL[idx];
                prop_assert!(t.handshake_rtts(Warmth::Warm) <= t.handshake_rtts(Warmth::Resumed));
                prop_assert!(t.handshake_rtts(Warmth::Resumed) <= t.handshake_rtts(Warmth::Cold));
            }

            /// The lifecycle is deterministic in time alone: any sequence
            /// of monotone acquire instants yields warmths that are a
            /// pure function of the inter-acquire gaps, and generations
            /// never decrease.
            #[test]
            fn generation_is_monotone_under_any_schedule(
                idx in 1usize..4,
                gaps in proptest::collection::vec(0u64..100_000, 1..20),
            ) {
                let t = DnsTransport::ALL[idx];
                let mut conn = Connection::new(t);
                let mut now = SimTime::ZERO;
                let mut last_gen = 0;
                for (i, gap) in gaps.iter().enumerate() {
                    now += SimDuration::from_millis(*gap);
                    let got = conn.acquire(now);
                    prop_assert!(got.generation >= last_gen);
                    let expected = if i == 0 {
                        Warmth::Cold
                    } else if SimDuration::from_millis(*gap) > t.idle_timeout() {
                        Warmth::Resumed
                    } else {
                        Warmth::Warm
                    };
                    prop_assert_eq!(got.warmth, expected);
                    prop_assert_eq!(got.generation > last_gen, got.warmth != Warmth::Warm);
                    last_gen = got.generation;
                }
            }
        }
    }
}
