//! # dohperf-netsim
//!
//! A deterministic network simulator that serves as the
//! substrate for the `dohperf` reproduction of *"Measuring DNS-over-HTTPS
//! Performance Around the World"* (IMC 2021).
//!
//! The paper measured real-world DNS latency through the BrightData proxy
//! network. That substrate — residential last miles, transit backbones,
//! anycast points of presence, ISP resolvers — is unavailable here, so this
//! crate recreates it as a simulation with three design goals borrowed from
//! `smoltcp`:
//!
//! 1. **Simplicity and robustness** over cleverness: the engine is a
//!    virtual clock that measurement code advances directly, plus a seeded
//!    RNG; there are no macro or type-level tricks.
//! 2. **Determinism**: every run with the same seed yields bit-identical
//!    timestamps and latencies, so experiments are exactly repeatable.
//! 3. **Observability**: an opt-in packet trace records every simulated
//!    exchange, the analogue of a capture on a controlled host.
//!
//! ## Layers
//!
//! * [`time`] — virtual time ([`SimTime`], [`SimDuration`]) with nanosecond
//!   resolution.
//! * [`rng`] — deterministic random streams with stable per-component
//!   sub-seeding.
//! * [`engine`] — the [`Simulator`]: clock, topology, path model, packet
//!   trace and checkpointable random streams.
//! * [`topology`] — nodes with geographic positions and roles.
//! * [`latency`] — the generative latency model: geodesic propagation,
//!   infrastructure-dependent path inflation, last-mile distributions.
//! * [`connection`] — the per-(client, provider) connection lifecycle for
//!   the DNS transports (Do53/DoH/DoT/DoQ): cold, resumed and warm
//!   handshake costs, keep-alive reuse with deterministic idle timeout,
//!   generation-tagged re-establishment, the H2-vs-QUIC loss-stall
//!   asymmetry and the UDP retransmission timeout.
//! * [`trace`] — the packet trace log used by the §4.3 experiment.
//!
//! ## Quick example
//!
//! ```
//! use dohperf_netsim::prelude::*;
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node(NodeSpec::new("client", GeoPoint::new(40.0, -88.0), NodeRole::Client));
//! let b = sim.add_node(NodeSpec::new("server", GeoPoint::new(37.4, -122.1), NodeRole::Server));
//! let rtt = sim.rtt(a, b);
//! assert!(rtt.as_millis_f64() > 0.0);
//! ```

pub mod connection;
pub mod engine;
pub mod latency;
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;

pub use connection::{Acquired, Connection, DnsTransport, Warmth};
pub use engine::Simulator;
pub use latency::{InfraProfile, LatencyModel, PathModel};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{GeoPoint, NodeId, NodeRole, NodeSpec, Topology};
pub use trace::{PacketDirection, PacketRecord, TraceLog};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::connection::{Acquired, Connection, DnsTransport, Warmth};
    pub use crate::engine::Simulator;
    pub use crate::latency::{InfraProfile, LatencyModel, PathModel};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{GeoPoint, NodeId, NodeRole, NodeSpec, Topology};
    pub use crate::trace::{PacketDirection, PacketRecord, TraceLog};
}
