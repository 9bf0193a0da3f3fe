//! # dohperf-proxy
//!
//! The measurement-platform substrates the paper relied on:
//!
//! * [`superproxy`] — BrightData Super Proxies, deployed in the 11
//!   countries the paper documents (§3.5). In these countries the Super
//!   Proxy, not the exit node, performs Do53 resolution — the quirk that
//!   invalidates proxy-header Do53 data there and forces the RIPE Atlas
//!   remedy.
//! * [`exitnode`] — residential exit nodes: a client machine, its default
//!   ISP resolver, and its /24 prefix as seen by geolocation.
//! * [`observation`] — what one tunnelled measurement *looks like* from
//!   the outside: the four client-side timestamps T_A–T_D and the
//!   `X-luminati-*` headers (plus hidden ground truth used only by the
//!   §4 validation experiments).
//! * [`network`] — the BrightData network: exit pools per country,
//!   exit-node selection, and the full Figure 2 choreography for DoH and
//!   Do53 measurements.
//! * [`lifecycle`] — the Do53/DoH/DoT/DoQ connection-lifecycle
//!   measurement, and the one bootstrap, handshake and per-query cost
//!   model every lifecycle and page-load query is charged through.
//! * [`atlas`] — a RIPE Atlas-style probe network supporting direct Do53
//!   measurements (no proxy in the path).

pub mod atlas;
pub mod exitnode;
pub mod lifecycle;
pub mod network;
pub mod observation;
pub mod superproxy;

pub use atlas::{AtlasNetwork, AtlasProbe};
pub use exitnode::ExitNode;
pub use lifecycle::TransportObservation;
pub use network::BrightDataNetwork;
pub use observation::{Do53Observation, DohObservation};
pub use superproxy::SuperProxy;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::atlas::{AtlasNetwork, AtlasProbe};
    pub use crate::exitnode::ExitNode;
    pub use crate::lifecycle::TransportObservation;
    pub use crate::network::BrightDataNetwork;
    pub use crate::observation::{Do53Observation, DohObservation};
    pub use crate::superproxy::SuperProxy;
}
