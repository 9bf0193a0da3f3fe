//! Residential exit nodes.
//!
//! An exit node is a HolaVPN user's machine: a residential host with the
//! country's infrastructure profile, an OS-configured default resolver
//! (§4.3 confirms exit nodes use the OS resolver), and a /24 prefix that
//! geolocation services see.

use dohperf_netsim::engine::Simulator;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::SimDuration;
use dohperf_netsim::topology::{GeoPoint, NodeId, NodeRole, NodeSpec};
use dohperf_providers::ispresolver::IspResolverModel;
use dohperf_world::countries::Country;
use dohperf_world::geoloc::{GeolocationService, Prefix24};

/// Probability the exit node's resolver has a DoH provider's bootstrap
/// A record cached (popular hostnames are nearly always warm).
pub(crate) const BOOTSTRAP_CACHE_HIT_P: f64 = 0.8;

/// What kind of machine the exit node is.
///
/// The distinction matters for the §4 validation: the paper's
/// ground-truth exits were EC2 VMs — fast CPUs, clean data-centre paths —
/// where Equation 8's `(t11+t12) ≈ (t5+t6)` assumption holds tightly.
/// Real residential exits add CPE/device costs to encrypted flows that
/// the assumption absorbs as (bounded) error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// A HolaVPN user's home machine behind consumer CPE.
    Residential,
    /// A cloud VM enrolled as an exit node (ground-truth validation).
    Datacenter,
}

/// One exit node and its environment.
#[derive(Debug, Clone)]
pub struct ExitNode {
    /// Unique client id (the Super Proxy's session-unique identifier).
    pub id: u64,
    /// The residential host.
    pub node: NodeId,
    /// The country record (covariates drive the overhead models).
    pub country: &'static Country,
    /// Ground-truth country (what BrightData's targeting delivers).
    pub country_iso: &'static str,
    /// Index into the campaign's country list.
    pub country_index: usize,
    /// This machine's OS-configured recursive resolver.
    pub resolver: NodeId,
    /// Resolver behaviour parameters.
    pub resolver_model: IspResolverModel,
    /// The /24 prefix observed at the web server.
    pub prefix: Prefix24,
    /// Geographic position.
    pub position: GeoPoint,
    /// Residential machine or cloud VM.
    pub device_class: DeviceClass,
}

impl ExitNode {
    /// Create an exit node for a client site: host node, ISP resolver and
    /// geolocatable prefix.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        sim: &mut Simulator,
        geoloc: &mut GeolocationService,
        country: &'static Country,
        country_index: usize,
        position: GeoPoint,
        id: u64,
        rng: &mut SimRng,
    ) -> ExitNode {
        let node = sim.add_node(
            NodeSpec::new(
                format!("exit-{}-{id}", country.iso),
                position,
                NodeRole::Client,
            )
            .with_infra(country.residential_profile())
            .with_country(country.iso_bytes()),
        );
        let mut placement_rng = rng.fork_indexed("resolver", id);
        let resolver_model = IspResolverModel::for_client(country, &mut placement_rng);
        let resolver = resolver_model.place(sim, country, position, &mut placement_rng);
        let prefix = geoloc.allocate(country.iso);
        ExitNode {
            id,
            node,
            country,
            country_iso: country.iso,
            country_index,
            resolver,
            resolver_model,
            prefix,
            position,
            device_class: DeviceClass::Residential,
        }
    }

    /// Create a *controlled* exit node on a cloud VM (the paper's §4
    /// ground-truth setup: EC2 machines running HolaVPN). Data-centre
    /// network profile, healthy local resolver, negligible device costs.
    #[allow(clippy::too_many_arguments)]
    pub fn create_datacenter(
        sim: &mut Simulator,
        geoloc: &mut GeolocationService,
        country: &'static Country,
        country_index: usize,
        position: GeoPoint,
        id: u64,
        rng: &mut SimRng,
    ) -> ExitNode {
        let node = sim.add_node(
            NodeSpec::new(
                format!("exit-dc-{}-{id}", country.iso),
                position,
                NodeRole::Client,
            )
            .with_infra(country.datacenter_profile())
            .with_country(country.iso_bytes()),
        );
        let mut placement_rng = rng.fork_indexed("resolver", id);
        // EC2 VMs use the cloud provider's resolver: local and healthy.
        let resolver_model = IspResolverModel {
            tromboned: false,
            overloaded: false,
            processing_median_ms: 4.0,
        };
        let resolver = resolver_model.place(sim, country, position, &mut placement_rng);
        let prefix = geoloc.allocate(country.iso);
        ExitNode {
            id,
            node,
            country,
            country_iso: country.iso,
            country_index,
            resolver,
            resolver_model,
            prefix,
            position,
            device_class: DeviceClass::Datacenter,
        }
    }

    /// The exit node's Do53 resolution time for a *cache-miss* name whose
    /// authoritative server is `auth`: stub query to the OS resolver, the
    /// resolver's recursion to the authoritative, and resolver processing.
    ///
    /// Logs `dns/udp` trace records so the §4.3 experiment can confirm
    /// the OS resolver is used.
    pub fn do53_cache_miss(
        &self,
        sim: &mut Simulator,
        auth: NodeId,
        qname: &str,
        rng: &mut SimRng,
    ) -> SimDuration {
        sim.trace_packet(self.node, self.resolver, "dns/udp", qname);
        let stub_leg = sim.rtt(self.node, self.resolver);
        sim.trace_packet(self.resolver, auth, "dns/udp", qname);
        let recursion = sim.rtt(self.resolver, auth);
        let processing = self.resolver_model.processing_time(rng);
        stub_leg + recursion + processing
    }

    /// Bootstrap resolution of a popular hostname (a DoH provider
    /// endpoint): usually a resolver cache hit (every measurement path
    /// passes `BOOTSTRAP_CACHE_HIT_P`), occasionally a recursion to the
    /// provider's nearby authoritative/anycast node.
    pub fn do53_bootstrap(
        &self,
        sim: &mut Simulator,
        provider_auth: NodeId,
        hostname: &str,
        cache_hit_probability: f64,
        rng: &mut SimRng,
    ) -> SimDuration {
        sim.trace_packet(self.node, self.resolver, "dns/udp", hostname);
        let stub_leg = sim.rtt(self.node, self.resolver);
        let small_processing = SimDuration::from_millis_f64(rng.lognormal_median(1.0, 0.3));
        if rng.chance(cache_hit_probability) {
            stub_leg + small_processing
        } else {
            sim.trace_packet(self.resolver, provider_auth, "dns/udp", hostname);
            let recursion = sim.rtt(self.resolver, provider_auth);
            let processing = self.resolver_model.processing_time(rng);
            stub_leg + recursion + processing
        }
    }

    /// TCP connect time from the exit node to a target (t5+t6).
    pub fn tcp_connect(&self, sim: &mut Simulator, target: NodeId) -> SimDuration {
        sim.trace_packet(self.node, target, "tcp/handshake", "SYN");
        sim.rtt(self.node, target)
    }

    /// Per-exchange HTTPS overhead for DoH traffic from this client.
    ///
    /// Two mechanisms, both keyed to the national covariates (this is the
    /// causal structure the paper's §6 regressions recover):
    ///
    /// * **Access overhead** (bandwidth): TLS records and HTTP framing
    ///   are an order of magnitude larger than a bare UDP DNS datagram;
    ///   on slow, bufferbloated access links each encrypted exchange pays
    ///   serialization and queueing that plain Do53 barely notices.
    /// * **Gateway overhead** (AS count): in poorly peered markets every
    ///   DoH exchange crosses the congested international gateway to a
    ///   foreign PoP, while the ISP resolver answers from co-located
    ///   infrastructure with provisioned upstream transit.
    pub fn https_overhead(&self, rng: &mut SimRng) -> SimDuration {
        if self.device_class == DeviceClass::Datacenter {
            return SimDuration::from_millis_f64(rng.lognormal_median(0.8, 0.3));
        }
        let bw = self.country.bandwidth_mbps.max(1.0);
        let ases = f64::from(self.country.as_count.max(1));
        let access = rng.lognormal_median((2.0 + 240.0 / bw).min(55.0), 0.8);
        let gateway = rng.lognormal_median((22.0 - 2.9 * ases.ln()).clamp(1.0, 22.0), 0.8);
        SimDuration::from_millis_f64(access + gateway)
    }

    /// One-time TLS handshake crypto cost on the client device.
    ///
    /// Certificate validation and key agreement are CPU-bound; cheap or
    /// old devices — which correlate with national income — pay tens of
    /// milliseconds where a modern laptop pays one or two. The cost is
    /// incurred once per connection, which is exactly why the paper's
    /// income odds ratios damp so strongly with connection reuse
    /// (1.98x at DoH-1 down to 1.37x at DoH-10 for low-income clients).
    pub fn handshake_crypto_overhead(&self, rng: &mut SimRng) -> SimDuration {
        if self.device_class == DeviceClass::Datacenter {
            return SimDuration::from_millis_f64(rng.lognormal_median(1.0, 0.3));
        }
        let gdp = self.country.gdp_per_capita.max(200.0);
        SimDuration::from_millis_f64(rng.lognormal_median(2200.0 / gdp.sqrt(), 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_world::countries::country;

    fn setup() -> (Simulator, GeolocationService, ExitNode, NodeId) {
        let mut sim = Simulator::new(10);
        let mut geoloc = GeolocationService::new(SimRng::new(11), 0.0, vec!["BR", "US"]);
        let br = country("BR").unwrap();
        let mut rng = SimRng::new(12);
        let exit = ExitNode::create(
            &mut sim,
            &mut geoloc,
            br,
            0,
            GeoPoint::new(-23.5, -46.6),
            1,
            &mut rng,
        );
        let auth = sim.add_node(NodeSpec::new(
            "auth-ns",
            GeoPoint::new(39.0, -77.0),
            NodeRole::AuthoritativeNs,
        ));
        (sim, geoloc, exit, auth)
    }

    #[test]
    fn create_wires_up_host_resolver_and_prefix() {
        let (sim, geoloc, exit, _) = setup();
        assert_eq!(sim.topology().node(exit.node).spec.role, NodeRole::Client);
        assert_eq!(
            sim.topology().node(exit.resolver).spec.role,
            NodeRole::IspResolver
        );
        assert_eq!(geoloc.lookup(exit.prefix), Some("BR"));
    }

    #[test]
    fn cache_miss_includes_recursion_to_auth() {
        let (mut sim, _, exit, auth) = setup();
        let mut rng = SimRng::new(13);
        let d = exit.do53_cache_miss(&mut sim, auth, "uuid1.a.com", &mut rng);
        // Brazil -> US authoritative: must include a transatlantic-scale
        // recursion leg.
        assert!(d.as_millis_f64() > 60.0, "{d}");
    }

    #[test]
    fn bootstrap_cache_hit_is_much_faster_than_miss() {
        let (mut sim, _, exit, auth) = setup();
        let mut rng = SimRng::new(14);
        let hit = exit.do53_bootstrap(&mut sim, auth, "cloudflare-dns.com", 1.0, &mut rng);
        let miss = exit.do53_bootstrap(&mut sim, auth, "cloudflare-dns.com", 0.0, &mut rng);
        assert!(hit < miss, "hit {hit} miss {miss}");
    }

    #[test]
    fn traces_show_os_resolver_usage() {
        let (mut sim, _, exit, auth) = setup();
        sim.set_tracing(true);
        let mut rng = SimRng::new(15);
        exit.do53_cache_miss(&mut sim, auth, "uuid2.a.com", &mut rng);
        // First DNS packet goes from the exit host to its own resolver —
        // the §4.3 observation.
        let first = sim
            .trace()
            .by_proto("dns/udp")
            .next()
            .expect("trace captured");
        assert_eq!(first.src, exit.node);
        assert_eq!(first.dst, exit.resolver);
    }

    #[test]
    fn tcp_connect_positive() {
        let (mut sim, _, exit, auth) = setup();
        assert!(exit.tcp_connect(&mut sim, auth) > SimDuration::ZERO);
    }
}
