//! The layer probe: times the public calls hidden inside the campaign's
//! simulate phase.
//!
//! It replays a fixed 1-in-N sample of the workload's own clients (those
//! whose client id is a multiple of N) through the same public
//! per-client calls the campaign makes, in campaign order and with the
//! same RNG lineage, and times every call. Per-range calls
//! (`Testbed::new`, `PopulationModel::client_sites`) are replayed for
//! every range of the campaign's layout, repeated until each has at least
//! [`MIN_SAMPLES`] timings.
//!
//! The replay is only worth timing if it does the campaign's work, so
//! every sampled client's derived values are compared bit-for-bit with
//! the campaign's record for the same client id (the lineage check).
//! The plan below mirrors the campaign's own layout: root stream
//! `fork("campaign")`, population sample, per-country scaled counts,
//! prefix-summed client-id bases, and ranges cut every `granularity`
//! clients.

use dohperf_core::equations::{
    derive_transport_cold_ms, derive_transport_handshake_ms, derive_transport_resumed_ms,
    derive_transport_warm_ms, DerivationBatch,
};
use dohperf_core::pageload::{self, PageModel, PageProfile};
use dohperf_core::records::{ClientRecord, Do53Source, DohSample, PageSample, TransportSample};
use dohperf_core::testbed::{format_subdomain, Testbed, SUBDOMAIN_BUF_LEN};
use dohperf_core::CampaignConfig;
use dohperf_netsim::connection::DnsTransport;
use dohperf_netsim::rng::SimRng;
use dohperf_providers::anycast::AnycastPolicy;
use dohperf_providers::provider::ALL_PROVIDERS;
use dohperf_proxy::exitnode::ExitNode;
use dohperf_world::geoloc::GeolocationService;
use dohperf_world::population::PopulationModel;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Timings each probed call needs so that its p99 has at least ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 1_000;

/// Sampled clients the probe aims for; the sampling stride is the
/// workload's client count divided by this, so per-client calls clear
/// [`MIN_SAMPLES`].
const TARGET_CLIENTS: usize = 1_500;

/// Timing summary of one probed call.
#[derive(Debug, Clone, PartialEq)]
pub struct CallStats {
    /// Layer-qualified call name (see [`crate::catalogue::PROBED_CALLS`]).
    pub name: &'static str,
    /// Timed calls.
    pub calls: usize,
    /// Median call time, µs.
    pub p50_us: f64,
    /// 99th-percentile call time (nearest rank), µs.
    pub p99_us: f64,
    /// Sum of all timed calls, ms.
    pub total_ms: f64,
    /// Mean call time, ns.
    pub mean_ns: f64,
    /// Calls the probe would have made over every client (per-client
    /// calls) or every range (per-range calls) of the workload: the
    /// multiplier the reconciliation applies to `mean_ns`.
    pub workload_calls: f64,
}

/// What one probe run found.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Per-call timing summaries, in [`crate::catalogue::PROBED_CALLS`]
    /// order, for the calls the workload makes.
    pub calls: Vec<CallStats>,
    /// Sampling stride: clients with `client_id % every == 0` were probed.
    pub every: u64,
    /// Clients in the campaign (retained plus discarded).
    pub clients: usize,
    /// Ranges in the campaign's layout.
    pub ranges: usize,
    /// Sampled clients the Maxmind filter retained and whose values were
    /// compared with the campaign's records.
    pub clients_checked: usize,
    /// Sampled clients the Maxmind filter discarded.
    pub clients_discarded: usize,
    /// Lineage-check failures, one line each.
    pub mismatches: Vec<String>,
}

#[derive(Default)]
struct Timer {
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Timer {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let ns = started.elapsed().as_nanos() as u64;
        self.samples.entry(name).or_default().push(ns);
        out
    }
}

/// The per-client values the campaign derives and stores, rendered with
/// `Debug` (which prints every `f64` exactly) for bit-for-bit comparison.
fn derived_values(
    doh: &[DohSample],
    do53_ms: Option<f64>,
    do53_source: Do53Source,
    transports: &[TransportSample],
    pages: &[PageSample],
) -> String {
    format!("{doh:?}|{do53_ms:?}|{do53_source:?}|{transports:?}|{pages:?}")
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Replay a 1-in-N sample of the campaign `cfg` describes, whose ranges
/// are cut every `granularity` clients, timing every public call, and
/// check each sampled client against `records` (the campaign's retained
/// records).
pub fn run(cfg: &CampaignConfig, granularity: usize, records: &[ClientRecord]) -> ProbeReport {
    let by_id: HashMap<u64, &ClientRecord> = records.iter().map(|r| (r.client_id, r)).collect();
    let root_rng = SimRng::new(cfg.seed).fork("campaign");
    let population = PopulationModel::sample(&mut root_rng.clone());
    let country_list = population.countries().to_vec();
    let countries: Vec<&'static str> = country_list.iter().map(|c| c.iso).collect();
    let counts: Vec<usize> = (0..country_list.len())
        .map(|i| {
            let full = population.count(i);
            ((full as f64 * cfg.scale).round() as usize).clamp(1, full)
        })
        .collect();
    let clients: usize = counts.iter().sum();
    let every = (clients / TARGET_CLIENTS).max(1) as u64;
    let granularity = granularity.max(1);
    let ranges: usize = counts.iter().map(|c| c.div_ceil(granularity)).sum();
    let range_repeats = MIN_SAMPLES.div_ceil(ranges.max(1));

    let mut timer = Timer::default();
    let mut report = ProbeReport {
        calls: Vec::new(),
        every,
        clients,
        ranges,
        clients_checked: 0,
        clients_discarded: 0,
        mismatches: Vec::new(),
    };
    let mut batch = DerivationBatch::with_capacity(cfg.runs_per_client as usize);
    let mut base = 0u64;
    for (ci, &country) in country_list.iter().enumerate() {
        let count = counts[ci];
        let iso = country.iso;
        let page_profile =
            (cfg.pages_per_client > 0).then(|| PageProfile::for_country(&root_rng, iso));
        let mut start = 0;
        while start < count {
            let end = count.min(start + granularity);
            let mut sites = Vec::new();
            for _ in 0..range_repeats {
                sites = timer.time("world.client_sites", || {
                    population.client_sites(ci, &mut root_rng.clone())
                });
            }
            let mut tb = None;
            for _ in 0..range_repeats {
                tb = Some(timer.time("core.testbed.new", || {
                    Testbed::new(root_rng.fork_parts(&["testbed-", iso]).seed())
                }));
            }
            let mut tb = tb.expect("range_repeats >= 1");
            for (offset, site) in sites.iter().enumerate().take(end).skip(start) {
                let client_id = base + offset as u64 + 1;
                if !client_id.is_multiple_of(every) {
                    continue;
                }
                // A service whose first prefix is this client's slot hands
                // out exactly the prefix the campaign's range allocator did.
                let mut geoloc = GeolocationService::with_prefix_base(
                    root_rng.fork_parts(&["geoloc-", iso]),
                    cfg.geoloc_error_rate,
                    countries.clone(),
                    (base + offset as u64) as u32,
                );
                let mut client_rng = root_rng.fork_indexed("client", client_id);
                tb.sim
                    .begin_epoch(&root_rng.fork_indexed("client-sim", client_id));
                tb.sim.anchor_next_node(tb.base_nodes + 2 * offset);
                let exit = timer.time("proxy.exitnode.create", || {
                    ExitNode::create(
                        &mut tb.sim,
                        &mut geoloc,
                        country,
                        ci,
                        site.position,
                        client_id,
                        &mut client_rng,
                    )
                });
                let values = measure_client(
                    cfg,
                    &mut timer,
                    &mut tb,
                    &exit,
                    &mut client_rng,
                    &mut batch,
                    page_profile.as_ref(),
                );
                let retained = geoloc.lookup(exit.prefix).unwrap_or("??") == exit.country_iso;
                match (retained, by_id.get(&client_id)) {
                    (true, Some(r)) => {
                        let campaign = derived_values(
                            &r.doh,
                            r.do53_ms,
                            r.do53_source,
                            &r.transports,
                            &r.pages,
                        );
                        if campaign != values {
                            report.mismatches.push(format!(
                                "client {client_id} [{iso}]: probe {values} != campaign {campaign}"
                            ));
                        }
                        report.clients_checked += 1;
                    }
                    (false, None) => report.clients_discarded += 1,
                    (true, None) => report.mismatches.push(format!(
                        "client {client_id} [{iso}]: retained by the probe, absent from the campaign"
                    )),
                    (false, Some(_)) => report.mismatches.push(format!(
                        "client {client_id} [{iso}]: discarded by the probe, present in the campaign"
                    )),
                }
            }
            start = end;
        }
        base += count as u64;
    }

    let probed_clients = (report.clients_checked + report.clients_discarded).max(1);
    for (name, _) in crate::catalogue::PROBED_CALLS {
        let Some(samples) = timer.samples.get_mut(name) else {
            continue;
        };
        samples.sort_unstable();
        let n = samples.len();
        let total_ns: u64 = samples.iter().sum();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1] as f64;
        let per_range = matches!(name, "world.client_sites" | "core.testbed.new");
        let workload_calls = if per_range {
            ranges as f64
        } else {
            n as f64 * clients as f64 / probed_clients as f64
        };
        report.calls.push(CallStats {
            name,
            calls: n,
            p50_us: rank(0.50) / 1e3,
            p99_us: rank(0.99) / 1e3,
            total_ms: total_ns as f64 / 1e6,
            mean_ns: total_ns as f64 / n as f64,
            workload_calls,
        });
    }
    report
}

/// The campaign's per-client measurement, call for call, with every
/// public call timed. Returns the derived values for the lineage check.
#[allow(clippy::too_many_arguments)]
fn measure_client(
    cfg: &CampaignConfig,
    timer: &mut Timer,
    tb: &mut Testbed,
    exit: &ExitNode,
    client_rng: &mut SimRng,
    batch: &mut DerivationBatch,
    page_profile: Option<&PageProfile>,
) -> String {
    let mut doh = Vec::with_capacity(ALL_PROVIDERS.len());
    for (pi, &provider) in ALL_PROVIDERS.iter().enumerate() {
        let deployment = &tb.deployments[pi];
        let mut anycast_rng = client_rng.fork_parts(&["anycast-", provider.name()]);
        let policy = if cfg.perfect_anycast {
            AnycastPolicy::perfect()
        } else {
            provider.anycast_policy()
        };
        let pop_index = timer.time("providers.anycast.assign", || {
            policy.assign(deployment, &exit.position, &mut anycast_rng)
        });
        batch.clear();
        for run in 0..cfg.runs_per_client {
            let mut run_rng = client_rng.fork_indexed_parts(&["doh-", provider.name()], run.into());
            let obs = timer.time("proxy.network.doh", || {
                tb.network.doh_measurement_with(
                    &mut tb.sim,
                    tb.client,
                    exit,
                    provider,
                    deployment,
                    pop_index,
                    tb.auth_ns,
                    &mut run_rng,
                    &cfg.measurement,
                )
            });
            batch.push(&obs);
        }
        timer.time("core.equations.derive", || batch.derive());
        let nearest = timer.time("providers.pops.nearest", || {
            deployment.nearest_index(&exit.position)
        });
        let t_doh_ms = median(batch.t_doh_ms_mut());
        let t_dohr_ms = median(batch.t_dohr_ms_mut());
        doh.push(DohSample {
            provider,
            t_doh_ms,
            t_dohr_ms,
            pop_index,
            pop_distance_miles: deployment.distance_miles(&exit.position, pop_index),
            nearest_pop_distance_miles: deployment.distance_miles(&exit.position, nearest),
        });
    }

    let mut do53_runs = Vec::with_capacity(cfg.runs_per_client as usize);
    let mut hijacked = false;
    let mut qname_buf = [0u8; SUBDOMAIN_BUF_LEN];
    for run in 0..cfg.runs_per_client {
        let mut run_rng = client_rng.fork_indexed("do53", run.into());
        let qname = format_subdomain(tb.fresh_subdomain_id(), &mut qname_buf);
        let obs = timer.time("proxy.network.do53", || {
            tb.network.do53_measurement_with(
                &mut tb.sim,
                tb.client,
                exit,
                tb.web_server,
                tb.auth_ns,
                qname,
                &mut run_rng,
                &cfg.measurement,
            )
        });
        hijacked = obs.resolved_at_super_proxy;
        if !hijacked {
            do53_runs.push(obs.tun.dns.as_millis_f64());
        }
    }
    let (do53_ms, do53_source) = if hijacked {
        (None, Do53Source::RipeAtlasRemedy)
    } else {
        (Some(median(&mut do53_runs)), Do53Source::BrightDataHeader)
    };

    let mut transports = Vec::new();
    if !cfg.protocols.is_empty() {
        let auth_ns = tb.auth_ns;
        let Testbed {
            sim,
            network,
            deployments,
            ..
        } = tb;
        sim.with_rng_checkpoint(|sim| {
            for transport in cfg.protocols.iter() {
                for (pi, &provider) in ALL_PROVIDERS.iter().enumerate() {
                    let mut t_rng = client_rng.fork_parts(&[
                        "transport-",
                        transport.name(),
                        "-",
                        provider.name(),
                    ]);
                    let obs = timer.time("proxy.lifecycle.transport", || {
                        network.transport_measurement(
                            sim,
                            exit,
                            provider,
                            &deployments[pi],
                            doh[pi].pop_index,
                            auth_ns,
                            transport,
                            cfg.measurement.extra_loss_p,
                            cfg.measurement.doh_cache_hit_p,
                            &mut t_rng,
                        )
                    });
                    transports.push(TransportSample {
                        transport,
                        provider,
                        cold_ms: derive_transport_cold_ms(&obs),
                        warm_ms: derive_transport_warm_ms(&obs),
                        resumed_ms: derive_transport_resumed_ms(&obs),
                        handshake_ms: derive_transport_handshake_ms(&obs),
                    });
                }
            }
        });
    }

    let mut pages = Vec::new();
    if let Some(profile) = page_profile {
        let mut model_rng = client_rng.fork("page-model");
        let model: PageModel = timer.time("core.pageload.generate", || {
            PageModel::generate(profile, &mut model_rng)
        });
        let auth_ns = tb.auth_ns;
        let Testbed {
            sim, deployments, ..
        } = tb;
        sim.with_rng_checkpoint(|sim| {
            for &transport in DnsTransport::ALL.iter() {
                for (pi, &provider) in ALL_PROVIDERS.iter().enumerate() {
                    let mut p_rng =
                        client_rng.fork_parts(&["page-", transport.name(), "-", provider.name()]);
                    let outcome = timer.time("core.pageload.measure_page", || {
                        pageload::measure_page(
                            sim,
                            exit,
                            provider,
                            &deployments[pi],
                            doh[pi].pop_index,
                            auth_ns,
                            transport,
                            cfg.measurement.extra_loss_p,
                            &model,
                            cfg.pages_per_client,
                            &mut p_rng,
                        )
                    });
                    pages.push(PageSample {
                        transport,
                        provider,
                        domains: model.len() as u32,
                        unique_names: model.unique_names as u32,
                        depth: model.max_depth(),
                        plt_cold_ms: outcome.plt_cold_ms,
                        plt_warm_ms: outcome.plt_warm_ms,
                        cold_cache_hits: outcome.cold_cache_hits,
                        warm_cache_hits: outcome.warm_cache_hits,
                    });
                }
            }
        });
    }
    derived_values(&doh, do53_ms, do53_source, &transports, &pages)
}
