//! Simulator-core benchmarks: latency sampling and geodesy.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dohperf_netsim::prelude::*;

fn bench_latency_model(c: &mut Criterion) {
    let mut sim = Simulator::new(2);
    let nodes: Vec<NodeId> = (0..64)
        .map(|i| {
            sim.add_node(NodeSpec::new(
                format!("n{i}"),
                GeoPoint::new(-60.0 + (i as f64) * 1.9, -170.0 + (i as f64) * 5.3),
                NodeRole::Client,
            ))
        })
        .collect();
    // Warm the pair cache.
    for i in 0..nodes.len() {
        sim.base_rtt(nodes[i], nodes[(i + 1) % nodes.len()]);
    }
    c.bench_function("rtt_sample_cached_pair", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 63;
            sim.rtt(black_box(nodes[i]), black_box(nodes[i + 1]))
        })
    });
    c.bench_function("base_rtt_cold_pairs", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(3);
            let a = sim.add_node(NodeSpec::new(
                "a",
                GeoPoint::new(1.0, 2.0),
                NodeRole::Client,
            ));
            let z = sim.add_node(NodeSpec::new(
                "z",
                GeoPoint::new(50.0, 9.0),
                NodeRole::Server,
            ));
            sim.base_rtt(a, z)
        })
    });
}

fn bench_geodesic(c: &mut Criterion) {
    let a = GeoPoint::new(40.7, -74.0);
    let b = GeoPoint::new(-33.9, 151.2);
    c.bench_function("haversine_distance", |bch| {
        bch.iter(|| black_box(&a).distance_km(black_box(&b)))
    });
}

criterion_group!(benches, bench_latency_model, bench_geodesic);
criterion_main!(benches);
