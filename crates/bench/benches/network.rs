//! Whole-harness benchmark: one simulated round of the full network per
//! strategy, at the integration-test scale — the number that determines
//! how long the S2/S3 experiments take — and network builds, up to the
//! IndexAll shapes of the benchmark of record.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_core::{
    BackgroundSchedule, GossipCodec, LatencyConfig, OverlayKind, PdhtConfig, PdhtNetwork, Strategy,
};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("network/step_round");
    group.sample_size(20);
    for (name, strategy) in [
        ("partial", Strategy::Partial),
        ("index_all", Strategy::IndexAll),
        ("no_index", Strategy::NoIndex),
    ] {
        // 1 000 peers at the busy load.
        let cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 30.0, strategy);
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        net.run(50); // past the initial fill
        group.bench_function(name, |b| {
            b.iter(|| {
                net.step_round();
                black_box(net.indexed_keys())
            })
        });
    }
    group.finish();
}

/// `benchmark/`'s `gossip_coded` shape: 20k peers, repl 64 — 256 trie
/// leaves of 78 members, 3.1 M preloaded store entries.
fn gossip_coded_shape() -> PdhtConfig {
    let scenario = Scenario { repl: 64, f_upd: 1.0 / 1000.0, ..Scenario::table1() };
    let mut cfg = PdhtConfig::new(scenario, 1.0 / 30.0, Strategy::IndexAll);
    cfg.gossip_codec = GossipCodec::Rlnc;
    cfg.gossip_generation = 32;
    cfg
}

/// `benchmark/`'s `route_event` shape: 100k peers on Kademlia, 8 lanes,
/// churn calendars — 1.6 M preloaded store entries.
fn route_event_shape() -> PdhtConfig {
    let scenario = Scenario { num_peers: 100_000, ..Scenario::table1() };
    let mut cfg = PdhtConfig::new(scenario, 1.0 / 20.0, Strategy::IndexAll);
    cfg.overlay = OverlayKind::Kademlia;
    cfg.latency = LatencyConfig::LogNormal { median_ms: 80.0, sigma: 0.5 };
    cfg.query_timeout_secs = Some(8.0);
    cfg.shards = 8;
    cfg.churn = ChurnConfig::gnutella_like();
    cfg.background = BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
    cfg
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("network/build");
    group.sample_size(10);
    group.bench_function("partial_1k_peers", |b| {
        b.iter(|| {
            let cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 30.0, Strategy::Partial);
            black_box(PdhtNetwork::new(cfg).unwrap())
        })
    });
    // The two IndexAll builds of record, whose preload fills every member
    // store of every replica group.
    for (name, shape) in [
        ("index_all_trie_20k_repl64", gossip_coded_shape as fn() -> PdhtConfig),
        ("index_all_kademlia_100k", route_event_shape),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(PdhtNetwork::new(shape()).unwrap())));
    }
    group.finish();
}

criterion_group!(benches, bench_round, bench_build);
criterion_main!(benches);
