//! Benchmarks of the structured overlays: lookups and maintenance rounds at
//! the population sizes the experiments use.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pdht_overlay::{ChordOverlay, KademliaOverlay, Overlay, PlanScratch, TrieOverlay};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, PeerId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn bench_lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay/lookup");
    for &n in &[1_000usize, 10_000] {
        let mut rng = SmallRng::seed_from_u64(1);
        let trie = TrieOverlay::build(n, 50, &mut rng).unwrap();
        let chord = ChordOverlay::build(n, 50, &mut rng).unwrap();
        let kad = KademliaOverlay::build(n, 50, &mut rng).unwrap();
        let live = Liveness::all_online(n);
        group.bench_with_input(BenchmarkId::new("trie", n), &n, |b, &n| {
            let mut m = Metrics::new();
            b.iter(|| {
                let from = PeerId::from_idx(rng.random_range(0..n));
                let key = Key(rng.random::<u64>());
                black_box(trie.lookup(from, key, &live, &mut rng, &mut m).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("chord", n), &n, |b, &n| {
            let mut m = Metrics::new();
            b.iter(|| {
                let from = PeerId::from_idx(rng.random_range(0..n));
                let key = Key(rng.random::<u64>());
                black_box(chord.lookup(from, key, &live, &mut rng, &mut m).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("kademlia", n), &n, |b, &n| {
            let mut m = Metrics::new();
            b.iter(|| {
                let from = PeerId::from_idx(rng.random_range(0..n));
                let key = Key(rng.random::<u64>());
                black_box(kad.lookup(from, key, &live, &mut rng, &mut m).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_maintenance(c: &mut Criterion) {
    let n = 10_000usize;
    let mut rng = SmallRng::seed_from_u64(2);
    let mut trie = TrieOverlay::build(n, 50, &mut rng).unwrap();
    let live = Liveness::all_online(n);
    c.bench_function("overlay/trie_maintenance_round_10k", |b| {
        let mut m = Metrics::new();
        b.iter(|| trie.maintenance_round(black_box(1.0 / 14.0), &live, &mut rng, &mut m))
    });
}

/// Peer ticks per iteration of the shuffled maintenance row: divide its
/// ns/iter by this for the per-tick cost the benchmark ledger reports as
/// `overlay.maint.ns_per_peer_step`.
const TICKS_PER_ITER: usize = 20_000;

/// Kademlia maintenance the way the sharded engine runs it: peers tick in
/// shuffled order (jittered `PeerMaintenance` events walk the tables at
/// random; allocation order flatters the tick ~2.3x with a prefetcher the
/// engine never gets, see `benchmark/README.md`), under Gnutella-like
/// availability, at the engine's calibration of `env·log2(n)` probes per
/// peer-second; each tick plans against the shared overlay and the batch is
/// applied at the end. `route_event`'s overlay holds 20k peers (its
/// 20 000 ticks a round); the 100k row prices the same tick on a table
/// five times larger than any cache.
fn bench_kademlia_maintenance_shuffled(c: &mut Criterion) {
    for n in [20_000usize, 100_000] {
        let name = format!("overlay/kademlia_maintenance_plan_{}k_shuffled", n / 1000);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut kad = KademliaOverlay::build(n, 50, &mut rng).unwrap();
        let mut live = Liveness::all_online(n);
        for p in (0..n).map(PeerId::from_idx) {
            live.set(p, rng.random::<f64>() < 0.6);
        }
        let entries: usize = (0..n).map(|p| kad.routing_entries(PeerId::from_idx(p))).sum();
        let probe_rate = (n as f64).log2() * n as f64 / (14.0 * entries as f64);
        let mut order: Vec<PeerId> = (0..n).map(PeerId::from_idx).collect();
        order.shuffle(&mut rng);
        let mut ticks = order.chunks_exact(TICKS_PER_ITER).cycle();
        c.bench_function(&name, |b| {
            let mut m = Metrics::new();
            let mut scratch = PlanScratch::new();
            let mut repairs = Vec::new();
            b.iter(|| {
                repairs.clear();
                for &p in ticks.next().expect("cycle never ends") {
                    let (rng, m) = (&mut rng, &mut m);
                    kad.maintenance_plan(p, probe_rate, &live, rng, m, &mut scratch, &mut repairs);
                }
                kad.maintenance_apply(&repairs, &live);
            })
        });
    }
}

fn bench_build(c: &mut Criterion) {
    c.bench_function("overlay/kademlia_build_100k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(3);
            black_box(KademliaOverlay::build(100_000, 50, &mut rng).unwrap())
        })
    });
    c.bench_function("overlay/trie_build_10k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(3);
            black_box(TrieOverlay::build(10_000, 50, &mut rng).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_lookups,
    bench_maintenance,
    bench_kademlia_maintenance_shuffled,
    bench_build
);
criterion_main!(benches);
