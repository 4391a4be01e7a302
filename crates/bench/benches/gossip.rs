//! Benchmark of Eq. 9's update gossip at the Table 1 replication factor:
//! one Plain push wave, `push_begin` plus `push_wave` rounds to the
//! rumor's death on a long-lived [`WavePool`], the way the engine drives
//! it. (Eq. 16's replica flood is priced by `flood_wave.rs`.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_gossip::{GossipCodec, ReplicaGroup, WavePool, GENERATION_SIZE};
use pdht_sim::Metrics;
use pdht_types::{Liveness, PeerId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_push(c: &mut Criterion) {
    let n = 50;
    let mut rng = SmallRng::seed_from_u64(21);
    let members: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
    let group = ReplicaGroup::new(members, &mut rng).unwrap();
    let live = Liveness::all_online(n);
    let mut rng = SmallRng::seed_from_u64(22);
    c.bench_function("gossip/push_wave_50", |b| {
        let mut m = Metrics::new();
        let mut pool = WavePool::new();
        // Each member's held version; every iteration pushes a newer one.
        let mut held = vec![0u64; n];
        let mut version = 0u64;
        let codec = GossipCodec::Plain;
        b.iter(|| {
            version += 1;
            let mut deliver = |local: usize| {
                let fresh = held[local] < version;
                held[local] = version;
                fresh
            };
            let mut wave =
                group.push_begin(PeerId(0), codec, GENERATION_SIZE, &mut deliver, &live, &mut pool);
            while !group.push_wave(
                &mut wave,
                codec,
                &mut deliver,
                &live,
                &mut rng,
                &mut m,
                &mut pool,
            ) {}
            wave.release(&mut pool);
            black_box(wave.reached())
        })
    });
}

criterion_group!(benches, bench_push);
criterion_main!(benches);
