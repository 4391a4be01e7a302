//! The Eq. 16 replica-flood hot path under the two scratch regimes:
//! `pooled` drives `flood_begin`/`flood_wave` through one long-lived
//! [`WavePool`] the way the engine's query lanes do (steady state: zero
//! allocation per flood), `fresh` drives the same steps on a new
//! [`WavePool`] per flood — the per-call scratch regime the pooled
//! rewrite replaced. The matrix covers the subnet sizes around the paper's
//! replication factors and two online fractions, since the word-masked
//! `visited ∨ ¬online` test is the inner-loop operation being priced.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pdht_gossip::{ReplicaGroup, WavePool};
use pdht_sim::Metrics;
use pdht_types::{Liveness, PeerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn setup(repl: usize, online: f64) -> (ReplicaGroup, Liveness) {
    let mut rng = SmallRng::seed_from_u64(0xf100d);
    let members: Vec<PeerId> = (0..repl as u32).map(PeerId).collect();
    let group = ReplicaGroup::new(members, &mut rng).unwrap();
    let mut live = Liveness::all_online(repl);
    for i in 1..repl {
        if rng.random::<f64>() >= online {
            live.set(PeerId(i as u32), false);
        }
    }
    // The flood origin must be online or the wave is inert.
    (group, live)
}

fn bench_flood_wave(c: &mut Criterion) {
    let mut g = c.benchmark_group("flood_wave");
    for &repl in &[16usize, 64, 256] {
        for &online in &[0.3f64, 0.9] {
            let (group, live) = setup(repl, online);
            let label = format!("repl{repl}_online{online}");
            g.bench_function(BenchmarkId::new("pooled", &label), |b| {
                let mut pool = WavePool::new();
                let mut m = Metrics::new();
                b.iter(|| {
                    let mut wave = group.flood_begin(PeerId(0), |_| false, &live, &mut pool);
                    while !group.flood_wave(&mut wave, |_| false, &live, &mut m, &mut pool) {}
                    black_box(wave.messages())
                })
            });
            g.bench_function(BenchmarkId::new("fresh", &label), |b| {
                let mut m = Metrics::new();
                b.iter(|| {
                    let mut pool = WavePool::new();
                    let mut wave = group.flood_begin(PeerId(0), |_| false, &live, &mut pool);
                    while !group.flood_wave(&mut wave, |_| false, &live, &mut m, &mut pool) {}
                    black_box(wave.messages())
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_flood_wave);
criterion_main!(benches);
