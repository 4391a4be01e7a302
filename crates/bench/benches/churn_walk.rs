//! Benchmarks of the two remaining per-round O(population) costs the
//! O(active-work) refactor removed: churn session stepping (now a calendar
//! of round buckets — cost tracks transitions, not peers) and random-walk
//! waves (a walk holds its walkers' positions and nothing sized by the
//! population, so starting one is O(walkers)).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_overlay::{ChurnConfig, ChurnModel};
use pdht_sim::Metrics;
use pdht_types::{Liveness, PeerId};
use pdht_unstructured::{RandomWalk, Topology, WalkWave};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One simulated second of churn into one reused transitions buffer, as
/// the engine steps it. `static_pop` never toggles (the empty bucket must
/// cost ~nothing regardless of population); "heavy" uses 100-second mean
/// sessions, ~n/100 transitions per round.
fn bench_churn_step(c: &mut Criterion) {
    fn step(churn: &mut ChurnModel, rng: &mut SmallRng, buf: &mut Vec<(PeerId, bool)>) -> usize {
        buf.clear();
        churn.step_second_into(rng, buf);
        buf.len()
    }
    let mut group = c.benchmark_group("churn/step_second");
    group.sample_size(50);
    for n in [10_000usize, 100_000] {
        group.bench_function(format!("static_{n}"), |b| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut churn = ChurnModel::new(n, ChurnConfig::none(), &mut rng);
            let mut buf = Vec::new();
            b.iter(|| black_box(step(&mut churn, &mut rng, &mut buf)))
        });
        group.bench_function(format!("gnutella_{n}"), |b| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut churn = ChurnModel::new(n, ChurnConfig::gnutella_like(), &mut rng);
            let mut buf = Vec::new();
            b.iter(|| black_box(step(&mut churn, &mut rng, &mut buf)))
        });
        group.bench_function(format!("heavy_{n}"), |b| {
            let mut rng = SmallRng::seed_from_u64(7);
            let cfg = ChurnConfig { mean_online_secs: 100.0, mean_offline_secs: 100.0 };
            let mut churn = ChurnModel::new(n, cfg, &mut rng);
            let mut buf = Vec::new();
            b.iter(|| black_box(step(&mut churn, &mut rng, &mut buf)))
        });
    }
    group.finish();
}

/// Walker waves on a 100k-peer topology: a start plus a bounded number of
/// waves per iteration — the steady-state cost a query pays in the engine.
fn bench_walk_wave(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk/wave_100k");
    group.sample_size(30);
    let n = 100_000usize;
    let mut rng = SmallRng::seed_from_u64(0x3a1c);
    let topo = Topology::random(n, 5, &mut rng).expect("topology builds");
    let live = Liveness::all_online(n);
    let mut metrics = Metrics::new();
    for walkers in [16usize, 64] {
        group.bench_function(format!("begin_plus_8_waves_{walkers}w"), |b| {
            let mut origin = 0usize;
            b.iter(|| {
                origin = (origin + 7919) % n;
                let mut walk = RandomWalk::start(
                    PeerId::from_idx(origin),
                    walkers,
                    u64::MAX / 2,
                    |_| false,
                    &live,
                )
                .expect("walk starts");
                let mut waves = 0u32;
                for _ in 0..8 {
                    match walk.step(&topo, |_| false, &live, &mut rng, &mut metrics) {
                        WalkWave::InProgress => waves += 1,
                        WalkWave::Found(_) | WalkWave::Exhausted => break,
                    }
                }
                black_box(waves)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn_step, bench_walk_wave);
criterion_main!(benches);
