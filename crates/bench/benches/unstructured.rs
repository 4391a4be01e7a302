//! Benchmarks of the unstructured overlay: graph construction and
//! random-walk search at the paper's replication factor.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_sim::Metrics;
use pdht_types::{Liveness, PeerId};
use pdht_unstructured::{random_walks, Replication, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn setup(n: usize) -> (Topology, Replication, Liveness, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(11);
    let topo = Topology::random(n, 5, &mut rng).unwrap();
    let repl = Replication::place(64, 50, n, &mut rng).unwrap();
    (topo, repl, Liveness::all_online(n), rng)
}

fn bench_walks(c: &mut Criterion) {
    let (topo, repl, live, mut rng) = setup(20_000);
    c.bench_function("unstructured/walk_search_20k_repl50", |b| {
        let mut m = Metrics::new();
        b.iter(|| {
            let item = rng.random_range(0..64usize);
            let origin = PeerId::from_idx(rng.random_range(0..20_000));
            black_box(random_walks(
                &topo,
                origin,
                16,
                120_000,
                |p| repl.is_holder(item, p),
                &live,
                &mut rng,
                &mut m,
            ))
        })
    });
}

fn bench_topology_build(c: &mut Criterion) {
    c.bench_function("unstructured/random_graph_20k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(5);
            black_box(Topology::random(20_000, 5, &mut rng).unwrap())
        })
    });
}

criterion_group!(benches, bench_walks, bench_topology_build);
criterion_main!(benches);
