//! Benchmarks of the per-peer TTL store — the innermost data structure of
//! the selection algorithm (hit/miss check on every routed query).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_core::{PartialIndex, Ttl};
use pdht_gossip::VersionedValue;
use pdht_types::Key;
use std::sync::Arc;

/// The routed key for dense index `i` — the engine's own convention.
fn key(i: u64) -> Key {
    Key::of_index(i as u32)
}

fn filled(capacity: usize, n: usize) -> PartialIndex {
    let mut idx = PartialIndex::new(capacity);
    for i in 0..n as u64 {
        idx.insert(i as u32, key(i), VersionedValue { version: 1, data: i }, 0, Ttl::Rounds(1_000));
    }
    idx
}

fn bench_hit(c: &mut Criterion) {
    let mut idx = filled(128, 100);
    c.bench_function("index/get_hit", |b| {
        let mut now = 1u64;
        b.iter(|| {
            now += 1;
            black_box(idx.get_and_refresh((now % 100) as u32, now, Ttl::Rounds(1_000)))
        })
    });
}

fn bench_miss(c: &mut Criterion) {
    let mut idx = filled(128, 100);
    c.bench_function("index/get_miss", |b| {
        b.iter(|| black_box(idx.get_and_refresh(9_999_999, 1, Ttl::Rounds(1_000))))
    });
}

fn bench_insert_with_eviction(c: &mut Criterion) {
    // The store is at capacity, so every insert scans for the
    // soonest-expiring victim. `_tied`: every resident shares one expiry
    // (new keys land on it too), so each scan also hashes all 100 routed
    // keys for the tie-break — the worst case of the two-pass search.
    let rows = [("index/insert_evicting_100", 500), ("index/insert_evicting_100_tied", 990)];
    for (name, ttl) in rows {
        c.bench_function(name, |b| {
            let mut idx = filled(100, 100);
            let mut k = 1_000u64;
            b.iter(|| {
                k += 1;
                black_box(idx.insert(
                    k as u32,
                    key(k),
                    VersionedValue { version: 1, data: k },
                    10,
                    Ttl::Rounds(ttl),
                ))
            })
        });
    }
}

fn bench_purge(c: &mut Criterion) {
    c.bench_function("index/purge_half_of_200", |b| {
        let mut purged: Vec<u32> = Vec::with_capacity(256);
        b.iter_batched(
            || {
                let mut idx = PartialIndex::new(256);
                for i in 0..200u64 {
                    let ttl = if i % 2 == 0 { 10 } else { 1_000 };
                    idx.insert(
                        i as u32,
                        key(i),
                        VersionedValue { version: 1, data: i },
                        0,
                        Ttl::Rounds(ttl),
                    );
                }
                idx
            },
            |mut idx| {
                purged.clear();
                idx.purge_expired_into(100, &mut purged);
                black_box(purged.len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// The IndexAll shape, built as the engine builds it: a store sharing its
/// replica group's key run (~130 keys scattered over a 2M-key universe)
/// and holding only its versions, never evicting. Queries hit, update
/// waves re-insert resident keys (both keep the store sharing), and the
/// build gives each member of the group the run.
fn bench_index_all(c: &mut Criterion) {
    const LOAD: u64 = 130;
    const STRIDE: u64 = 15_383;
    const CAPACITY: usize = LOAD as usize + 8;
    let run: Arc<[u32]> = (0..LOAD).map(|i| (i * STRIDE) as u32).collect();
    let mut group = c.benchmark_group("index/index_all_130");
    group.bench_function("get_hit_shared", |b| {
        let mut idx = PartialIndex::from_shared_run(CAPACITY, &run, 1);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            let ki = (now * 37 % LOAD) * STRIDE;
            black_box(idx.get_and_refresh(ki as u32, now, Ttl::Infinite))
        })
    });
    group.bench_function("reinsert_resident", |b| {
        let mut idx = PartialIndex::from_shared_run(CAPACITY, &run, 1);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            let ki = (now * 37 % LOAD) * STRIDE;
            let value = VersionedValue { version: now, data: ki };
            black_box(idx.insert(ki as u32, key(ki), value, now, Ttl::Infinite))
        })
    });
    group.bench_function("preload_ascending", |b| {
        b.iter(|| black_box(PartialIndex::from_shared_run(CAPACITY, &run, 1).len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hit,
    bench_miss,
    bench_insert_with_eviction,
    bench_purge,
    bench_index_all
);
criterion_main!(benches);
