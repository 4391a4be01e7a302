//! Benchmarks of the deterministic shard-merge barrier: per-shard outboxes
//! drained and re-sequenced by `(time, src, seq)` between the parallel
//! passes of the sharded round.
//!
//! The merge is the serial section of every sharded round, so its cost
//! bounds the achievable thread speedup (Amdahl). The sweep varies the
//! cross-shard traffic fraction from 0 (every message stays shard-local —
//! the common case when queries are dealt to their key's group shard) to 1
//! (every message crosses, the pathological all-remote workload); the fill
//! work per iteration is identical across fractions, so differences are
//! the merge's routing + sort cost alone. The merge is the engine's
//! [`merge_outboxes_into`], which appends every outbox to caller-owned
//! [`MergeBuffers`], sorts each destination's batch in place and allocates
//! nothing at steady state.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_sim::{merge_outboxes_into, MergeBuffers, Outbox};
use pdht_types::{mix64, SimTime};

/// Shard count of the merge sweep (the `loaded_mix` and `route_event`
/// benchmark workloads' lane count).
const SHARDS: usize = 8;
/// Messages each shard buffers per pass — the order of a busy round's
/// query hand-off at the `sim_scale` configuration.
const MSGS_PER_SHARD: u64 = 1_024;

/// Fills every outbox with `MSGS_PER_SHARD` messages, a deterministic
/// `cross_fraction` of which address a foreign shard. Each source's times
/// rise with the push index, as producers stamping a forward-only lane
/// clock do, so every (source, destination) run arrives pre-sorted: at
/// `cross_0` each batch is one sorted run, and more crossing traffic
/// interleaves more runs per batch.
fn fill(outboxes: &mut [Outbox<u64>], cross_fraction: f64) {
    let threshold = (cross_fraction * f64::from(u32::MAX)) as u64;
    for s in 0..outboxes.len() {
        for i in 0..MSGS_PER_SHARD {
            let r = mix64(s as u64, i);
            let dest = if (r & 0xffff_ffff) < threshold {
                ((r >> 32) % SHARDS as u64) as u32
            } else {
                s as u32
            };
            // Strictly increasing per source: the jitter term stays below
            // the 977 µs stride between consecutive pushes.
            let time = SimTime::from_micros(i * 977 + r % 977 + 1);
            outboxes[s].push(dest, time, r);
        }
    }
}

/// Merge into persistent [`MergeBuffers`], as the engine does: past the
/// first iteration every internal `Vec` reuses its capacity.
fn bench_merge_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_merge/merge_into");
    for (label, cross_fraction) in
        [("cross_0", 0.0), ("cross_10", 0.1), ("cross_50", 0.5), ("cross_100", 1.0)]
    {
        group.bench_function(format!("{SHARDS}x{MSGS_PER_SHARD}_{label}"), |b| {
            let mut outboxes: Vec<Outbox<u64>> =
                (0..SHARDS).map(|s| Outbox::new(s as u32)).collect();
            let mut bufs: MergeBuffers<u64> = MergeBuffers::new(SHARDS);
            b.iter(|| {
                fill(&mut outboxes, cross_fraction);
                merge_outboxes_into(outboxes.iter_mut(), &mut bufs);
                let total = bufs.total();
                for batch in bufs.batches_mut() {
                    batch.clear();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge_into);
criterion_main!(benches);
