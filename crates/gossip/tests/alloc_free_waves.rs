//! A coded update wave on a warmed [`WavePool`] performs zero heap
//! allocations: `push_begin` resets the slot's decoders in place (the row
//! buffers keep their capacity) and makes the origin full-rank in place,
//! and `push_wave` / `pull_missing` only write into pooled buffers.
//!
//! Measured, not inferred: this test binary installs a counting global
//! allocator (the one `unsafe` site in the package, hence its own file and
//! the scoped `allow`). Counts are per thread, so the libtest harness's own
//! threads cannot leak into a measurement.
#![allow(unsafe_code)]

use pdht_gossip::{GossipCodec, ReplicaGroup, WavePool};
use pdht_sim::Metrics;
use pdht_types::{Liveness, PeerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and `Drop`-free, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `alloc` obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `realloc` obligations are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs one whole RLNC wave — `push_begin`, push rounds to the rumor's
/// death, the pull mop-up, release — and returns the allocations it made.
fn wave_allocations(
    group: &ReplicaGroup,
    gen: usize,
    live: &Liveness,
    rng: &mut SmallRng,
    metrics: &mut Metrics,
    pool: &mut WavePool,
) -> u64 {
    let codec = GossipCodec::Rlnc;
    let before = allocations();
    let origin = group.members()[rng.random_range(0..group.len())];
    let mut wave = group.push_begin(origin, codec, gen, |_| true, live, pool);
    while !group.push_wave(&mut wave, codec, |_| true, live, rng, metrics, pool) {}
    group.pull_missing(&mut wave, |_| true, live, rng, metrics, pool);
    wave.release(pool);
    allocations() - before
}

#[test]
fn coded_waves_on_a_warmed_pool_are_allocation_free() {
    // The counter must see what a cold pool does: its first wave grows the
    // slot's buffers and one row buffer per member.
    let n = 64;
    let members: Vec<PeerId> = (0..n).map(PeerId).collect();
    let group = ReplicaGroup::new(members, &mut SmallRng::seed_from_u64(3)).unwrap();
    let mut live = Liveness::all_online(n as usize);
    // A few members offline, so the pull mop-up has work.
    for p in [5, 17, 40] {
        live.set(PeerId(p), false);
    }
    for gen in [8, 32] {
        let mut rng = SmallRng::seed_from_u64(gen as u64);
        let mut metrics = Metrics::new();
        let mut pool = WavePool::new();
        let cold = wave_allocations(&group, gen, &live, &mut rng, &mut metrics, &mut pool);
        assert!(cold >= n as u64, "G={gen}: a cold wave made only {cold} allocations");
        // Warm-up: spreader and knowledge-map buffers reach the largest
        // size any wave of this group asks of them.
        for _ in 0..200 {
            wave_allocations(&group, gen, &live, &mut rng, &mut metrics, &mut pool);
        }
        for wave in 0..200 {
            let spent = wave_allocations(&group, gen, &live, &mut rng, &mut metrics, &mut pool);
            assert_eq!(spent, 0, "G={gen}: warmed wave {wave} allocated");
        }
        assert_eq!(pool.slots(), 1, "sequential waves reuse one slot");
    }
}
