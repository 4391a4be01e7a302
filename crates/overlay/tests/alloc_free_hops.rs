//! A successful `next_hop` performs zero heap allocations on the
//! arena-backed substrates: the candidate order is a stack copy of one
//! fixed-stride row, not a cloned `Vec`.
//!
//! Measured, not inferred: this test binary installs a counting global
//! allocator (the one `unsafe` site in the package, hence its own file and
//! the scoped `allow`). Counts are per thread, so the libtest harness's own
//! threads cannot leak into a measurement.
#![allow(unsafe_code)]

use pdht_overlay::{HopOutcome, KademliaOverlay, Overlay, TrieOverlay};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, PeerId};
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

/// Routes `lookups` random lookups hop by hop and returns how many
/// successful hops were checked; every one must leave the allocation
/// counter where it found it.
fn assert_hops_do_not_allocate(overlay: &dyn Overlay, live: &Liveness, lookups: usize) -> usize {
    let n = overlay.num_active();
    let mut rng = SmallRng::seed_from_u64(0xa110c);
    let mut metrics = Metrics::new();
    let mut checked = 0;
    for _ in 0..lookups {
        let from = PeerId::from_idx(rng.random_range(0..n));
        if !live.is_online(from) {
            continue;
        }
        let key = Key(rng.random::<u64>());
        let mut state = overlay.begin_lookup(from, key);
        loop {
            let before = allocations();
            let step = overlay.next_hop(key, &mut state, live, &mut rng, &mut metrics);
            let spent = allocations() - before;
            match step {
                // A dead end formats its reason; only successes are free.
                Err(_) => break,
                Ok(outcome) => {
                    assert_eq!(spent, 0, "next_hop allocated on {outcome:?}");
                    checked += 1;
                    if matches!(outcome, HopOutcome::Arrived(_)) {
                        break;
                    }
                }
            }
        }
    }
    checked
}

#[test]
fn successful_next_hop_is_allocation_free_on_kademlia_and_trie() {
    let n = 4096;
    let mut rng = SmallRng::seed_from_u64(11);
    let kademlia = KademliaOverlay::build(n, 8, &mut rng).unwrap();
    let trie = TrieOverlay::build(n, 8, &mut rng).unwrap();
    // The counter must see what the old hop did: cloning a row allocates.
    let before = allocations();
    let cloned = std::hint::black_box(kademlia.bucket(PeerId(0), 0).to_vec());
    assert!(allocations() > before, "counting allocator is not installed");
    drop(cloned);

    let all_online = Liveness::all_online(n);
    let mut churned = Liveness::all_online(n);
    for p in (0..n).map(PeerId::from_idx) {
        churned.set(p, rng.random::<f64>() >= 0.3);
    }
    for overlay in [&kademlia as &dyn Overlay, &trie] {
        for live in [&all_online, &churned] {
            let checked = assert_hops_do_not_allocate(overlay, live, 400);
            assert!(checked > 400, "too few successful hops exercised: {checked}");
        }
    }
}
