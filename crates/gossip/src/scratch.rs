//! Pooled per-wave scratch: the allocations a flood or rumor wave used to
//! make per query now live in lane-owned slots that are recycled across
//! waves.
//!
//! A [`WavePool`] owns two slot arenas — one for BFS floods, one for rumor
//! pushes — plus free lists. `ReplicaGroup::flood_begin`/`push_begin`
//! acquire a slot, the wave stores its index, and the slot's buffers
//! (visited/infected bitmaps, frontier double-buffers, decoder matrices)
//! are reset in O(group-size) without touching the allocator once the
//! high-water capacity is reached. Slots return to the free list when the
//! wave completes (floods release themselves; rumor slots are released
//! explicitly after the pull round, which still needs the decoder state).
//!
//! A slot keeps what its largest wave needed: a rumor slot holds one
//! decoder per member, each `32·g` bytes of rows at the wave's generation
//! `g`, so the pool's footprint is slots × members × g × 32 B plus the
//! bitmaps and knowledge map — [`WavePool::heap_bytes`] reports it and the
//! engine's scratch ledger sums it over lanes.
//!
//! The pool also counts acquires and tracks the arena high-water mark so a
//! regression test can assert the hot path reuses scratch instead of
//! growing it: with sequential queries per lane, `slots` stays at 1 while
//! `acquires` grows with every flood. [`WavePool::in_use`] counts the slots
//! not on a free list, which must be zero once every wave has finished.

use crate::codec::Decoder;
use std::mem::size_of;

/// Bits per bitmap word.
const WORD_BITS: usize = 64;

/// Sentinel slot index for waves that never acquired scratch (non-member
/// or offline origin, origin-answers floods) or already released it.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Number of `u64` words covering `n` bits.
#[inline]
pub(crate) fn words(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// Scratch for one in-flight BFS flood over a replica subnet.
#[derive(Default)]
pub(crate) struct FloodScratch {
    /// Members reached so far (local-index bitmap); persists across waves.
    pub(crate) visited: Vec<u64>,
    /// Working mask for the current wave: `visited | !online`, rebuilt at
    /// the top of every `flood_wave` call (liveness may change while the
    /// wave is parked under non-zero latency).
    pub(crate) blocked: Vec<u64>,
    /// Current frontier (local indices, BFS discovery order).
    pub(crate) frontier: Vec<usize>,
    /// Next-frontier buffer, swapped with `frontier` each wave.
    pub(crate) next: Vec<usize>,
}

/// Heap bytes of `v`'s allocation (its capacity, not its length).
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

impl FloodScratch {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.visited)
            + vec_bytes(&self.blocked)
            + vec_bytes(&self.frontier)
            + vec_bytes(&self.next)
    }
}

/// Scratch for one in-flight rumor push over a replica subnet.
#[derive(Default)]
pub(crate) struct RumorScratch {
    /// Members already infected (local-index bitmap).
    pub(crate) infected: Vec<u64>,
    /// Live spreaders with their consecutive-fruitless-push counters.
    pub(crate) active: Vec<(usize, u32)>,
    /// Next-round spreader buffer, swapped with `active` each round.
    pub(crate) next_active: Vec<(usize, u32)>,
    /// Per-spreader eligible-neighbor snapshot for coded pushes (the
    /// delivered filter changes mid-round, so the draw population must be
    /// frozen per spreader exactly as the old collected `Vec` froze it).
    pub(crate) nbrs: Vec<usize>,
    /// One decoder per member (coded waves; origin starts full-rank).
    pub(crate) decoders: Vec<Decoder>,
    /// Members whose deliver closure fired (decoded the update).
    pub(crate) delivered: Vec<bool>,
    /// Anti-entropy knowledge map: who each member heard packets from.
    pub(crate) heard_from: Vec<Vec<u32>>,
}

impl RumorScratch {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.infected)
            + vec_bytes(&self.active)
            + vec_bytes(&self.next_active)
            + vec_bytes(&self.nbrs)
            + vec_bytes(&self.decoders)
            + self.decoders.iter().map(Decoder::heap_bytes).sum::<usize>()
            + vec_bytes(&self.delivered)
            + vec_bytes(&self.heard_from)
            + self.heard_from.iter().map(vec_bytes).sum::<usize>()
    }
}

/// Lane-owned arena of recyclable wave scratch slots.
#[derive(Default)]
pub struct WavePool {
    floods: Vec<FloodScratch>,
    floods_free: Vec<u32>,
    rumors: Vec<RumorScratch>,
    rumors_free: Vec<u32>,
    acquires: u64,
}

impl WavePool {
    /// An empty pool; slots are grown on demand and then recycled.
    pub fn new() -> WavePool {
        WavePool::default()
    }

    /// Total slots ever allocated (the arena high-water mark). Sequential
    /// waves keep this at 1 per kind no matter how many waves run.
    pub fn slots(&self) -> usize {
        self.floods.len() + self.rumors.len()
    }

    /// Waves that acquired scratch so far (the reuse generation counter).
    pub fn acquires(&self) -> u64 {
        self.acquires
    }

    /// `(flood, rumor)` slots held by waves right now: acquired and not yet
    /// released. Both are zero whenever no wave is in flight — a slot a
    /// finished or abandoned wave never returned is a leak.
    pub fn in_use(&self) -> (usize, usize) {
        (self.floods.len() - self.floods_free.len(), self.rumors.len() - self.rumors_free.len())
    }

    /// Heap bytes the pool holds: every slot's buffers at their retained
    /// capacity (decoder rows included), the slot arenas and free lists.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.floods)
            + self.floods.iter().map(FloodScratch::heap_bytes).sum::<usize>()
            + vec_bytes(&self.floods_free)
            + vec_bytes(&self.rumors)
            + self.rumors.iter().map(RumorScratch::heap_bytes).sum::<usize>()
            + vec_bytes(&self.rumors_free)
    }

    /// Acquires a flood slot reset for a group of `n` members.
    pub(crate) fn acquire_flood(&mut self, n: usize) -> u32 {
        self.acquires += 1;
        let slot = match self.floods_free.pop() {
            Some(slot) => slot,
            None => {
                self.floods.push(FloodScratch::default());
                (self.floods.len() - 1) as u32
            }
        };
        let s = &mut self.floods[slot as usize];
        let w = words(n);
        if s.visited.len() < w {
            s.visited.resize(w, 0);
            s.blocked.resize(w, 0);
        }
        s.visited[..w].fill(0);
        s.frontier.clear();
        s.next.clear();
        slot
    }

    pub(crate) fn flood_mut(&mut self, slot: u32) -> &mut FloodScratch {
        &mut self.floods[slot as usize]
    }

    pub(crate) fn release_flood(&mut self, slot: u32) {
        debug_assert!(!self.floods_free.contains(&slot), "double release");
        self.floods_free.push(slot);
    }

    /// Acquires a rumor slot reset for a group of `n` members; `coded`
    /// additionally resets the decoder matrices (to generation size `gen`)
    /// and the knowledge map. A decoder keeps its row buffer across
    /// resets, so a recycled slot allocates only when the group or the
    /// generation is larger than any wave it served before.
    pub(crate) fn acquire_rumor(&mut self, n: usize, coded: bool, gen: usize) -> u32 {
        self.acquires += 1;
        let slot = match self.rumors_free.pop() {
            Some(slot) => slot,
            None => {
                self.rumors.push(RumorScratch::default());
                (self.rumors.len() - 1) as u32
            }
        };
        let s = &mut self.rumors[slot as usize];
        let w = words(n);
        if s.infected.len() < w {
            s.infected.resize(w, 0);
        }
        s.infected[..w].fill(0);
        s.active.clear();
        s.next_active.clear();
        if coded {
            if s.decoders.len() < n {
                s.decoders.resize(n, Decoder::empty(gen));
                s.delivered.resize(n, false);
                s.heard_from.resize(n, Vec::new());
            }
            for d in &mut s.decoders[..n] {
                d.reset(gen);
            }
            s.delivered[..n].fill(false);
            for h in &mut s.heard_from[..n] {
                h.clear();
            }
        }
        slot
    }

    pub(crate) fn rumor_mut(&mut self, slot: u32) -> &mut RumorScratch {
        &mut self.rumors[slot as usize]
    }

    pub(crate) fn release_rumor(&mut self, slot: u32) {
        debug_assert!(!self.rumors_free.contains(&slot), "double release");
        self.rumors_free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle_without_growing_the_arena() {
        let mut pool = WavePool::new();
        for _ in 0..100 {
            let f = pool.acquire_flood(130);
            assert_eq!(f, 0, "sequential floods must reuse slot 0");
            pool.release_flood(f);
            let r = pool.acquire_rumor(130, true, 8);
            assert_eq!(r, 0, "sequential rumors must reuse slot 0");
            pool.release_rumor(r);
        }
        assert_eq!(pool.slots(), 2);
        assert_eq!(pool.acquires(), 200);
    }

    #[test]
    fn concurrent_waves_get_distinct_slots() {
        let mut pool = WavePool::new();
        let a = pool.acquire_flood(10);
        let b = pool.acquire_flood(10);
        assert_ne!(a, b);
        pool.release_flood(a);
        assert_eq!(pool.acquire_flood(64), a, "freed slot is recycled first");
    }

    #[test]
    fn acquire_resets_state_but_keeps_capacity() {
        let mut pool = WavePool::new();
        let slot = pool.acquire_flood(200);
        {
            let s = pool.flood_mut(slot);
            s.visited[0] = u64::MAX;
            s.frontier.push(7);
        }
        pool.release_flood(slot);
        let slot = pool.acquire_flood(65);
        let s = pool.flood_mut(slot);
        assert_eq!(s.visited[0], 0);
        assert_eq!(s.visited[1], 0);
        assert!(s.frontier.is_empty());
        assert!(s.visited.len() >= words(200), "capacity survives recycling");
    }

    #[test]
    fn rumor_acquire_resets_coded_state() {
        let mut pool = WavePool::new();
        let slot = pool.acquire_rumor(8, true, 8);
        {
            let s = pool.rumor_mut(slot);
            s.decoders[3] = Decoder::full(8);
            s.delivered[3] = true;
            s.heard_from[3].push(1);
        }
        pool.release_rumor(slot);
        let slot = pool.acquire_rumor(8, true, 8);
        let s = pool.rumor_mut(slot);
        assert!(!s.decoders[3].is_complete());
        assert!(!s.delivered[3]);
        assert!(s.heard_from[3].is_empty());
    }

    /// `in_use` counts acquired-but-unreleased slots per kind, and a rumor
    /// slot costs its members' decoder rows at the wave's generation — 32 B
    /// per row, `g` rows per member — plus small per-member headers.
    #[test]
    fn in_use_and_heap_bytes_follow_the_slots() {
        let mut pool = WavePool::new();
        assert_eq!((pool.in_use(), pool.heap_bytes()), ((0, 0), 0));
        let f = pool.acquire_flood(100);
        let r = pool.acquire_rumor(100, true, 8);
        assert_eq!(pool.in_use(), (1, 1));
        let rows = 100 * 8 * crate::MAX_GENERATION;
        let held = pool.heap_bytes();
        assert!(held >= rows && held <= rows + 100 * 128, "{held} B for {rows} B of rows");
        pool.release_flood(f);
        pool.release_rumor(r);
        assert_eq!(pool.in_use(), (0, 0));
        let at_8 = pool.heap_bytes();
        assert!(at_8 - held <= 64, "released slots keep their buffers; only free lists grow");
        let r = pool.acquire_rumor(100, true, 32);
        assert_eq!(pool.heap_bytes() - at_8, 100 * 24 * crate::MAX_GENERATION);
        pool.release_rumor(r);
    }

    /// A slot recycled at a different generation size resets every decoder
    /// to an empty decoder *at the new size* — no allocation, no stale
    /// rows from the previous generation.
    #[test]
    fn rumor_acquire_switches_generation_sizes_in_place() {
        let mut pool = WavePool::new();
        let slot = pool.acquire_rumor(8, true, 8);
        pool.rumor_mut(slot).decoders[2] = Decoder::full(8);
        pool.release_rumor(slot);
        let slot = pool.acquire_rumor(8, true, 32);
        let s = pool.rumor_mut(slot);
        assert_eq!(s.decoders[2], Decoder::empty(32));
        assert_eq!(s.decoders[2].generation(), 32);
    }
}
