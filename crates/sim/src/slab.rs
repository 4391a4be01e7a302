//! A generational slab for in-flight simulation state.
//!
//! Message-granular engines park per-query (and per-update) contexts between
//! events. A hash map works, but every park/resume pays a hash plus
//! occasional rehash allocations — on the hot dispatch path that is the
//! dominant non-simulation cost at scale. The slab stores contexts in a flat
//! `Vec` with an intrusive free list: `reserve`/`park`/`take`/`free` are
//! O(1), allocation-free once the vec has grown to the high-water mark, and
//! the returned ids embed a per-slot *generation* so a stale id (an event
//! referencing a query that already resolved, whose slot was recycled)
//! simply misses instead of aliasing the new occupant.
//!
//! Id layout: `generation << 32 | slot`. Slots are recycled LIFO; each
//! recycle bumps the generation, so an id only repeats after 2^32 reuses of
//! one slot — beyond any simulated run.

/// Key into a [`Slab`]: `generation << 32 | slot`.
pub type SlabKey = u64;

const SLOT_BITS: u32 = 32;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// One slot: vacant (on the free list), reserved (id handed out, value not
/// yet parked — the state of a context currently being driven), or occupied.
enum Slot<T> {
    Vacant,
    Reserved,
    Occupied(T),
}

/// A generational slab; see the module docs.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Generation of each slot, bumped on `free`.
    generations: Vec<u32>,
    /// LIFO free list of vacant slot indices.
    free: Vec<u32>,
    /// Occupied slots (Reserved slots are *not* counted: a reserved context
    /// is in the caller's hands, not in flight on the queue).
    occupied: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab { slots: Vec::new(), generations: Vec::new(), free: Vec::new(), occupied: 0 }
    }

    /// An empty slab with room for `capacity` slots before growing.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            generations: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            occupied: 0,
        }
    }

    /// Number of occupied (parked) entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// `true` when no entries are parked.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Heap bytes held: the slot, generation and free-list vectors at
    /// their capacity (the high-water slot count, never shrunk).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<T>>()
            + (self.generations.capacity() + self.free.capacity()) * std::mem::size_of::<u32>()
    }

    /// Claims a slot and returns its key. The slot is *reserved*: the key is
    /// stable and can be embedded in scheduled events immediately, but the
    /// slab holds no value until [`Slab::park`].
    pub fn reserve(&mut self) -> SlabKey {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("slab exceeds 2^32 slots");
                self.slots.push(Slot::Vacant);
                self.generations.push(0);
                s
            }
        };
        self.slots[slot as usize] = Slot::Reserved;
        (u64::from(self.generations[slot as usize]) << SLOT_BITS) | u64::from(slot)
    }

    /// Parks `value` under a key from [`Slab::reserve`] (or returned to the
    /// reserved state by [`Slab::take`]).
    ///
    /// # Panics
    /// Panics if the key is stale or its slot is not reserved — parking is
    /// only valid while the caller owns the reservation.
    pub fn park(&mut self, key: SlabKey, value: T) {
        let slot = self.slot_of(key).expect("park with a stale slab key");
        assert!(
            matches!(self.slots[slot], Slot::Reserved),
            "park requires a reserved slot (reserve/take first)"
        );
        self.slots[slot] = Slot::Occupied(value);
        self.occupied += 1;
    }

    /// Takes the parked value out, leaving the slot *reserved* (the key
    /// stays valid — park again to resume, or [`Slab::free`] to finish).
    /// Returns `None` for stale keys and slots with nothing parked.
    pub fn take(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slot_of(key)?;
        match std::mem::replace(&mut self.slots[slot], Slot::Reserved) {
            Slot::Occupied(v) => {
                self.occupied -= 1;
                Some(v)
            }
            other => {
                // Not occupied: restore whatever state it was in.
                self.slots[slot] = other;
                None
            }
        }
    }

    /// Releases a slot (reserved or occupied), invalidating its key and
    /// recycling it. Stale keys are ignored (events outliving their context
    /// are normal). Returns the value that was parked, if any.
    pub fn free(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slot_of(key)?;
        let prev = std::mem::replace(&mut self.slots[slot], Slot::Vacant);
        if matches!(prev, Slot::Vacant) {
            return None;
        }
        if matches!(prev, Slot::Occupied(_)) {
            self.occupied -= 1;
        }
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.free.push(slot as u32);
        if let Slot::Occupied(v) = prev {
            Some(v)
        } else {
            None
        }
    }

    /// `true` if `key` currently has a parked value.
    pub fn contains(&self, key: SlabKey) -> bool {
        self.slot_of(key).is_some_and(|s| matches!(self.slots[s], Slot::Occupied(_)))
    }

    /// Borrows the parked value, if any.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let slot = self.slot_of(key)?;
        match &self.slots[slot] {
            Slot::Occupied(v) => Some(v),
            _ => None,
        }
    }

    /// Resolves a key to its slot index iff its generation is current.
    fn slot_of(&self, key: SlabKey) -> Option<usize> {
        let slot = (key & SLOT_MASK) as usize;
        let generation = (key >> SLOT_BITS) as u32;
        (slot < self.slots.len() && self.generations[slot] == generation).then_some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_park_take_free_cycle() {
        let mut s: Slab<&str> = Slab::new();
        let k = s.reserve();
        assert_eq!(s.len(), 0, "reserved slots are not parked");
        s.park(k, "ctx");
        assert_eq!(s.len(), 1);
        assert!(s.contains(k));
        assert_eq!(s.get(k), Some(&"ctx"));
        assert_eq!(s.take(k), Some("ctx"));
        assert_eq!(s.len(), 0);
        assert!(!s.contains(k), "taken values are no longer parked");
        s.park(k, "ctx2");
        assert_eq!(s.free(k), Some("ctx2"));
        assert!(s.is_empty());
    }

    #[test]
    fn stale_keys_miss_after_recycling() {
        let mut s: Slab<u32> = Slab::new();
        let k1 = s.reserve();
        s.park(k1, 7);
        s.free(k1);
        let k2 = s.reserve();
        assert_eq!(k2 & SLOT_MASK, k1 & SLOT_MASK, "LIFO recycling reuses the slot");
        assert_ne!(k1, k2, "generation must differ");
        s.park(k2, 8);
        assert_eq!(s.take(k1), None, "stale key must miss");
        assert_eq!(s.free(k1), None, "stale free is a no-op");
        assert_eq!(s.get(k2), Some(&8), "the new occupant is untouched");
    }

    #[test]
    fn take_leaves_key_valid_for_repark() {
        let mut s: Slab<u32> = Slab::new();
        let k = s.reserve();
        s.park(k, 1);
        let v = s.take(k).unwrap();
        assert_eq!(s.take(k), None, "double take finds nothing");
        s.park(k, v + 1);
        assert_eq!(s.get(k), Some(&2));
    }

    #[test]
    fn freeing_a_reservation_without_parking() {
        let mut s: Slab<u32> = Slab::new();
        let k = s.reserve();
        assert_eq!(s.free(k), None);
        assert!(s.is_empty());
        // Slot is recycled with a fresh generation.
        let k2 = s.reserve();
        assert_ne!(k, k2);
        s.free(k2);
    }

    #[test]
    fn steady_state_reuses_one_slot_without_growth() {
        let mut s: Slab<u64> = Slab::new();
        let mut last = None;
        for i in 0..10_000u64 {
            let k = s.reserve();
            s.park(k, i);
            assert_eq!(s.take(k), Some(i));
            s.free(k);
            if let Some(prev) = last {
                assert_ne!(prev, k);
            }
            last = Some(k);
        }
        assert_eq!(s.slots.len(), 1, "sequential lifecycles must reuse slot 0");
    }

    #[test]
    fn many_concurrent_entries() {
        let mut s: Slab<usize> = Slab::new();
        let keys: Vec<SlabKey> = (0..100)
            .map(|i| {
                let k = s.reserve();
                s.park(k, i);
                k
            })
            .collect();
        assert_eq!(s.len(), 100);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.get(k), Some(&i));
        }
        for &k in keys.iter().step_by(2) {
            s.free(k);
        }
        assert_eq!(s.len(), 50);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.contains(k), i % 2 == 1);
        }
    }

    #[test]
    #[should_panic(expected = "park requires a reserved slot")]
    fn double_park_panics() {
        let mut s: Slab<u32> = Slab::new();
        let k = s.reserve();
        s.park(k, 1);
        s.park(k, 2);
    }
}
