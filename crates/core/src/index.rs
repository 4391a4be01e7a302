//! The per-peer partial index with TTL-based admission (Section 5.1).
//!
//! "Each key has an expiration time keyTtl … The expiration time of a key
//! is reset to a predefined value whenever the peer that stores the key
//! receives a query for it. Therefore, peers evict those keys from their
//! local storage that have not been queried for keyTtl rounds."
//!
//! Capacity is bounded (`stor` in Table 1): when full, the entry expiring
//! soonest is evicted first — it is the entry the TTL policy already deems
//! least worth keeping.
//!
//! Entries are keyed by the **dense key index** (`0..num_keys`, the
//! position in the engine's key universe), not the routed [`Key`] hash:
//! every engine call site already knows the index, and the index doubles
//! as the offset into the engine's flattened replica-count arena (see
//! `network::peer`). An entry stores only what the selection algorithm
//! changes — the value's version and the expiry. The routed key is
//! [`Key::of_index`] of the index and the payload is the index itself, so
//! both are derived, never stored. The eviction tie-break re-derives the
//! routed key (kept on the hash, so victim selection is independent of the
//! keying scheme).
//!
//! # Layout
//!
//! Two parallel columns sorted by dense index — `Vec<u32>` of indices and
//! `Vec<IndexEntry>` of 16-byte entries, 20 bytes per resident entry. A
//! store holds at most `stor` (~100) entries, so a lookup is a binary
//! search over one or two cache lines of indices, and insert/remove shift
//! a short tail. Nothing is allocated until the first insert, and the
//! columns never grow past `capacity`: a store costs what it holds, which
//! is what lets 10⁵–10⁶ simulated peers each carry one. Every observable
//! result — [`InsertResult`]s, eviction victims, purge sets, [`iter`]
//! order (ascending index) — is a function of the operation sequence
//! alone; nothing depends on a hash table's bucket layout (the hash map
//! this replaced lives on as the lockstep model in
//! `crates/core/tests/properties.rs`).
//!
//! [`iter`]: PartialIndex::iter

use crate::ttl::Ttl;
use pdht_gossip::VersionedValue;
use pdht_types::Key;

/// One stored entry: the state of a resident key. Its routed key
/// ([`Key::of_index`]) and payload (the dense index) are derived from the
/// index the entry is filed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// The stored value's version.
    pub version: u64,
    /// Round at which the entry expires (exclusive: an entry with
    /// `expires_at == now` is already gone).
    pub expires_at: u64,
}

impl IndexEntry {
    /// Re-insert of a resident key: the newer version wins, the expiry
    /// only ever extends.
    fn absorb(&mut self, version: u64, expires_at: u64) {
        self.version = self.version.max(version);
        self.expires_at = self.expires_at.max(expires_at);
    }
}

// The per-entry footprint the store sizing (and `peak_rss_mb`) rests on.
const _: () = assert!(std::mem::size_of::<IndexEntry>() == 16);

/// Outcome of an [`PartialIndex::insert`]: whether the key was new to this
/// store, and any entry evicted to make room. The harness uses both to keep
/// its global indexed-key refcounts exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertResult {
    /// `true` if the key was not present before.
    pub was_new: bool,
    /// The dense index of a pre-existing key evicted due to the capacity
    /// bound.
    pub evicted: Option<u32>,
}

/// A bounded TTL key-value store over dense key indices.
#[derive(Clone, Debug)]
pub struct PartialIndex {
    /// Resident dense key indices, strictly ascending.
    keys: Vec<u32>,
    /// `entries[i]` is the entry of `keys[i]`.
    entries: Vec<IndexEntry>,
    capacity: usize,
}

impl PartialIndex {
    /// An empty index bounded to `capacity` entries. Allocates nothing.
    pub fn new(capacity: usize) -> PartialIndex {
        PartialIndex { keys: Vec::new(), entries: Vec::new(), capacity }
    }

    /// Number of live entries (expired-but-unpurged entries included; call
    /// [`PartialIndex::purge_expired_into`] at round boundaries).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes the two columns hold (allocated, not just occupied).
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<IndexEntry>()
    }

    /// Sizes the columns for `total` resident entries (clamped to the
    /// capacity bound) in one exact allocation — for callers that know a
    /// store's load up front, instead of doubling towards it.
    pub fn reserve(&mut self, total: usize) {
        let extra = total.min(self.capacity).saturating_sub(self.keys.len());
        self.keys.reserve_exact(extra);
        self.entries.reserve_exact(extra);
    }

    /// Looks up key index `idx` at round `now` and returns the stored
    /// version. On a hit the entry's expiry is reset to `now + ttl` (the
    /// query-refresh rule that makes the index query-adaptive). Expired
    /// entries are treated as absent.
    pub fn get_and_refresh(&mut self, idx: u32, now: u64, ttl: Ttl) -> Option<u64> {
        let pos = self.keys.binary_search(&idx).ok()?;
        let e = &mut self.entries[pos];
        if e.expires_at > now {
            e.expires_at = ttl.expires_at(now);
            Some(e.version)
        } else {
            None
        }
    }

    /// The stored version of `idx`, without refreshing (diagnostics).
    pub fn peek(&self, idx: u32, now: u64) -> Option<u64> {
        let e = &self.entries[self.keys.binary_search(&idx).ok()?];
        (e.expires_at > now).then_some(e.version)
    }

    /// Inserts key index `idx` with expiry `now + ttl`, overwriting only
    /// with newer versions. If at capacity, evicts the soonest-expiring
    /// entry (ties broken on the routed key's hash, then on the smaller
    /// dense index).
    ///
    /// `key` and `value.data` must be what the store derives from `idx`
    /// ([`Key::of_index`] and the index itself; checked in debug builds):
    /// only `value.version` is stored.
    pub fn insert(
        &mut self,
        idx: u32,
        key: Key,
        value: VersionedValue,
        now: u64,
        ttl: Ttl,
    ) -> InsertResult {
        debug_assert_eq!(key, Key::of_index(idx), "routed key of index {idx} is derived");
        debug_assert_eq!(value.data, u64::from(idx), "payload of index {idx} is derived");
        self.insert_version(idx, value.version, now, ttl)
    }

    /// [`PartialIndex::insert`] of `version` at key index `idx`.
    pub(crate) fn insert_version(
        &mut self,
        idx: u32,
        version: u64,
        now: u64,
        ttl: Ttl,
    ) -> InsertResult {
        let expires_at = ttl.expires_at(now);
        let mut pos = match self.keys.binary_search(&idx) {
            Ok(pos) => {
                self.entries[pos].absorb(version, expires_at);
                return InsertResult { was_new: false, evicted: None };
            }
            Err(pos) => pos,
        };
        let mut evicted = None;
        if self.keys.len() >= self.capacity {
            if let Some(victim) = self.victim() {
                evicted = Some(self.keys.remove(victim));
                self.entries.remove(victim);
                pos -= usize::from(victim < pos);
            }
        }
        if self.capacity == 0 {
            return InsertResult { was_new: false, evicted };
        }
        if self.keys.len() == self.keys.capacity() {
            // Double, but never past the bound (a plain `push` would round
            // a 100-entry store up to 128).
            self.reserve((2 * self.keys.len()).max(4));
        }
        self.keys.insert(pos, idx);
        self.entries.insert(pos, IndexEntry { version, expires_at });
        InsertResult { was_new: true, evicted }
    }

    /// Position of the entry to evict: the `(expires_at, routed-key hash)`
    /// minimum, a full tie going to the smaller dense index. Two passes —
    /// the soonest expiry, then the hash of only the entries tied at it.
    fn victim(&self) -> Option<usize> {
        let soonest = self.entries.iter().map(|e| e.expires_at).min()?;
        (0..self.entries.len())
            .filter(|&i| self.entries[i].expires_at == soonest)
            .min_by_key(|&i| Key::of_index(self.keys[i]).0)
    }

    /// Inserts every entry of `donor` with expiry `now + ttl` — exactly
    /// [`PartialIndex::insert`] per entry in ascending index order, each
    /// result handed to `each` — as one in-step walk of the two sorted
    /// stores: a key both hold costs one comparison, no search.
    pub fn insert_all_from(
        &mut self,
        donor: &PartialIndex,
        now: u64,
        ttl: Ttl,
        mut each: impl FnMut(u32, InsertResult),
    ) {
        let expires_at = ttl.expires_at(now);
        // Every key before `at` is smaller than the donor key in hand —
        // also across an `insert` below, whatever it evicted.
        let mut at = 0;
        for (idx, theirs) in donor.iter() {
            at += self.keys[at..].iter().take_while(|&&mine| mine < idx).count();
            let res = if self.keys.get(at) == Some(&idx) {
                self.entries[at].absorb(theirs.version, expires_at);
                InsertResult { was_new: false, evicted: None }
            } else {
                self.insert_version(idx, theirs.version, now, ttl)
            };
            each(idx, res);
        }
    }

    /// Removes key index `idx` outright. Returns whether it was present.
    pub fn remove(&mut self, idx: u32) -> bool {
        let Ok(pos) = self.keys.binary_search(&idx) else { return false };
        self.keys.remove(pos);
        self.entries.remove(pos);
        true
    }

    /// Drops all entries with `expires_at <= now`, appending their key
    /// indices to `out` in ascending order (callers reuse the buffer so
    /// the per-event sweep is allocation-free; the harness keeps a global
    /// refcount of indexed keys). Survivors compact in place, in order.
    pub fn purge_expired_into(&mut self, now: u64, out: &mut Vec<u32>) {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if self.entries[i].expires_at > now {
                self.keys[kept] = self.keys[i];
                self.entries[kept] = self.entries[i];
                kept += 1;
            } else {
                out.push(self.keys[i]);
            }
        }
        self.keys.truncate(kept);
        self.entries.truncate(kept);
    }

    /// Iterates live entries in ascending dense-index order
    /// (diagnostics/pull-synchronization).
    pub fn iter(&self) -> impl Iterator<Item = (u32, IndexEntry)> + '_ {
        self.keys.iter().copied().zip(self.entries.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Version `version` of key index `idx` (the payload is the index).
    fn v(idx: u32, version: u64) -> VersionedValue {
        VersionedValue { version, data: u64::from(idx) }
    }

    fn k(idx: u32) -> Key {
        Key::of_index(idx)
    }

    fn purged(idx: &mut PartialIndex, now: u64) -> Vec<u32> {
        let mut gone = Vec::new();
        idx.purge_expired_into(now, &mut gone);
        gone
    }

    #[test]
    fn insert_then_get_within_ttl() {
        let mut idx = PartialIndex::new(10);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(5));
        assert_eq!(idx.get_and_refresh(1, 4, Ttl::Rounds(5)), Some(1));
        assert_eq!(idx.peek(2, 0), None);
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut idx = PartialIndex::new(10);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(5));
        // Expiry at round 5 is exclusive.
        assert_eq!(idx.peek(1, 4), Some(1));
        assert_eq!(idx.peek(1, 5), None);
        assert_eq!(idx.get_and_refresh(1, 5, Ttl::Rounds(5)), None);
    }

    #[test]
    fn queries_refresh_expiry() {
        let mut idx = PartialIndex::new(10);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(5));
        // Touch at round 4: new expiry 9.
        assert!(idx.get_and_refresh(1, 4, Ttl::Rounds(5)).is_some());
        assert_eq!(idx.peek(1, 8), Some(1));
        assert_eq!(idx.peek(1, 9), None);
    }

    #[test]
    fn unqueried_keys_time_out_queried_keys_survive() {
        // The selection mechanism in miniature: two keys, one queried every
        // round, one never; after ttl rounds only the queried key remains.
        let mut idx = PartialIndex::new(10);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(3));
        idx.insert(2, k(2), v(2, 1), 0, Ttl::Rounds(3));
        for now in 1..10 {
            idx.get_and_refresh(1, now, Ttl::Rounds(3));
            let _ = purged(&mut idx, now);
        }
        assert!(idx.peek(1, 9).is_some());
        assert!(idx.peek(2, 9).is_none());
    }

    #[test]
    fn purge_returns_expired_keys() {
        let mut idx = PartialIndex::new(10);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(2));
        idx.insert(2, k(2), v(2, 1), 0, Ttl::Rounds(4));
        let mut gone = purged(&mut idx, 2);
        gone.sort_unstable();
        assert_eq!(gone, vec![1]);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn capacity_evicts_soonest_expiring() {
        // Expiry decides before the hash: key 1 hashes lower but lives longer.
        assert!(k(1) < k(2));
        let mut idx = PartialIndex::new(2);
        assert!(idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(10)).was_new);
        assert!(idx.insert(2, k(2), v(2, 1), 0, Ttl::Rounds(3)).was_new); // soonest to expire
        let res = idx.insert(3, k(3), v(3, 1), 0, Ttl::Rounds(7));
        assert!(res.was_new);
        assert_eq!(res.evicted, Some(2));
        assert_eq!(idx.len(), 2);
        assert!(idx.peek(1, 0).is_some());
        assert!(idx.peek(3, 0).is_some());
    }

    #[test]
    fn eviction_ties_break_on_routed_key_hash() {
        // Indices 3 < 4, but their routed keys order the other way, so a
        // tie-break on the index would evict 3.
        assert!(k(3) > k(4));
        let mut idx = PartialIndex::new(2);
        idx.insert(3, k(3), v(3, 1), 0, Ttl::Rounds(5));
        idx.insert(4, k(4), v(4, 1), 0, Ttl::Rounds(5));
        let res = idx.insert(9, k(9), v(9, 1), 0, Ttl::Rounds(5));
        assert_eq!(res.evicted, Some(4), "victim is the smallest key hash, not index");
    }

    #[test]
    fn reinsert_reports_not_new() {
        let mut idx = PartialIndex::new(4);
        assert!(idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(5)).was_new);
        let res = idx.insert(1, k(1), v(1, 2), 1, Ttl::Rounds(5));
        assert!(!res.was_new);
        assert_eq!(res.evicted, None);
    }

    #[test]
    fn reinsert_extends_but_never_downgrades_version() {
        let mut idx = PartialIndex::new(4);
        idx.insert(1, k(1), v(1, 3), 0, Ttl::Rounds(5));
        // Stale version: value kept, expiry extended.
        idx.insert(1, k(1), v(1, 2), 2, Ttl::Rounds(5));
        assert_eq!(idx.peek(1, 6), Some(3));
        // Newer version replaces.
        idx.insert(1, k(1), v(1, 4), 3, Ttl::Rounds(5));
        assert_eq!(idx.peek(1, 4), Some(4));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn reinsert_never_shortens_expiry() {
        let mut idx = PartialIndex::new(4);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(10));
        idx.insert(1, k(1), v(1, 1), 1, Ttl::Rounds(2)); // would expire at 3 < 10
        assert!(idx.peek(1, 9).is_some(), "expiry must keep the max");
    }

    #[test]
    fn zero_capacity_index_stores_nothing() {
        let mut idx = PartialIndex::new(0);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(5));
        assert!(idx.is_empty());
        assert_eq!(idx.peek(1, 0), None);
    }

    #[test]
    fn remove_and_iter() {
        let mut idx = PartialIndex::new(4);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Rounds(5));
        idx.insert(2, k(2), v(2, 2), 0, Ttl::Rounds(5));
        assert_eq!(idx.iter().count(), 2);
        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert_eq!(idx.iter().count(), 1);
    }

    #[test]
    fn iter_and_purge_run_in_ascending_index_order() {
        let mut idx = PartialIndex::new(8);
        for i in [5u32, 1, 7, 3, 2] {
            idx.insert(i, k(i), v(i, u64::from(i)), 0, Ttl::Rounds(u64::from(i)));
        }
        let order: Vec<u32> = idx.iter().map(|(i, _)| i).collect();
        assert_eq!(order, [1, 2, 3, 5, 7]);
        assert!(idx
            .iter()
            .all(|(i, e)| e == IndexEntry { version: u64::from(i), expires_at: u64::from(i) }));
        assert_eq!(purged(&mut idx, 3), [1, 2, 3]);
        assert_eq!(idx.iter().map(|(i, _)| i).collect::<Vec<_>>(), [5, 7]);
    }

    #[test]
    fn columns_cost_what_they_hold_and_never_outgrow_the_bound() {
        let mut idx = PartialIndex::new(100);
        assert_eq!(idx.heap_bytes(), 0, "nothing allocated before the first insert");
        for i in 0..300u32 {
            idx.insert(i, k(i), v(i, 1), u64::from(i), Ttl::Rounds(5));
        }
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.heap_bytes(), 100 * 20, "doubling stops at the capacity bound");
        let mut exact = PartialIndex::new(100);
        exact.reserve(78);
        assert_eq!(exact.heap_bytes(), 78 * 20);
        exact.reserve(1_000);
        assert_eq!(exact.heap_bytes(), 100 * 20, "reserve clamps to the bound");
    }

    #[test]
    fn saturating_ttl_does_not_overflow() {
        let mut idx = PartialIndex::new(2);
        idx.insert(1, k(1), v(1, 1), u64::MAX - 1, Ttl::Rounds(u64::MAX));
        assert!(idx.peek(1, u64::MAX - 1).is_some());
        // Infinite TTL entries survive any clock.
        idx.insert(2, k(2), v(2, 1), 0, Ttl::Infinite);
        assert!(idx.peek(2, u64::MAX - 1).is_some());
    }
}
