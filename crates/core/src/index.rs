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
//! Sorted columns: the `u32` dense indices, strictly ascending, and beside
//! them what each resident key holds. A store holds at most `stor` (~100)
//! entries, so a lookup is a binary search over one or two cache lines of
//! indices, and insert/remove shift a short tail. A store is in one of two
//! states:
//!
//! - **Owned** — a `Vec<u32>` of indices and a `Vec<IndexEntry>` of 8-byte
//!   entries (a `u32` version and a `u32` expiry round): 12 bytes per
//!   resident entry. Every Partial store, and where every store starts
//!   ([`PartialIndex::new`] allocates nothing).
//! - **Shared** — the indices are an `Arc<[u32]>` run shared with every
//!   other store holding the same keys, and the store owns only its
//!   versions, none of which ever expires: 4 bytes per entry, plus the run
//!   once. Built by [`PartialIndex::from_shared_run`]: the IndexAll preload
//!   gives every member of a replica group its group's run, and under
//!   IndexAll nothing ever changes a store's key set.
//!
//! There is one transition, Shared → Owned: the store copies the run and
//! widens its versions to never-expiring entries, and every other sharer
//! keeps the run untouched. A shared store takes it the first time its key
//! set changes — an absent insert, an eviction, a purge that drops
//! something, a removal — or an entry is given a finite expiry. Reads,
//! version updates of resident keys (an entry that never expires keeps
//! doing so), refreshes that stay never, and purges that drop nothing
//! write only the store's own versions.
//!
//! The columns never grow past `capacity`: a store costs what it holds,
//! which is what lets 10⁵–10⁶ simulated peers each carry one. Every
//! observable result — [`InsertResult`]s, eviction victims, purge sets,
//! [`iter`] order (ascending index) — is a function of the operation
//! sequence alone, whichever state the store is in; nothing depends on a
//! hash table's bucket layout (the hash map this replaced lives on as the
//! lockstep model in `crates/core/tests/properties.rs`).
//!
//! ## The `u32` horizon
//!
//! The public API speaks `u64` rounds and versions; the columns hold
//! `u32`s. `u32::MAX` in the expiry column means *never*: a
//! [`Ttl::Infinite`] entry, and also any finite expiry at or past round
//! 2³²−1, which saturates to never (a shared store holds only such
//! entries). A version past `u32::MAX` saturates
//! there (an article needs 4.29 × 10⁹ replacements to reach it), so
//! versions never go backwards. Both narrowings happen in
//! `IndexEntry::new` and never panic; reads widen through
//! [`IndexEntry::version`] and [`IndexEntry::expires_at`], which maps
//! never back to `u64::MAX`, so `Ttl::Infinite` entries outlive any `u64`
//! clock. Liveness checks narrow the clock instead of widening every
//! entry (`IndexEntry::live_above`), with the same answers. Below the
//! horizon every result equals the `u64` store's.
//!
//! [`iter`]: PartialIndex::iter

use crate::ttl::Ttl;
use pdht_gossip::VersionedValue;
use pdht_types::Key;
use std::sync::Arc;

/// One stored entry: the state of a resident key. Its routed key
/// ([`Key::of_index`]) and payload (the dense index) are derived from the
/// index the entry is filed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// The stored value's version, saturated at `u32::MAX`.
    version: u32,
    /// Round at which the entry expires (exclusive: an entry with
    /// `expires_at == now` is already gone); `u32::MAX` (never) for
    /// entries that never expire, including finite expiries at or past
    /// round 2³²−1.
    expires_at: u32,
}

impl IndexEntry {
    /// The expiry column's "never".
    const NEVER: u32 = u32::MAX;

    /// The entry of `version` expiring at round `expires_at` — the one
    /// place the store narrows the public `u64`s to its columns. Both
    /// saturate at `u32::MAX`, which in the expiry column means never.
    fn new(version: u64, expires_at: u64) -> IndexEntry {
        let narrow = |x: u64| u32::try_from(x).unwrap_or(u32::MAX);
        IndexEntry { version: narrow(version), expires_at: narrow(expires_at) }
    }

    /// The stored version (saturated at `u32::MAX`).
    pub fn version(self) -> u64 {
        u64::from(self.version)
    }

    /// The expiry round, `u64::MAX` for an entry that never expires (the
    /// value [`Ttl::expires_at`] gives `Ttl::Infinite`).
    pub fn expires_at(self) -> u64 {
        match self.expires_at {
            Self::NEVER => u64::MAX,
            round => u64::from(round),
        }
    }

    /// A never-expiring entry of the narrowed `version`.
    fn never(version: u32) -> IndexEntry {
        IndexEntry { version, expires_at: Self::NEVER }
    }

    /// Whether the entry is still visible at round `now`.
    fn live_at(self, now: u64) -> bool {
        self.expires_at > Self::live_above(now)
    }

    /// The expiry column an entry must exceed to be live at round `now`:
    /// `now` below the horizon, `u32::MAX - 1` from there on (only
    /// never-expiring entries stay) and `u32::MAX` at the last `u64`
    /// round, which nothing outlives. Comparing the column with it answers
    /// what widening the entry and comparing it with `now` would, and it
    /// is loop-invariant, so a purge sweep compares plain `u32`s.
    fn live_above(now: u64) -> u32 {
        match now {
            u64::MAX => Self::NEVER,
            _ => u32::try_from(now).unwrap_or(u32::MAX).min(Self::NEVER - 1),
        }
    }

    /// Re-insert of a resident key: the newer version wins, the expiry
    /// only ever extends. (Both narrowings are monotone, so the maxima of
    /// the columns are the narrowed maxima of the `u64`s.)
    fn absorb(&mut self, fresh: IndexEntry) {
        self.version = self.version.max(fresh.version);
        self.expires_at = self.expires_at.max(fresh.expires_at);
    }
}

// The per-entry footprint the store sizing (and `peak_rss_mb`) rests on.
const _: () = assert!(std::mem::size_of::<IndexEntry>() == 8);

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
    columns: Columns,
    capacity: usize,
}

/// The resident keys, strictly ascending, and what each holds: entry (or
/// version) `i` belongs to key `i`.
#[derive(Clone, Debug)]
enum Columns {
    Owned {
        keys: Vec<u32>,
        entries: Vec<IndexEntry>,
    },
    /// A run shared copy-on-write with every other store holding the same
    /// keys; every entry never expires.
    Shared {
        run: Arc<[u32]>,
        versions: Vec<u32>,
    },
}

impl Columns {
    fn keys(&self) -> &[u32] {
        match self {
            Columns::Owned { keys, .. } => keys,
            Columns::Shared { run, .. } => run,
        }
    }

    fn get(&self, pos: usize) -> IndexEntry {
        match self {
            Columns::Owned { entries, .. } => entries[pos],
            Columns::Shared { versions, .. } => IndexEntry::never(versions[pos]),
        }
    }

    /// The owned columns, unshared first if they are shared: the store
    /// copies the run and widens its versions, and every other sharer keeps
    /// the run.
    fn owned(&mut self) -> (&mut Vec<u32>, &mut Vec<IndexEntry>) {
        // At most two passes: the first unshares.
        loop {
            match self {
                Columns::Owned { keys, entries } => return (keys, entries),
                Columns::Shared { run, versions } => {
                    let entries = versions.iter().map(|&v| IndexEntry::never(v)).collect();
                    *self = Columns::Owned { keys: run.to_vec(), entries };
                }
            }
        }
    }

    /// [`IndexEntry::absorb`] at `pos`. A shared entry never expires, so
    /// it outlasts any fresh expiry and only its version can change: the
    /// store stays shared.
    fn absorb(&mut self, pos: usize, fresh: IndexEntry) {
        match self {
            Columns::Owned { entries, .. } => entries[pos].absorb(fresh),
            Columns::Shared { versions, .. } => versions[pos] = versions[pos].max(fresh.version),
        }
    }
}

/// Position of the entry to evict: the `(expires_at, routed-key hash)`
/// minimum, a full tie going to the smaller dense index. Two passes — the
/// soonest expiry, then the hash of only the entries tied at it.
fn victim(keys: &[u32], entries: &[IndexEntry]) -> Option<usize> {
    let soonest = entries.iter().map(|e| e.expires_at).min()?;
    (0..keys.len())
        .filter(|&i| entries[i].expires_at == soonest)
        .min_by_key(|&i| Key::of_index(keys[i]).0)
}

/// Drops every entry whose expiry is not above `above`, with its key,
/// appending the dropped keys to `out` in order; survivors compact in
/// place, in order.
fn purge(keys: &mut Vec<u32>, entries: &mut Vec<IndexEntry>, above: u32, out: &mut Vec<u32>) {
    let Some(first) = entries.iter().position(|e| e.expires_at <= above) else { return };
    let mut kept = first;
    for i in first..keys.len() {
        if entries[i].expires_at > above {
            keys[kept] = keys[i];
            entries[kept] = entries[i];
            kept += 1;
        } else {
            out.push(keys[i]);
        }
    }
    keys.truncate(kept);
    entries.truncate(kept);
}

impl PartialIndex {
    /// An empty index bounded to `capacity` entries. Allocates nothing.
    pub fn new(capacity: usize) -> PartialIndex {
        PartialIndex { columns: Columns::Owned { keys: Vec::new(), entries: Vec::new() }, capacity }
    }

    /// An index bounded to `capacity` entries holding every key index of
    /// `run` at `version`, never expiring — what inserting them in order
    /// with [`Ttl::Infinite`] into [`PartialIndex::new`] gives. A
    /// non-empty, strictly ascending `run` that fits is not copied: the
    /// store shares it as its key column, and holds only the versions
    /// itself, until its key set first changes or an entry is given a
    /// finite expiry.
    pub fn from_shared_run(capacity: usize, run: &Arc<[u32]>, version: u64) -> PartialIndex {
        let mut index = PartialIndex::new(capacity);
        if !run.is_empty() && run.len() <= capacity && run.windows(2).all(|w| w[0] < w[1]) {
            let version = IndexEntry::new(version, u64::MAX).version;
            index.columns =
                Columns::Shared { run: Arc::clone(run), versions: vec![version; run.len()] };
        } else {
            for &idx in run.iter() {
                index.insert_version(idx, version, 0, Ttl::Infinite);
            }
        }
        index
    }

    /// Number of live entries (expired-but-unpurged entries included; call
    /// [`PartialIndex::purge_expired_into`] at round boundaries).
    pub fn len(&self) -> usize {
        self.columns.keys().len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.columns.keys().is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes the store's own columns hold (allocated, not just
    /// occupied). A key column shared with other stores is not the
    /// store's own: whoever sums a set of stores counts each run once.
    pub fn heap_bytes(&self) -> usize {
        match &self.columns {
            Columns::Owned { keys, entries } => {
                keys.capacity() * std::mem::size_of::<u32>()
                    + entries.capacity() * std::mem::size_of::<IndexEntry>()
            }
            Columns::Shared { versions, .. } => versions.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// The run this store shares as its key column, if it shares one.
    pub(crate) fn shared_run(&self) -> Option<&Arc<[u32]>> {
        match &self.columns {
            Columns::Shared { run, .. } => Some(run),
            Columns::Owned { .. } => None,
        }
    }

    /// Sizes the columns for `total` resident entries (clamped to the
    /// capacity bound) in one exact allocation — for callers that know a
    /// store's load up front, instead of doubling towards it.
    pub fn reserve(&mut self, total: usize) {
        let extra = total.min(self.capacity).saturating_sub(self.len());
        if extra > 0 {
            let (keys, entries) = self.columns.owned();
            keys.reserve_exact(extra);
            entries.reserve_exact(extra);
        }
    }

    /// Looks up key index `idx` at round `now` and returns the stored
    /// version. On a hit the entry's expiry is reset to `now + ttl` (the
    /// query-refresh rule that makes the index query-adaptive). Expired
    /// entries are treated as absent.
    pub fn get_and_refresh(&mut self, idx: u32, now: u64, ttl: Ttl) -> Option<u64> {
        let pos = self.columns.keys().binary_search(&idx).ok()?;
        let e = self.columns.get(pos);
        if !e.live_at(now) {
            return None;
        }
        let fresh = IndexEntry::new(e.version(), ttl.expires_at(now));
        if fresh != e {
            self.columns.owned().1[pos] = fresh;
        }
        Some(e.version())
    }

    /// The stored version of `idx`, without refreshing (diagnostics).
    pub fn peek(&self, idx: u32, now: u64) -> Option<u64> {
        let e = self.columns.get(self.columns.keys().binary_search(&idx).ok()?);
        e.live_at(now).then_some(e.version())
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
        let fresh = IndexEntry::new(version, ttl.expires_at(now));
        match self.columns.keys().binary_search(&idx) {
            Ok(pos) => {
                self.columns.absorb(pos, fresh);
                InsertResult { was_new: false, evicted: None }
            }
            Err(pos) => self.insert_absent(pos, idx, fresh),
        }
    }

    /// Files `fresh` under key index `idx`, which is absent and belongs at
    /// `pos` of the index column, evicting first if the store is full.
    fn insert_absent(&mut self, mut pos: usize, idx: u32, fresh: IndexEntry) -> InsertResult {
        if self.capacity == 0 {
            return InsertResult { was_new: false, evicted: None };
        }
        let capacity = self.capacity;
        let (keys, entries) = self.columns.owned();
        let mut evicted = None;
        if keys.len() >= capacity {
            if let Some(victim) = victim(keys, entries) {
                evicted = Some(keys.remove(victim));
                entries.remove(victim);
                pos -= usize::from(victim < pos);
            }
        } else if keys.len() == keys.capacity() {
            // Double, but never past the bound (a plain `push` would round
            // a 100-entry store up to 128).
            let extra = (2 * keys.len()).max(4).min(capacity) - keys.len();
            keys.reserve_exact(extra);
            entries.reserve_exact(extra);
        }
        keys.insert(pos, idx);
        entries.insert(pos, fresh);
        InsertResult { was_new: true, evicted }
    }

    /// Inserts every `(index, version)` of `run`, which must ascend
    /// strictly by index, with expiry `now + ttl` — exactly
    /// [`PartialIndex::insert`] per entry in run order, each result handed
    /// to `each` — as one in-step walk of the run and the sorted store: a
    /// key both hold costs one comparison, and an absent key is filed where
    /// the walk stands, with no search. Into an empty store every insert is
    /// an append. The rejoin pull walks a donor's [`PartialIndex::iter`].
    pub fn insert_run(
        &mut self,
        run: impl IntoIterator<Item = (u32, u64)>,
        now: u64,
        ttl: Ttl,
        mut each: impl FnMut(u32, InsertResult),
    ) {
        let expires_at = ttl.expires_at(now);
        // Every key before `at` is smaller than the run key in hand — also
        // across an insert below, whatever it evicted.
        let mut at = 0;
        for (idx, version) in run {
            let fresh = IndexEntry::new(version, expires_at);
            let keys = self.columns.keys();
            at += keys[at..].iter().take_while(|&&mine| mine < idx).count();
            let res = if keys.get(at) == Some(&idx) {
                self.columns.absorb(at, fresh);
                InsertResult { was_new: false, evicted: None }
            } else {
                self.insert_absent(at, idx, fresh)
            };
            each(idx, res);
        }
    }

    /// Removes key index `idx` outright. Returns whether it was present.
    pub fn remove(&mut self, idx: u32) -> bool {
        let Ok(pos) = self.columns.keys().binary_search(&idx) else { return false };
        let (keys, entries) = self.columns.owned();
        keys.remove(pos);
        entries.remove(pos);
        true
    }

    /// Drops all entries with `expires_at <= now`, appending their key
    /// indices to `out` in ascending order (callers reuse the buffer so
    /// the per-event sweep is allocation-free; the harness keeps a global
    /// refcount of indexed keys). Survivors compact in place, in order.
    pub fn purge_expired_into(&mut self, now: u64, out: &mut Vec<u32>) {
        // A never-expiring entry outlives every round but the last.
        if matches!(self.columns, Columns::Shared { .. }) && now != u64::MAX {
            return;
        }
        let (keys, entries) = self.columns.owned();
        purge(keys, entries, IndexEntry::live_above(now), out);
    }

    /// Iterates live entries in ascending dense-index order
    /// (diagnostics/pull-synchronization).
    pub fn iter(&self) -> impl Iterator<Item = (u32, IndexEntry)> + '_ {
        self.columns.keys().iter().enumerate().map(|(pos, &idx)| (idx, self.columns.get(pos)))
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
        assert!(idx.iter().all(|(i, e)| e == IndexEntry { version: i, expires_at: i }));
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
        assert_eq!(idx.heap_bytes(), 100 * 12, "doubling stops at the capacity bound");
        // An ascending run fills reserved columns in place, every key new,
        // nothing evicted: 12 B per timed entry (index, version, expiry).
        let run = |n: u32| (0..n).map(|i| (i * 613, 1));
        let mut exact = PartialIndex::new(100);
        exact.reserve(78);
        let mut new = 0;
        exact.insert_run(run(78), 0, Ttl::Rounds(5), |_, res| {
            assert_eq!(res.evicted, None);
            new += usize::from(res.was_new);
        });
        assert_eq!((new, exact.len(), exact.heap_bytes()), (78, 78, 78 * 12));
        exact.reserve(1_000);
        assert_eq!(exact.heap_bytes(), 100 * 12, "reserve clamps to the bound");
        // Entries that never expire cost 12 B owned, like any other, and
        // 4 B — the version alone — sharing the run.
        let mut never = PartialIndex::new(100);
        never.reserve(78);
        never.insert_run(run(78), 0, Ttl::Infinite, |_, _| {});
        assert_eq!((never.len(), never.heap_bytes()), (78, 78 * 12));
        let keys: Arc<[u32]> = run(78).map(|(i, _)| i).collect();
        let shared = PartialIndex::from_shared_run(100, &keys, 1);
        assert!(shared.iter().eq(never.iter()));
        assert_eq!(shared.heap_bytes(), 78 * 4);
    }

    /// The run the copy-on-write tests share: five keys at version 1.
    fn run() -> Arc<[u32]> {
        Arc::from([2, 5, 7, 11, 13])
    }

    /// What [`run`] is without sharing: the same entries, owned.
    fn owned_copy(capacity: usize) -> PartialIndex {
        let mut idx = PartialIndex::new(capacity);
        idx.insert_run(run().iter().map(|&i| (i, 1)), 0, Ttl::Infinite, |_, _| {});
        idx
    }

    /// One store operation, its result rendered for comparison.
    type StoreOp = fn(&mut PartialIndex) -> String;

    #[test]
    fn key_set_changes_and_expiries_materialize_only_the_writer() {
        let ops: [(&str, usize, StoreOp); 6] = [
            ("absent insert", 8, |s| format!("{:?}", s.insert(3, k(3), v(3, 1), 0, Ttl::Infinite))),
            ("eviction", 5, |s| format!("{:?}", s.insert(4, k(4), v(4, 2), 1, Ttl::Infinite))),
            ("purge", 8, |s| format!("{:?}", purged(s, u64::MAX))),
            ("finite refresh", 8, |s| format!("{:?}", s.get_and_refresh(7, 3, Ttl::Rounds(4)))),
            ("finite insert", 8, |s| {
                format!("{:?}", s.insert(1, k(1), v(1, 1), 2, Ttl::Rounds(4)))
            }),
            ("remove", 8, |s| format!("{:?}", s.remove(11))),
        ];
        for (name, capacity, op) in ops {
            let run = run();
            let mut sharers = vec![PartialIndex::from_shared_run(capacity, &run, 1); 3];
            let mut owned = owned_copy(capacity);
            assert_eq!(owned.shared_run(), None);
            assert_eq!(op(&mut sharers[0]), op(&mut owned), "{name}");
            assert!(sharers[0].iter().eq(owned.iter()), "{name}: the writer took the op");
            assert_eq!(sharers[0].shared_run(), None, "{name}: the writer owns its keys");
            for other in &sharers[1..] {
                assert!(other.shared_run().is_some_and(|r| Arc::ptr_eq(r, &run)), "{name}");
                assert!(other.iter().eq(owned_copy(capacity).iter()), "{name}: sharer changed");
            }
            assert!(!owned.iter().eq(owned_copy(capacity).iter()), "{name} changed nothing");
        }
    }

    #[test]
    fn reads_version_writes_and_pulls_keep_sharing() {
        let run = run();
        let mut sharers = vec![PartialIndex::from_shared_run(8, &run, 1); 2];
        let store = &mut sharers[0];
        let held = InsertResult { was_new: false, evicted: None };
        assert_eq!(store.insert(5, k(5), v(5, 4), 1, Ttl::Infinite), held);
        assert_eq!(store.insert(7, k(7), v(7, 3), 1, Ttl::Rounds(2)), held);
        assert_eq!(store.get_and_refresh(11, 9, Ttl::Infinite), Some(1));
        assert_eq!(store.peek(13, u64::MAX - 1), Some(1));
        assert!(purged(store, u64::MAX - 1).is_empty());
        assert!(!store.remove(6));
        store.reserve(3);
        store.insert_run([(2, 6), (13, 2)], 4, Ttl::Infinite, |_, res| assert!(!res.was_new));
        let versions: Vec<u64> = store.iter().map(|(_, e)| e.version()).collect();
        assert_eq!(versions, [6, 4, 3, 1, 2]);
        assert!(store.iter().all(|(_, e)| e.expires_at() == u64::MAX), "still never expiring");
        for sharer in &sharers {
            assert!(sharer.shared_run().is_some_and(|r| Arc::ptr_eq(r, &run)));
        }
        assert!(sharers[1].iter().all(|(_, e)| e.version() == 1), "versions are per store");
    }

    #[test]
    fn runs_that_cannot_be_shared_are_inserted_entry_by_entry() {
        for (keys, capacity) in [(vec![5, 2, 9], 8), (vec![2, 2, 9], 8), (vec![1, 2, 3, 4], 3)] {
            let run: Arc<[u32]> = keys.clone().into();
            let store = PartialIndex::from_shared_run(capacity, &run, 3);
            let mut want = PartialIndex::new(capacity);
            for i in keys {
                want.insert(i, k(i), v(i, 3), 0, Ttl::Infinite);
            }
            assert_eq!(store.shared_run(), None, "{run:?}");
            assert!(store.iter().eq(want.iter()), "{run:?}");
        }
        assert_eq!(PartialIndex::from_shared_run(4, &Arc::from([]), 1).heap_bytes(), 0);
    }

    /// Round 2³²−1, where the `u32` expiry column runs out.
    const HORIZON: u64 = u32::MAX as u64;

    #[test]
    fn finite_expiry_past_the_horizon_reads_as_never() {
        let mut idx = PartialIndex::new(4);
        idx.insert(1, k(1), v(1, 1), HORIZON - 3, Ttl::Rounds(2)); // last finite round
        idx.insert(2, k(2), v(2, 1), HORIZON - 3, Ttl::Rounds(3)); // at the horizon
        idx.insert(3, k(3), v(3, 1), HORIZON + 10, Ttl::Rounds(5)); // past it
        let expiries: Vec<u64> = idx.iter().map(|(_, e)| e.expires_at()).collect();
        assert_eq!(expiries, [HORIZON - 1, u64::MAX, u64::MAX]);
        assert_eq!(purged(&mut idx, u64::MAX - 1), [1]);
        assert_eq!(idx.peek(2, u64::MAX - 1), Some(1));
        assert_eq!(idx.get_and_refresh(3, u64::MAX - 1, Ttl::Rounds(1)), Some(1));
        // A refresh whose finite expiry lands below the horizon is finite
        // again: the column holds the latest refresh, not a sticky flag.
        assert_eq!(idx.get_and_refresh(2, 7, Ttl::Rounds(3)), Some(1));
        assert_eq!(purged(&mut idx, 10), [2]);
    }

    #[test]
    fn liveness_threshold_agrees_with_the_widened_expiry() {
        let columns = [0, 1, 7, 8, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        let clocks =
            [0, 7, 8, HORIZON - 2, HORIZON - 1, HORIZON, HORIZON + 1, u64::MAX - 1, u64::MAX];
        for expires_at in columns {
            for now in clocks {
                let e = IndexEntry { version: 1, expires_at };
                assert_eq!(e.live_at(now), e.expires_at() > now, "column {expires_at} at {now}");
            }
        }
    }

    #[test]
    fn infinite_ttl_survives_any_clock() {
        let mut idx = PartialIndex::new(2);
        idx.insert(1, k(1), v(1, 1), 0, Ttl::Infinite);
        for now in [0, HORIZON - 1, HORIZON, HORIZON + 1, u64::MAX - 1] {
            assert_eq!(idx.get_and_refresh(1, now, Ttl::Infinite), Some(1), "round {now}");
            assert!(purged(&mut idx, now).is_empty(), "round {now}");
        }
        assert_eq!(idx.iter().map(|(_, e)| e.expires_at()).collect::<Vec<_>>(), [u64::MAX]);
    }

    #[test]
    fn versions_past_u32_max_never_go_backwards() {
        let top = u64::from(u32::MAX);
        let mut idx = PartialIndex::new(2);
        let mut last = 0;
        for version in [top - 1, top, top + 1, top - 2, u64::MAX, 7] {
            idx.insert(1, k(1), v(1, version), 0, Ttl::Infinite);
            let read = idx.peek(1, 0).unwrap();
            assert_eq!(read, version.max(last).min(top), "after inserting {version}");
            last = read;
        }
        assert_eq!(last, top, "saturated at u32::MAX");
        // The rejoin pull carries the saturated version across unchanged.
        let mut receiver = PartialIndex::new(2);
        receiver.insert(1, k(1), v(1, 3), 0, Ttl::Rounds(5));
        receiver.insert_run(
            idx.iter().map(|(i, e)| (i, e.version())),
            1,
            Ttl::Rounds(5),
            |_, _| {},
        );
        assert_eq!(receiver.peek(1, 1), Some(top));
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
