//! Per-peer index state.
//!
//! Every active peer owns a [`PartialIndex`] (its slice of the distributed
//! index); the engine additionally needs the *global* count of distinct
//! indexed keys — the paper's `indexSize` metric (Fig. 3). Keeping the
//! replica-copy reference counts next to the stores, behind one facade,
//! means no call site can update a store and forget the accounting (the
//! monolithic engine threaded two `&mut` maps through every closure to
//! achieve the same).
//!
//! The accounting is a **flattened arena** ([`Copies`]): one `u32`
//! refcount per dense key index in a plain `Vec`, plus a distinct-key
//! counter. Insert, purge and eviction bookkeeping are integer bumps — no
//! hashing, no allocation — which keeps the per-event TTL sweeps and
//! query-path store updates allocation-free at 100k-peer scale.
//!
//! The stores themselves are sorted columns in one of two states (see
//! [`crate::index`]): owned, 12 bytes per resident entry, in a Partial
//! store, whose entries expire; shared, 4 bytes per entry, in an IndexAll
//! store, which holds only its never-expiring versions — the IndexAll
//! preload ([`PeerStores::preload`]) gives every member of a replica group
//! its group's ascending key run as a shared key column. An empty store
//! owns no heap at all, so [`PeerStores::heap_bytes`] (each shared run
//! counted once) tracks what the peers hold rather than a per-peer table
//! size. Because every store
//! is sorted, an IndexAll rejoin ([`PeerStores::pull`]) is one in-step
//! walk ([`PartialIndex::insert_run`]) of the donor's store and the
//! receiver's — no search, no snapshot, no allocation; between members of
//! one group it only takes newer versions, so the receiver keeps sharing
//! its run.
//!
//! # Sharding
//!
//! The stores are grouped into one [`StoreShard`] region per execution
//! lane: peers of the same replica group always land in the same shard
//! (the engine assigns shard = the group's shard), each shard keeps its own
//! refcounts and distinct-key counter, and a `peer → (shard, local index)`
//! slot table translates ids. Because a key is only ever stored at its
//! responsible group — true at every insert site: the query pipeline, TTL
//! sweeps, and IndexAll preload/gossip all write at group members — each
//! key's copies live entirely inside one shard, so per-shard `distinct`
//! counts are disjoint and the global gauge is their sum. One shard is
//! the identity mapping.
//!
//! A lane reaches its region through a [`ShardStores`] view, whose
//! methods make the store call and its accounting in one step: that view
//! is the one per-peer store API, and the unit tests reach it through
//! [`PeerStores::view`].

use crate::index::{InsertResult, PartialIndex};
use crate::ttl::Ttl;
use pdht_types::PeerId;
use std::sync::Arc;

/// Replica-copy refcounts of one shard: how many of its stores hold each
/// dense key index, and how many indices are held at all.
struct Copies {
    /// Resident copies per dense key index.
    counts: Vec<u32>,
    /// Key indices with at least one resident copy.
    distinct: usize,
}

impl Copies {
    /// Accounts for the outcome of one store insert: a copy more if the
    /// key was new to the store, a copy less for any entry it evicted.
    fn record(&mut self, idx: u32, res: InsertResult) {
        if res.was_new {
            let c = &mut self.counts[idx as usize];
            if *c == 0 {
                self.distinct += 1;
            }
            *c += 1;
        }
        if let Some(victim) = res.evicted {
            self.release(victim);
        }
    }

    fn release(&mut self, idx: u32) {
        let c = &mut self.counts[idx as usize];
        debug_assert!(*c > 0, "refcount underflow for key index {idx}");
        *c -= 1;
        if *c == 0 {
            self.distinct -= 1;
        }
    }
}

/// One shard's worth of peer stores plus its disjoint slice of the
/// distinct-key accounting, in shard-local peer order. Lanes reach it
/// through a [`ShardStores`] view.
pub(crate) struct StoreShard {
    /// The member peers' [`PartialIndex`]es, in shard-local order.
    stores: Vec<PartialIndex>,
    copies: Copies,
    /// Reusable scratch for per-peer purge sweeps.
    purge_buf: Vec<u32>,
}

impl StoreShard {
    fn new(members: usize, capacity: usize, num_keys: usize) -> StoreShard {
        StoreShard {
            stores: (0..members).map(|_| PartialIndex::new(capacity)).collect(),
            copies: Copies { counts: vec![0; num_keys], distinct: 0 },
            purge_buf: Vec::new(),
        }
    }

    /// Distinct keys resident in this shard.
    pub(crate) fn distinct_keys(&self) -> usize {
        self.copies.distinct
    }
}

/// The per-peer TTL stores of all active peers, plus distinct-key
/// accounting across them, grouped into [`StoreShard`] regions.
pub(crate) struct PeerStores {
    /// `peer → (shard, shard-local index)`.
    slot: Vec<(u16, u32)>,
    shards: Vec<StoreShard>,
}

impl PeerStores {
    /// Empty stores of `capacity` entries each over a key universe of
    /// `num_keys` dense indices, split into `num_shards` regions: peer `p`
    /// lives in shard `assign[p]`, shard-local indices dense in ascending
    /// peer order. Shards with no members still get an (empty) region, so
    /// the engine's lane list always zips cleanly.
    ///
    /// # Panics
    /// Panics if `assign` names a shard `>= num_shards`.
    pub(crate) fn new(
        assign: &[u16],
        num_shards: usize,
        capacity: usize,
        num_keys: usize,
    ) -> PeerStores {
        let mut members = vec![0u32; num_shards];
        let slot: Vec<(u16, u32)> = assign
            .iter()
            .map(|&s| {
                let local = members[s as usize];
                members[s as usize] += 1;
                (s, local)
            })
            .collect();
        PeerStores {
            slot,
            shards: members
                .iter()
                .map(|&m| StoreShard::new(m as usize, capacity, num_keys))
                .collect(),
        }
    }

    /// The slot table and the mutable shard regions, for callers that hand
    /// each region to a different worker (the lane passes).
    pub(crate) fn split_mut(&mut self) -> (&[(u16, u32)], &mut [StoreShard]) {
        (&self.slot, &mut self.shards)
    }

    fn local(&self, peer: PeerId) -> (usize, usize) {
        let (s, l) = self.slot[peer.idx()];
        (s as usize, l as usize)
    }

    /// The [`ShardStores`] view of the shard holding `peer`'s store.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn view(&mut self, peer: PeerId) -> ShardStores<'_> {
        let shard_id = self.slot[peer.idx()].0;
        ShardStores { slot: &self.slot, shard_id, shard: &mut self.shards[usize::from(shard_id)] }
    }

    /// Distinct keys resident in at least one store (sum over shards —
    /// disjoint because every key's copies live inside one shard).
    pub(crate) fn distinct_keys(&self) -> usize {
        self.shards.iter().map(StoreShard::distinct_keys).sum()
    }

    /// [`ShardStores::insert`] at `peer`. The simulation paths go through
    /// a lane's view and [`PeerStores::preload`]; this form is for the unit
    /// tests and the key-major reference preload.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn insert(
        &mut self,
        peer: PeerId,
        idx: u32,
        version: u64,
        now: u64,
        ttl: Ttl,
    ) -> InsertResult {
        self.view(peer).insert(peer, idx, version, now, ttl)
    }

    /// Copies `donor`'s whole store into `receiver`'s (expiry `now + ttl`)
    /// — the rejoin pull. Both stores are sorted, so this is one in-step
    /// walk applying [`PeerStores::insert`]'s rules entry by entry, with
    /// nothing allocated.
    ///
    /// # Panics
    /// Panics unless both peers live in the same shard (members of one
    /// replica group always do) and are distinct.
    pub(crate) fn pull(&mut self, donor: PeerId, receiver: PeerId, now: u64, ttl: Ttl) {
        let ((ds, dl), (rs, rl)) = (self.local(donor), self.local(receiver));
        assert_eq!(ds, rs, "rejoin donor {donor:?} and {receiver:?} live in different shards");
        assert_ne!(dl, rl, "a peer cannot pull from itself");
        let StoreShard { stores, copies, .. } = &mut self.shards[rs];
        let (from, into) = if dl < rl {
            let (head, tail) = stores.split_at_mut(rl);
            (&head[dl], &mut tail[0])
        } else {
            let (head, tail) = stores.split_at_mut(dl);
            (&tail[0], &mut head[rl])
        };
        let run = from.iter().map(|(idx, e)| (idx, e.version()));
        into.insert_run(run, now, ttl, |idx, res| copies.record(idx, res));
    }

    /// Fills `peer`'s store, which must be empty, with every key index of
    /// `run` at `version`, never expiring — the IndexAll preload of one
    /// replica-group member. A strictly ascending run within the store's
    /// capacity (the build sizes every store for its group's run) is
    /// shared, not copied: the store holds only the versions (see
    /// [`PartialIndex::from_shared_run`]). Copies are accounted as
    /// [`PeerStores::insert`] would entry by entry.
    pub(crate) fn preload(&mut self, peer: PeerId, run: &Arc<[u32]>, version: u64) {
        let (s, l) = self.local(peer);
        let StoreShard { stores, copies, .. } = &mut self.shards[s];
        let store = &mut stores[l];
        *store = PartialIndex::from_shared_run(store.capacity(), run, version);
        for (idx, _) in store.iter() {
            copies.record(idx, InsertResult { was_new: true, evicted: None });
        }
    }

    /// Sizes `peer`'s store for `total` resident entries in one exact
    /// allocation (see [`PartialIndex::reserve`]), as the key-major
    /// reference preload does before it inserts.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn reserve(&mut self, peer: PeerId, total: usize) {
        let (s, l) = self.local(peer);
        self.shards[s].stores[l].reserve(total);
    }

    /// `peer`'s store (diagnostics and tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn store(&self, peer: PeerId) -> &PartialIndex {
        let (s, l) = self.local(peer);
        &self.shards[s].stores[l]
    }

    /// Heap bytes held by all stores' columns, each shared key run counted
    /// once however many stores share it.
    pub(crate) fn heap_bytes(&self) -> usize {
        let stores = || self.shards.iter().flat_map(|s| &s.stores);
        let mut runs: Vec<&Arc<[u32]>> = stores().filter_map(PartialIndex::shared_run).collect();
        runs.sort_unstable_by_key(|run| Arc::as_ptr(run).cast::<u32>());
        runs.dedup_by(|a, b| Arc::ptr_eq(a, b));
        let shared: usize = runs.iter().map(|run| run.len() * std::mem::size_of::<u32>()).sum();
        stores().map(PartialIndex::heap_bytes).sum::<usize>() + shared
    }

    /// Checks the store layout. With `sharing` (IndexAll: the replica
    /// groups), the listed members of each group that hold entries all
    /// share one key run — the same allocation — and so hold only
    /// never-expiring versions (a shared store cannot hold an expiry);
    /// unlisted stores are not checked. Without (Partial), every store owns
    /// its keys. `Err` names the first store out of place.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn check_layout(&self, sharing: Option<&[Vec<PeerId>]>) -> Result<(), String> {
        let Some(groups) = sharing else {
            let mut peers = (0..self.slot.len()).map(PeerId::from_idx);
            return match peers.find(|&p| self.store(p).shared_run().is_some()) {
                Some(peer) => Err(format!("{peer:?} shares its keys")),
                None => Ok(()),
            };
        };
        for (group, members) in groups.iter().enumerate() {
            let mut run: Option<&Arc<[u32]>> = None;
            for &peer in members {
                let store = self.store(peer);
                if store.is_empty() {
                    continue;
                }
                let Some(mine) = store.shared_run() else {
                    return Err(format!("group {group}: {peer:?} owns its {} keys", store.len()));
                };
                if run.is_some_and(|run| !Arc::ptr_eq(run, mine)) {
                    return Err(format!("group {group}: {peer:?} shares another run"));
                }
                run = Some(mine);
            }
        }
        Ok(())
    }

    /// Recounts every shard's replica-copy accounting from its stores: each
    /// key index's count is the number of the shard's stores holding it,
    /// `distinct` is the number of non-zero counts, and the stores' sizes
    /// sum to the counts' sum. `Err` names the first broken shard.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn check_copies(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            let counts = &shard.copies.counts;
            let mut held = vec![0u32; counts.len()];
            for (idx, _) in shard.stores.iter().flat_map(PartialIndex::iter) {
                held[idx as usize] += 1;
            }
            if let Some(idx) = (0..counts.len()).find(|&i| held[i] != counts[i]) {
                return Err(format!(
                    "shard {s}: key index {idx} has {} copies, accounted {}",
                    held[idx], counts[idx]
                ));
            }
            let distinct = counts.iter().filter(|&&c| c > 0).count();
            if distinct != shard.copies.distinct {
                return Err(format!(
                    "shard {s}: {distinct} keys held, accounted {}",
                    shard.copies.distinct
                ));
            }
            let resident: usize = shard.stores.iter().map(PartialIndex::len).sum();
            let copies: usize = counts.iter().map(|&c| c as usize).sum();
            if resident != copies {
                return Err(format!("shard {s}: {resident} entries resident, {copies} counted"));
            }
        }
        Ok(())
    }
}

/// One shard's view of the peer stores: the shared slot table plus
/// exclusive access to that shard's region. This is what a query lane
/// carries — peer-id-keyed like the facade, but confined (checked in debug
/// builds) to peers the shard owns.
pub(crate) struct ShardStores<'a> {
    pub(crate) slot: &'a [(u16, u32)],
    pub(crate) shard_id: u16,
    pub(crate) shard: &'a mut StoreShard,
}

impl ShardStores<'_> {
    fn local(&self, peer: PeerId) -> usize {
        let (s, l) = self.slot[peer.idx()];
        debug_assert_eq!(
            s, self.shard_id,
            "peer {peer:?} belongs to store shard {s}, not {}",
            self.shard_id
        );
        l as usize
    }

    /// Inserts `version` of key index `idx` at `peer`, maintaining the
    /// distinct-key accounting for both the insert and any eviction it
    /// caused.
    pub(crate) fn insert(
        &mut self,
        peer: PeerId,
        idx: u32,
        version: u64,
        now: u64,
        ttl: Ttl,
    ) -> InsertResult {
        let l = self.local(peer);
        let res = self.shard.stores[l].insert_version(idx, version, now, ttl);
        self.shard.copies.record(idx, res);
        res
    }

    /// Read-through at `peer`, refreshing the entry's TTL on hit
    /// (the selection algorithm's refresh-on-query rule).
    pub(crate) fn get_and_refresh(
        &mut self,
        peer: PeerId,
        idx: u32,
        now: u64,
        ttl: Ttl,
    ) -> Option<u64> {
        let l = self.local(peer);
        self.shard.stores[l].get_and_refresh(idx, now, ttl)
    }

    /// Non-refreshing visibility check at `peer`.
    pub(crate) fn peek(&self, peer: PeerId, idx: u32, now: u64) -> Option<u64> {
        self.shard.stores[self.local(peer)].peek(idx, now)
    }

    /// Evicts every expired entry at `peer`, updating the accounting (TTL
    /// sweeps dispatch here: the sweep event lives on the shard owning the
    /// peer's store).
    pub(crate) fn purge_expired(&mut self, peer: PeerId, now: u64) {
        let l = self.local(peer);
        let StoreShard { stores, copies, purge_buf } = &mut *self.shard;
        purge_buf.clear();
        stores[l].purge_expired_into(now, purge_buf);
        for &idx in purge_buf.iter() {
            copies.release(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `nap` stores in a single shard (the one-lane layout).
    fn one_shard(nap: usize, capacity: usize, num_keys: usize) -> PeerStores {
        PeerStores::new(&vec![0; nap], 1, capacity, num_keys)
    }

    fn purge(p: &mut PeerStores, peer: PeerId, now: u64) {
        p.view(peer).purge_expired(peer, now);
    }

    #[test]
    fn distinct_keys_track_copies_not_replicas() {
        let mut p = one_shard(3, 8, 64);
        p.insert(PeerId(0), 42, 1, 0, Ttl::Rounds(10));
        p.insert(PeerId(1), 42, 1, 0, Ttl::Rounds(10));
        assert_eq!(p.distinct_keys(), 1, "two replicas, one key");
        p.insert(PeerId(2), 43, 1, 0, Ttl::Rounds(10));
        assert_eq!(p.distinct_keys(), 2);
    }

    #[test]
    fn purge_releases_accounting() {
        let mut p = one_shard(2, 8, 16);
        p.insert(PeerId(0), 1, 1, 0, Ttl::Rounds(5));
        p.insert(PeerId(1), 1, 1, 0, Ttl::Rounds(5));
        purge(&mut p, PeerId(0), 100);
        assert_eq!(p.distinct_keys(), 1, "one replica still holds the key");
        purge(&mut p, PeerId(1), 100);
        assert_eq!(p.distinct_keys(), 0);
    }

    #[test]
    fn eviction_by_capacity_is_accounted() {
        let mut p = one_shard(1, 1, 4);
        p.insert(PeerId(0), 1, 1, 0, Ttl::Rounds(10));
        let res = p.insert(PeerId(0), 2, 1, 0, Ttl::Rounds(10));
        assert!(res.evicted.is_some(), "capacity 1 must evict");
        assert_eq!(p.distinct_keys(), 1);
        assert!(p.store(PeerId(0)).peek(2, 0).is_some());
        assert!(p.store(PeerId(0)).peek(1, 0).is_none());
    }

    #[test]
    fn pull_equals_inserting_the_donor_entry_by_entry() {
        // Peers 0 and 1 pull from the same donor (peer 2): one through the
        // in-step walk, one through per-entry inserts. Overlapping keys
        // with older/newer versions and longer/shorter expiries, keys only
        // the donor holds, keys only the receiver holds — and capacity 5,
        // so the last new key evicts.
        let build = || {
            let mut p = one_shard(3, 5, 16);
            for r in [PeerId(0), PeerId(1)] {
                p.insert(r, 2, 5, 0, Ttl::Rounds(9));
                p.insert(r, 4, 1, 0, Ttl::Rounds(2));
                p.insert(r, 9, 1, 0, Ttl::Rounds(1));
            }
            for (i, version) in [(1, 1), (2, 3), (4, 7), (6, 1), (11, 2)] {
                p.insert(PeerId(2), i, version, 0, Ttl::Infinite);
            }
            p
        };
        let mut walked = build();
        walked.pull(PeerId(2), PeerId(0), 3, Ttl::Rounds(4));
        let mut looped = build();
        let donor: Vec<_> = looped.shards[0].stores[2].iter().collect();
        for (i, e) in donor {
            looped.insert(PeerId(1), i, e.version(), 3, Ttl::Rounds(4));
        }
        let (got, want) = (&walked.shards[0], &looped.shards[0]);
        assert_eq!(
            got.stores[0].iter().collect::<Vec<_>>(),
            want.stores[1].iter().collect::<Vec<_>>()
        );
        assert_eq!(got.stores[0].len(), 5, "the pull filled the store and evicted");
        assert_eq!(got.stores[0].peek(2, 3), Some(5), "older donor version ignored");
        assert_eq!(got.stores[0].peek(4, 3), Some(7), "newer donor version taken");
        assert_eq!(walked.distinct_keys(), looped.distinct_keys());
        // Receiver 0 of `walked` and receiver 1 of `looped` hold the same
        // keys, so the per-key refcounts agree too.
        assert_eq!(got.copies.counts, want.copies.counts);
    }

    #[test]
    fn check_copies_recounts_the_stores() {
        let mut p = PeerStores::new(&[0, 1, 0, 1], 2, 2, 8);
        p.insert(PeerId(0), 1, 1, 0, Ttl::Rounds(5));
        p.insert(PeerId(2), 1, 1, 0, Ttl::Rounds(9));
        p.insert(PeerId(2), 3, 1, 0, Ttl::Rounds(9));
        p.insert(PeerId(2), 4, 1, 0, Ttl::Rounds(9)); // evicts at capacity 2
        p.insert(PeerId(1), 5, 1, 0, Ttl::Rounds(9));
        p.pull(PeerId(2), PeerId(0), 1, Ttl::Rounds(9));
        purge(&mut p, PeerId(0), 6);
        assert_eq!(p.check_copies(), Ok(()));
        p.shards[1].copies.counts[6] += 1;
        assert_eq!(p.check_copies(), Err("shard 1: key index 6 has 0 copies, accounted 1".into()));
        p.shards[1].copies.counts[6] -= 1;
        p.shards[0].copies.distinct += 1;
        assert_eq!(p.check_copies(), Err("shard 0: 2 keys held, accounted 3".into()));
    }

    #[test]
    #[should_panic(expected = "different shards")]
    fn pull_across_shards_is_rejected() {
        let mut p = PeerStores::new(&[0, 1], 2, 8, 4);
        p.pull(PeerId(0), PeerId(1), 0, Ttl::Infinite);
    }

    #[test]
    fn repeated_purges_reuse_the_scratch_buffer() {
        let mut p = one_shard(1, 8, 8);
        for round in 0..4u64 {
            p.insert(PeerId(0), 1, 1, round, Ttl::Rounds(1));
            purge(&mut p, PeerId(0), round + 1);
            assert_eq!(p.distinct_keys(), 0);
        }
    }

    #[test]
    fn sharded_layout_routes_peers_to_their_region() {
        // Peers 0,2 in shard 0; peers 1,3 in shard 1.
        let assign = [0u16, 1, 0, 1];
        let mut p = PeerStores::new(&assign, 2, 8, 16);
        p.insert(PeerId(0), 1, 1, 0, Ttl::Rounds(5));
        p.insert(PeerId(2), 1, 1, 0, Ttl::Rounds(5));
        p.insert(PeerId(1), 2, 1, 0, Ttl::Rounds(5));
        p.insert(PeerId(3), 3, 1, 0, Ttl::Rounds(5));
        assert_eq!(p.distinct_keys(), 3, "global distinct is the sum over shards");
        assert!(p.store(PeerId(2)).peek(1, 0).is_some());
        assert!(p.store(PeerId(2)).peek(2, 0).is_none());
        let (slot, shards) = p.split_mut();
        assert_eq!(slot, &[(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].distinct_keys(), 1, "key 1 lives wholly in shard 0");
        assert_eq!(shards[1].distinct_keys(), 2);
    }

    #[test]
    fn empty_shards_still_materialize() {
        let assign = [2u16, 2];
        let mut p = PeerStores::new(&assign, 4, 8, 8);
        let (_, shards) = p.split_mut();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[2].stores.len(), 2);
        assert!(shards[0].stores.is_empty());
    }

    #[test]
    fn shard_view_matches_facade() {
        let assign = [0u16, 1, 0, 1];
        let mut p = PeerStores::new(&assign, 2, 8, 16);
        p.insert(PeerId(1), 5, 1, 0, Ttl::Rounds(9));
        let (slot, shards) = p.split_mut();
        let mut view = ShardStores { slot, shard_id: 1, shard: &mut shards[1] };
        assert!(view.peek(PeerId(1), 5, 0).is_some());
        view.insert(PeerId(3), 6, 1, 0, Ttl::Rounds(9));
        assert!(view.get_and_refresh(PeerId(3), 6, 1, Ttl::Rounds(9)).is_some());
        assert_eq!(p.distinct_keys(), 2);
        assert!(p.store(PeerId(3)).peek(6, 1).is_some());
    }
}
