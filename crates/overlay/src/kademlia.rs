//! A Kademlia-style XOR-metric DHT (\[MaMa02\]).
//!
//! The third substrate behind the [`Overlay`] trait, backing the paper's
//! claim (Section 1) that the analysis applies to any "traditional DHT":
//! peers carry 64-bit node ids, routing tables are **k-buckets** (bucket
//! `j` of a peer holds up to [`BUCKET_K`] contacts whose id first differs
//! from the peer's at bit `j`), and routing forwards greedily by XOR
//! distance — every hop strictly lengthens the common prefix with the key,
//! giving the familiar `O(log n)` hop and table asymptotics with Kademlia's
//! constants.
//!
//! # XOR-prefix replica groups
//!
//! The engine needs a disjoint partition of the active peers into replica
//! groups (see the [`Overlay`] trait docs). Here the partition is by
//! **id prefix**: with a target group size `g` over `n` peers, the top
//! `d = ⌊log2(n/g)⌉` bits of the node id pick the group, so a group is the
//! set of peers XOR-closest to the keys under its prefix — exactly the set
//! Kademlia would replicate an entry across. As with the trie, construction
//! is the *balanced* outcome: peers are dealt round-robin over the `2^d`
//! prefixes (so no group is empty) and draw the remaining id bits randomly.

use crate::arena::{probe_row, ProbeRate, RowArena, StackRow};
use crate::traits::{HopOutcome, LookupState, Overlay, PlanScratch, Repair};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, MessageKind, PdhtError, PeerId, Result, KEY_BITS};
use rand::rngs::SmallRng;
use rand::Rng;

/// Maximum contacts per k-bucket (Kademlia's `k`, scaled to simulation
/// populations; real deployments use 20).
pub const BUCKET_K: usize = 8;

/// Candidate draws a bucket refresh or revive spends before giving up.
const REFRESH_TRIES: usize = 8;

/// A Kademlia-style overlay.
pub struct KademliaOverlay {
    /// Group-prefix depth in bits: `2^depth` XOR-prefix replica groups.
    depth: u32,
    /// 64-bit node ids (distinct across the overlay), indexed by `PeerId`.
    ids: Vec<u64>,
    /// K-buckets: row `j` of a peer = up to [`BUCKET_K`] contacts whose id
    /// shares exactly the first `j` bits with the peer's id. A table ends at
    /// its deepest populated bucket (random ids leave everything beyond
    /// ~log2 n empty).
    kbuckets: RowArena<BUCKET_K>,
    /// One bit per arena row of `kbuckets`: set when the bucket's id range
    /// is empty. Ids never change after build, so such a bucket was built
    /// empty and stays empty (no refresh or revive has a candidate to
    /// draw), and maintenance skips it.
    dead: Vec<u64>,
    /// `(id, peer)` sorted by id — the range oracle bucket sampling and
    /// stale-entry repair draw from.
    sorted: Vec<(u64, PeerId)>,
    /// Members of each XOR-prefix group, in deterministic (peer-id) order.
    groups: Vec<Vec<PeerId>>,
    /// Peer index → its group index.
    group_of: Vec<usize>,
}

impl KademliaOverlay {
    /// Builds the overlay over `n` peers with replica groups of roughly
    /// `group_size` peers.
    ///
    /// # Errors
    /// Fails if `n == 0` or `group_size == 0`.
    pub fn build(n: usize, group_size: usize, rng: &mut SmallRng) -> Result<KademliaOverlay> {
        if n == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "n",
                reason: "overlay needs at least one peer".into(),
            });
        }
        if group_size == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "group_size",
                reason: "replica groups need at least one member".into(),
            });
        }
        // Same depth rule as the trie: nearest power of two to n/group_size
        // in log space, capped so every prefix keeps at least one peer.
        let ratio = (n as f64 / group_size as f64).max(1.0);
        let mut depth = ratio.log2().round().max(0.0) as u32;
        while (1usize << depth) > n {
            depth -= 1;
        }
        let num_groups = 1usize << depth;

        // Node ids: the top `depth` bits are dealt round-robin over the
        // groups (balance, no empty group); the low bits are random and
        // deduplicated so ids are distinct.
        let mut ids = Vec::with_capacity(n);
        let mut used = pdht_types::fasthash::set_with_capacity::<u64>(n * 2);
        let mut groups: Vec<Vec<PeerId>> = vec![Vec::new(); num_groups];
        let mut group_of = vec![0usize; n];
        for i in 0..n {
            let g = i % num_groups;
            let prefix = if depth == 0 { 0 } else { (g as u64) << (KEY_BITS - depth) };
            let low_mask = if depth == 0 { u64::MAX } else { u64::MAX >> depth };
            let mut id = prefix | (rng.random::<u64>() & low_mask);
            while !used.insert(id) {
                id = prefix | (rng.random::<u64>() & low_mask);
            }
            ids.push(id);
            groups[g].push(PeerId::from_idx(i));
            group_of[i] = g;
        }

        let mut sorted: Vec<(u64, PeerId)> =
            ids.iter().enumerate().map(|(i, &id)| (id, PeerId::from_idx(i))).collect();
        sorted.sort_unstable_by_key(|&(id, _)| id);

        let kbuckets = RowArena::with_capacity(0, 0);
        let mut overlay =
            KademliaOverlay { depth, ids, kbuckets, dead: Vec::new(), sorted, groups, group_of };
        overlay.rebuild_routing_tables(rng);
        Ok(overlay)
    }

    /// Group-prefix depth (`2^depth` replica groups).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Node id of `peer` (for tests).
    pub fn node_id(&self, peer: PeerId) -> u64 {
        self.ids[peer.idx()]
    }

    /// Number of k-buckets `peer` keeps (its deepest non-empty bucket at
    /// build time, plus one).
    pub fn bucket_count(&self, peer: PeerId) -> usize {
        self.kbuckets.row_count(peer)
    }

    /// The contacts in k-bucket `j` of `peer`, in slot order; empty for
    /// `j >= bucket_count(peer)`.
    pub fn bucket(&self, peer: PeerId, j: usize) -> &[PeerId] {
        self.kbuckets.row(peer, j)
    }

    /// The id interval populated by bucket `j` of a node with id `x`:
    /// ids sharing the first `j` bits of `x` with bit `j` flipped. Returned
    /// as a slice of the sorted id oracle (possibly empty).
    fn bucket_range(&self, x: u64, j: u32) -> &[(u64, PeerId)] {
        let flip = 1u64 << (KEY_BITS - 1 - j);
        let keep = if j == 0 { 0 } else { x & (u64::MAX << (KEY_BITS - j)) };
        let lo = keep | ((x & flip) ^ flip);
        let hi = lo | (flip - 1);
        let start = self.sorted.partition_point(|&(id, _)| id < lo);
        let end = self.sorted.partition_point(|&(id, _)| id <= hi);
        &self.sorted[start..end]
    }

    /// Number of k-buckets the table of the node with id `x` keeps. The id
    /// sharing the longest prefix with `x` is one of its neighbours in id
    /// order; every bucket past that prefix has an empty range (and draws
    /// nothing), so the table ends there.
    fn table_rows(&self, x: u64) -> u32 {
        let at = self.sorted.partition_point(|&(id, _)| id < x);
        let bucket_of =
            |i: usize| self.sorted.get(i).map_or(0, |&(id, _)| (id ^ x).leading_zeros() + 1);
        bucket_of(at.wrapping_sub(1)).max(bucket_of(at + 1))
    }

    /// (Re)builds every peer's k-buckets by sampling up to [`BUCKET_K`]
    /// contacts from each bucket's id range — the steady-state table a
    /// Kademlia node converges to after lookups have walked its tree.
    pub fn rebuild_routing_tables(&mut self, rng: &mut SmallRng) {
        // Every table's row count follows from the id order alone and
        // draws nothing, so a counting pass sizes the arena exactly before
        // the fill: one allocation, no regrowth and no slack to return.
        let rows = self.ids.iter().map(|&x| self.table_rows(x) as usize).sum();
        let mut kbuckets = RowArena::with_capacity(self.ids.len(), rows);
        let mut dead = vec![0u64; rows.div_ceil(64)];
        let mut r = 0;
        for &x in &self.ids {
            kbuckets.begin_peer();
            for j in 0..self.table_rows(x) {
                let range = self.bucket_range(x, j);
                dead[r / 64] |= u64::from(range.is_empty()) << (r % 64);
                r += 1;
                let mut bucket = StackRow::<BUCKET_K>::new();
                if range.len() <= BUCKET_K {
                    range.iter().for_each(|&(_, peer)| bucket.push(peer));
                } else {
                    for _ in 0..BUCKET_K {
                        let &(_, pick) = &range[rng.random_range(0..range.len())];
                        if !bucket.as_slice().contains(&pick) {
                            bucket.push(pick);
                        }
                    }
                }
                kbuckets.push_row(bucket.as_slice());
            }
        }
        self.kbuckets = kbuckets;
        self.dead = dead;
    }

    /// Whether arena row `r` is a bucket with an empty id range.
    fn is_dead(&self, r: usize) -> bool {
        self.dead[r / 64] >> (r % 64) & 1 == 1
    }

    /// Draws up to [`REFRESH_TRIES`] candidates from the id range of bucket
    /// `j` of the node with id `x` and returns the first one `accept`s —
    /// Kademlia's bucket refresh, message-free by the paper's piggybacking
    /// assumption.
    fn sample_contact(
        &self,
        x: u64,
        j: usize,
        rng: &mut SmallRng,
        accept: impl Fn(PeerId) -> bool,
    ) -> Option<PeerId> {
        let range = self.bucket_range(x, j as u32);
        if range.is_empty() {
            return None;
        }
        (0..REFRESH_TRIES)
            .map(|_| range[rng.random_range(0..range.len())].1)
            .find(|&cand| accept(cand))
    }
}

impl Overlay for KademliaOverlay {
    fn num_active(&self) -> usize {
        self.ids.len()
    }

    fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn group_members(&self, group: usize) -> &[PeerId] {
        &self.groups[group]
    }

    fn group_of_key(&self, key: Key) -> usize {
        if self.depth == 0 {
            0
        } else {
            (key.0 >> (KEY_BITS - self.depth)) as usize
        }
    }

    fn group_of_peer(&self, peer: PeerId) -> usize {
        self.group_of[peer.idx()]
    }

    fn begin_lookup(&self, from: PeerId, key: Key) -> LookupState {
        // Every forward strictly lengthens the common prefix with the key,
        // and arrival needs only the first `depth` bits to agree, so the
        // trie's budget shape applies: one bucket's worth of attempts per
        // resolved bit, plus slack.
        let budget = ((self.depth as usize + 1) * BUCKET_K + 8) as u32;
        LookupState { current: from, hops: 0, budget, target_group: self.group_of_key(key) }
    }

    fn next_hop(
        &self,
        key: Key,
        state: &mut LookupState,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) -> Result<HopOutcome> {
        let _ = rng; // greedy XOR forwarding is deterministic given the tables

        let current = state.current;
        if self.group_of[current.idx()] == state.target_group {
            return Ok(HopOutcome::Arrived(current));
        }
        // The peer's id first differs from the key at bit `b` (< depth,
        // since the peer is not responsible); bucket `b` holds exactly the
        // contacts that agree with the key through bit `b`, so any of them
        // is strict progress.
        let b = Key(self.ids[current.idx()]).common_prefix_len(key) as usize;
        // Greedy: contact attempts in XOR-distance order to the key. Every
        // attempt is a real message, wasted if the target is offline. Ids
        // are distinct, so distances are too: selecting the nearest untried
        // contact per attempt gives the sorted order without sorting the
        // tail a first online contact never reaches.
        let mut order = StackRow::<BUCKET_K>::copy_of(self.kbuckets.row(current, b));
        let order = order.as_mut_slice();
        for k in 0..order.len() {
            let dist = |i: usize| self.ids[order[i].idx()] ^ key.0;
            let nearest = (k..order.len()).min_by_key(|&i| dist(i)).expect("k < len");
            order.swap(k, nearest);
            let cand = order[k];
            state.hops += 1;
            // Saturating: once exhausted, each further bucket gets exactly
            // one attempt before dead-ending (mirrors the trie).
            state.budget = state.budget.saturating_sub(1);
            metrics.record(MessageKind::RouteHop);
            if live.is_online(cand) {
                state.current = cand;
                return Ok(HopOutcome::Forwarded(cand));
            }
            if state.budget == 0 {
                break;
            }
        }
        Err(PdhtError::LookupFailed {
            key: key.0,
            reason: format!(
                "no online contact in bucket {b} of {} after {} hops",
                state.current, state.hops
            ),
        })
    }

    #[allow(clippy::too_many_arguments)] // mirrors maintenance_step plus plan outputs
    fn maintenance_plan(
        &self,
        peer: PeerId,
        env: f64,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        scratch: &mut PlanScratch,
        out: &mut Vec<Repair>,
    ) {
        // Probe each k-bucket entry with probability env; entries found
        // stale are refreshed from the bucket's id range (free, per the
        // paper's piggybacking assumption). Rejoined peers re-enter tables
        // through the same refresh sampling.
        if !live.is_online(peer) {
            return;
        }
        let rate = ProbeRate::new(env);
        let first = self.kbuckets.first_row(peer);
        for (j, row) in self.kbuckets.rows(peer).enumerate() {
            // A dead bucket is empty, so its sweep draws nothing, and its
            // revive finds an empty range and draws nothing either.
            if self.is_dead(first + j) {
                continue;
            }
            probe_row(row, rate, live, rng, metrics, &mut scratch.stale);
            if scratch.stale.is_empty() && !row.is_empty() {
                continue;
            }
            let x = self.ids[peer.idx()];
            // Refresh acceptance (`!contains(cand)`) and the drained check
            // below read the bucket *mid-mutation*, so the bucket's repairs
            // are replayed on a stack copy to keep the candidate draws
            // identical to applying each one on the spot.
            let mut bucket = StackRow::<BUCKET_K>::copy_of(row);
            for &stale in &scratch.stale {
                if let Some(pos) = bucket.as_slice().iter().position(|&c| c == stale) {
                    let replacement = self.sample_contact(x, j, rng, |cand| {
                        live.is_online(cand) && !bucket.as_slice().contains(&cand)
                    });
                    bucket.repair_at(pos, replacement);
                    out.push(Repair::KadRefresh { peer, bucket: j as u32, stale, replacement });
                }
            }
            // A bucket drained to empty (every contact evicted while its
            // whole id range was offline) has no entries left to probe, so
            // the per-entry refresh above can never revive it; resample it
            // directly once the range has an online peer again, or routing
            // from this peer would dead-end on that prefix forever. Never
            // triggers without churn: build leaves every non-empty-range
            // bucket populated.
            if bucket.as_slice().is_empty() {
                if let Some(fresh) = self.sample_contact(x, j, rng, |cand| live.is_online(cand)) {
                    out.push(Repair::KadRevive { peer, bucket: j as u32, fresh });
                }
            }
        }
    }

    fn maintenance_apply(&mut self, repairs: &[Repair], _live: &Liveness) {
        for &r in repairs {
            match r {
                // The plan only records a refresh when the stale entry was
                // still present in its simulated bucket, and the real
                // bucket replays the same mutation sequence, so the
                // position found here is the planned one.
                Repair::KadRefresh { peer, bucket, stale, replacement } => {
                    self.kbuckets.repair(peer, bucket as usize, stale, replacement);
                }
                Repair::KadRevive { peer, bucket, fresh } => {
                    self.kbuckets.push(peer, bucket as usize, fresh);
                }
                other => unreachable!("non-Kademlia repair {other:?} handed to KademliaOverlay"),
            }
        }
    }

    fn routing_entries(&self, peer: PeerId) -> usize {
        self.kbuckets.entries(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn build(n: usize, g: usize) -> KademliaOverlay {
        KademliaOverlay::build(n, g, &mut rng()).expect("buildable")
    }

    #[test]
    fn depth_matches_population_and_group_size() {
        assert_eq!(build(1600, 50).depth(), 5); // 32 groups, exact
        assert_eq!(build(400, 50).depth(), 3); // 8 groups, exact
        assert_eq!(build(50, 50).depth(), 0); // single group
        assert_eq!(build(20_000, 50).depth(), 9); // log2(400) ≈ 8.64 → 9
    }

    #[test]
    fn prefix_groups_partition_the_population() {
        let o = build(640, 5);
        assert_eq!(o.group_count(), 128);
        let mut seen = std::collections::HashSet::new();
        for g in 0..o.group_count() {
            let members = o.group_members(g);
            assert!(!members.is_empty(), "round-robin deal leaves no group empty");
            for &m in members {
                assert_eq!(o.group_of_peer(m), g);
                // Each member's id carries the group's prefix.
                assert_eq!((o.node_id(m) >> (64 - o.depth())) as usize, g);
                assert!(seen.insert(m), "groups must be disjoint");
            }
        }
        assert_eq!(seen.len(), 640, "groups must cover every peer");
    }

    #[test]
    fn key_group_is_the_xor_closest_prefix() {
        let o = build(512, 8);
        let mut r = rng();
        for _ in 0..200 {
            let key = Key(r.random::<u64>());
            let g = o.group_of_key(key);
            assert_eq!(g, (key.0 >> (64 - o.depth())) as usize);
            for &m in o.group_members(g) {
                assert!(o.is_responsible(m, key));
                // Members share the key's top `depth` bits, so their XOR
                // distance to the key clears those bits.
                assert!(Key(o.node_id(m)).common_prefix_len(key) >= o.depth());
            }
        }
    }

    #[test]
    fn lookup_reaches_a_responsible_peer() {
        let o = build(1000, 8);
        let live = Liveness::all_online(1000);
        let mut r = rng();
        let mut m = Metrics::new();
        for _ in 0..300 {
            let from = PeerId::from_idx(r.random_range(0..1000));
            let key = Key(r.random::<u64>());
            let out = o.lookup(from, key, &live, &mut r, &mut m).expect("lookup");
            assert!(o.is_responsible(out.peer, key));
            assert!(out.hops <= o.depth());
        }
    }

    #[test]
    fn greedy_forwarding_beats_one_bit_per_hop() {
        // A forward is guaranteed one more common-prefix bit, but greedy
        // selection over up to BUCKET_K candidates gains ~log2(BUCKET_K)
        // extra bits per hop in expectation — so the average must land
        // strictly below the trie's ½·depth while staying logarithmic.
        let o = build(4096, 8); // depth 9
        let live = Liveness::all_online(4096);
        let mut r = rng();
        let mut m = Metrics::new();
        let trials = 3000;
        let mut total = 0u64;
        for _ in 0..trials {
            let from = PeerId::from_idx(r.random_range(0..4096));
            let key = Key(r.random::<u64>());
            total += u64::from(o.lookup(from, key, &live, &mut r, &mut m).unwrap().hops);
        }
        let avg = total as f64 / f64::from(trials);
        let half_depth = f64::from(o.depth()) / 2.0;
        assert!(avg > 0.5, "routing must take real hops, avg {avg}");
        assert!(avg < half_depth, "greedy XOR hops {avg} must beat one-bit-per-hop {half_depth}");
    }

    #[test]
    fn survives_churn_with_wasted_hops() {
        let o = build(1000, 8);
        let mut live = Liveness::all_online(1000);
        // Decorrelated from the build seed (see the Chord test of the same
        // name for why).
        let mut r = SmallRng::seed_from_u64(0xbad5eed);
        for i in 0..1000 {
            if r.random::<f64>() < 0.25 {
                live.set(PeerId(i), false);
            }
        }
        let mut m = Metrics::new();
        let mut ok = 0;
        let trials = 300;
        for _ in 0..trials {
            let from = loop {
                let c = PeerId::from_idx(r.random_range(0..1000));
                if live.is_online(c) {
                    break c;
                }
            };
            let key = Key(r.random::<u64>());
            if let Ok(out) = o.lookup(from, key, &live, &mut r, &mut m) {
                assert!(live.is_online(out.peer));
                assert!(o.is_responsible(out.peer, key));
                ok += 1;
            }
        }
        assert!(ok > trials * 7 / 10, "most lookups should survive, ok={ok}");
    }

    #[test]
    fn maintenance_refreshes_stale_buckets_and_readmits_rejoiners() {
        let mut o = build(600, 8);
        let mut live = Liveness::all_online(600);
        let mut r = rng();
        for i in 0..600 {
            if r.random::<f64>() < 0.3 {
                live.set(PeerId(i), false);
            }
        }
        let mut m = Metrics::new();
        for _ in 0..80 {
            o.maintenance_round(0.2, &live, &mut r, &mut m);
        }
        let stale_frac = |o: &KademliaOverlay, live: &Liveness| -> f64 {
            let mut stale = 0usize;
            let mut total = 0usize;
            for i in 0..600 {
                if !live.is_online(PeerId::from_idx(i)) {
                    continue;
                }
                for &c in o.kbuckets.rows(PeerId::from_idx(i)).flatten() {
                    total += 1;
                    if !live.is_online(c) {
                        stale += 1;
                    }
                }
            }
            stale as f64 / total as f64
        };
        assert!(stale_frac(&o, &live) < 0.02, "stale contacts should be refreshed away");
        assert!(m.totals()[MessageKind::Probe] > 0);

        // Churn join handling: bring everyone back online; refresh sampling
        // must re-admit the rejoined peers into k-buckets.
        let rejoined: Vec<PeerId> =
            (0..600).map(PeerId::from_idx).filter(|&p| !live.is_online(p)).collect();
        assert!(!rejoined.is_empty());
        for &p in &rejoined {
            live.set(p, true);
        }
        for _ in 0..40 {
            o.maintenance_round(0.2, &live, &mut r, &mut m);
        }
        let referenced = (0..600)
            .any(|i| o.kbuckets.rows(PeerId::from_idx(i)).flatten().any(|c| rejoined.contains(c)));
        assert!(referenced, "rejoined peers must re-enter routing tables");
    }

    #[test]
    fn drained_bucket_revives_after_its_range_comes_back_online() {
        // Take a whole replica group offline and probe aggressively: the
        // buckets covering that prefix drain (refresh finds no online
        // replacement, so stale entries are evicted). When the group
        // rejoins, maintenance must repopulate those buckets — an emptied
        // bucket staying empty would dead-end every lookup toward that
        // prefix forever.
        let mut o = build(64, 4); // depth 4, 16 groups of 4
        let mut live = Liveness::all_online(64);
        let mut r = rng();
        let dark_group = 9usize;
        let dark: Vec<PeerId> = o.group_members(dark_group).to_vec();
        for &p in &dark {
            live.set(p, false);
        }
        let mut m = Metrics::new();
        for _ in 0..60 {
            o.maintenance_round(1.0, &live, &mut r, &mut m);
        }
        // Some online peer's deepest bucket covered exactly the dark group
        // and must have drained (its id range has no online peer to
        // resample).
        let drained = (0..64)
            .map(PeerId::from_idx)
            .any(|p| live.is_online(p) && o.kbuckets.rows(p).any(<[PeerId]>::is_empty));
        assert!(drained, "a bucket whose whole range went dark must drain");

        for &p in &dark {
            live.set(p, true);
        }
        for _ in 0..60 {
            o.maintenance_round(1.0, &live, &mut r, &mut m);
        }
        for i in 0..64 {
            for (j, bucket) in o.kbuckets.rows(PeerId::from_idx(i)).enumerate() {
                if bucket.is_empty() {
                    let range = o.bucket_range(o.ids[i], j as u32);
                    assert!(
                        range.is_empty(),
                        "bucket {j} of peer {i} must revive once its range is back online"
                    );
                }
            }
        }
        // And routing into the recovered prefix works again from anywhere.
        let key = Key(((dark_group as u64) << 60) | 0x0123_4567_89ab_cdef);
        assert_eq!(o.group_of_key(key), dark_group);
        for from in (0..64).map(PeerId::from_idx) {
            let out = o.lookup(from, key, &live, &mut r, &mut m).expect("recovered lookup");
            assert!(o.is_responsible(out.peer, key));
        }
    }

    /// `(j, dead bit)` for every bucket of `p`.
    fn rows(o: &KademliaOverlay, p: PeerId) -> impl Iterator<Item = (usize, bool)> + '_ {
        let first = o.kbuckets.first_row(p);
        (0..o.bucket_count(p)).map(move |j| (j, o.is_dead(first + j)))
    }

    #[test]
    fn dead_bit_is_the_empty_range_for_good() {
        for (n, g, seed) in [(2, 1, 1), (64, 4, 2), (600, 8, 3), (2000, 8, 4), (5000, 50, 5)] {
            let mut o = KademliaOverlay::build(n, g, &mut SmallRng::seed_from_u64(seed)).unwrap();
            let peers = || (0..n).map(PeerId::from_idx);
            let mut dead = 0;
            for p in peers() {
                for (j, is_dead) in rows(&o, p) {
                    let empty_range = o.bucket_range(o.ids[p.idx()], j as u32).is_empty();
                    assert_eq!(is_dead, empty_range, "n {n}: bit of bucket {j} of {p}");
                    assert_eq!(is_dead, o.bucket(p, j).is_empty(), "n {n}: bucket {j} of {p}");
                    dead += usize::from(is_dead);
                }
            }
            assert!(n < 64 || dead > 0, "n {n}: the shape must have dead buckets");

            let mut live = Liveness::all_online(n);
            let mut r = SmallRng::seed_from_u64(seed ^ 0xdead);
            let (mut m, mut scratch, mut repairs) =
                (Metrics::new(), PlanScratch::new(), Vec::new());
            let mut planned = 0;
            for _ in 0..40 {
                for p in peers() {
                    let on = live.is_online(p);
                    if r.random::<f64>() < if on { 0.2 } else { 0.4 } {
                        live.set(p, !on);
                    }
                }
                repairs.clear();
                for p in peers() {
                    o.maintenance_plan(p, 0.5, &live, &mut r, &mut m, &mut scratch, &mut repairs);
                }
                for rep in &repairs {
                    let (Repair::KadRefresh { peer, bucket, .. }
                    | Repair::KadRevive { peer, bucket, .. }) = *rep
                    else {
                        unreachable!("non-Kademlia repair {rep:?}")
                    };
                    let r = o.kbuckets.first_row(peer) + bucket as usize;
                    assert!(!o.is_dead(r), "repair {rep:?} names a dead bucket");
                }
                o.maintenance_apply(&repairs, &live);
                planned += repairs.len();
                for p in peers() {
                    for (j, is_dead) in rows(&o, p) {
                        assert!(
                            !is_dead || o.bucket(p, j).is_empty(),
                            "dead bucket {j} of {p} filled"
                        );
                    }
                }
            }
            assert!(n < 64 || planned > 0, "n {n}: churn must drive repairs");
        }
    }

    #[test]
    fn routing_table_size_is_logarithmic() {
        let o = build(4096, 8);
        let avg = (0..4096).map(|p| o.routing_entries(PeerId::from_idx(p))).sum::<usize>() as f64
            / 4096.0;
        // ~BUCKET_K · log2(n/K) full buckets plus a thinning tail; the
        // point is Θ(log n), nowhere near Θ(n).
        assert!((40.0..=130.0).contains(&avg), "avg entries {avg} out of logarithmic band");
    }

    #[test]
    fn degenerate_builds_rejected() {
        assert!(KademliaOverlay::build(0, 4, &mut rng()).is_err());
        assert!(KademliaOverlay::build(10, 0, &mut rng()).is_err());
    }

    #[test]
    fn single_group_overlay_routes_trivially() {
        let o = build(10, 50); // depth 0: everyone responsible for everything
        let live = Liveness::all_online(10);
        let mut r = rng();
        let mut m = Metrics::new();
        let out = o.lookup(PeerId(3), Key(0xdead), &live, &mut r, &mut m).unwrap();
        assert_eq!(out.peer, PeerId(3));
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn next_hop_stepping_matches_one_shot_lookup() {
        let o = build(1000, 8);
        let live = Liveness::all_online(1000);
        let mut r = rng();
        for _ in 0..100 {
            let from = PeerId::from_idx(r.random_range(0..1000));
            let key = Key(r.random::<u64>());
            let mut m1 = Metrics::new();
            let one_shot = o.lookup(from, key, &live, &mut r, &mut m1).expect("lookup");

            let mut m2 = Metrics::new();
            let mut st = o.begin_lookup(from, key);
            let arrived = loop {
                match o.next_hop(key, &mut st, &live, &mut r, &mut m2).expect("step") {
                    HopOutcome::Arrived(p) => break p,
                    HopOutcome::Forwarded(p) => assert_eq!(p, st.current),
                }
            };
            // Greedy XOR forwarding is deterministic given the tables, so
            // stepping arrives at the same peer with the same cost.
            assert_eq!(arrived, one_shot.peer);
            assert_eq!(st.hops, one_shot.hops);
            assert_eq!(m1.totals()[MessageKind::RouteHop], m2.totals()[MessageKind::RouteHop]);
        }
    }

    #[test]
    fn next_hop_makes_monotone_xor_progress() {
        // Every forward strictly lengthens the common prefix with the key —
        // equivalently, strictly shrinks the XOR distance past the next
        // divergent bit.
        let o = build(4096, 8);
        let live = Liveness::all_online(4096);
        let mut r = rng();
        let mut m = Metrics::new();
        for _ in 0..50 {
            let key = Key(r.random::<u64>());
            let from = PeerId::from_idx(r.random_range(0..4096));
            let mut st = o.begin_lookup(from, key);
            let mut last_cpl = Key(o.node_id(from)).common_prefix_len(key);
            let mut last_dist = o.node_id(from) ^ key.0;
            loop {
                match o.next_hop(key, &mut st, &live, &mut r, &mut m).unwrap() {
                    HopOutcome::Arrived(p) => {
                        assert!(o.is_responsible(p, key));
                        break;
                    }
                    HopOutcome::Forwarded(p) => {
                        let cpl = Key(o.node_id(p)).common_prefix_len(key);
                        let dist = o.node_id(p) ^ key.0;
                        assert!(cpl > last_cpl, "prefix must grow every forward");
                        assert!(dist < last_dist, "XOR distance must shrink every forward");
                        last_cpl = cpl;
                        last_dist = dist;
                    }
                }
            }
        }
    }

    #[test]
    fn next_hop_dead_end_reports_failure_without_panicking() {
        let o = build(256, 16);
        let mut live = Liveness::all_offline(256);
        live.set(PeerId(0), true);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut key_rng = rng();
        let key = std::iter::repeat_with(|| Key(key_rng.random::<u64>()))
            .find(|&k| !o.is_responsible(PeerId(0), k))
            .unwrap();
        let mut st = o.begin_lookup(PeerId(0), key);
        let out = o.next_hop(key, &mut st, &live, &mut r, &mut m);
        assert!(matches!(out, Err(PdhtError::LookupFailed { .. })));
    }

    #[test]
    fn two_peer_overlay_works() {
        let o = build(2, 1);
        let live = Liveness::all_online(2);
        let mut r = rng();
        let mut m = Metrics::new();
        for k in [Key(0), Key(u64::MAX), Key(42)] {
            let out = o.lookup(PeerId(0), k, &live, &mut r, &mut m).unwrap();
            assert!(o.is_responsible(out.peer, k));
        }
    }
}
