//! A replica group and its unstructured subnetwork.
//!
//! Message accounting matches the model's terms: update pushes are
//! [`MessageKind::GossipPush`], anti-entropy pulls are
//! [`MessageKind::GossipPull`], and intra-group query floods (Eq. 16) are
//! [`MessageKind::ReplicaFlood`].
//!
//! Wave state lives in a lane-owned [`WavePool`]: a wave holds only a slot
//! index plus its counters, and the visited/infected bitmaps, frontier
//! double-buffers and decoder matrices are recycled across waves instead
//! of allocated per query. Visited and online tests run word-masked over
//! u64 bitmaps; accounting is split from state transitions so the message
//! totals (duplicates and offline targets included) and the RNG draw
//! order stay bit-for-bit identical to the per-query-`Vec` implementation.

use crate::codec::{pull_bytes, CoeffVec, GossipCodec, MAX_GENERATION};
use crate::scratch::{words, FloodScratch, RumorScratch, WavePool, NO_SLOT};
use pdht_sim::Metrics;
use pdht_types::{Liveness, MessageKind, PdhtError, PeerId, Result};
use pdht_unstructured::Topology;
use rand::rngs::SmallRng;
use rand::seq::IndexedRandom;
use rand::Rng;

/// Degree of the replica subnetwork graph.
const SUBNET_DEGREE: usize = 4;

/// Push fanout per infected peer per gossip round.
const PUSH_FANOUT: usize = 2;

/// Consecutive fruitless pushes before a peer stops spreading a rumor
/// (feedback/"coin death" from the rumor-spreading literature).
const DEATH_THRESHOLD: u32 = 3;

/// Bits per bitmap word (mirrors the scratch layout).
const WORD_BITS: usize = 64;

/// A replica group: the set of peers jointly responsible for a key region,
/// plus the random subnetwork they gossip over.
pub struct ReplicaGroup {
    members: Vec<PeerId>,
    /// Subnetwork over *local* indices `0..members.len()`. Holds exactly
    /// the members: the 1-member special case builds a 2-node graph for
    /// the generator's sake, then truncates the padding node away, so wave
    /// loops never see an out-of-range neighbor.
    subnet: Topology,
}

/// Resumable state of an intra-group BFS flood, advanced one frontier level
/// (= one parallel message wave) per [`ReplicaGroup::flood_wave`] call.
/// Message-granular engines park this between waves. The BFS buffers live
/// in the [`WavePool`] slot named by `slot`; completed waves return it
/// automatically, abandoned waves must call [`FloodWave::release`].
#[derive(Debug)]
pub struct FloodWave {
    /// Pool slot holding the visited bitmap and frontier buffers;
    /// `NO_SLOT` for inert (non-member/offline/origin-answered) or
    /// completed waves.
    slot: u32,
    /// Transmissions so far, duplicates included.
    messages: u64,
    /// First answering member, if any.
    found: Option<PeerId>,
}

impl FloodWave {
    fn inert(found: Option<PeerId>) -> FloodWave {
        FloodWave { slot: NO_SLOT, messages: 0, found }
    }

    /// Transmissions so far, duplicates included.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// First member whose visit closure answered, if any.
    pub fn found(&self) -> Option<PeerId> {
        self.found
    }

    /// Returns the wave's scratch slot to the pool. Completed waves do
    /// this themselves inside [`ReplicaGroup::flood_wave`]; call it only
    /// when abandoning a wave mid-flood (e.g. query timeout). Idempotent.
    pub fn release(&mut self, pool: &mut WavePool) {
        if self.slot != NO_SLOT {
            pool.release_flood(self.slot);
            self.slot = NO_SLOT;
        }
    }
}

/// Resumable state of a rumor push, advanced one gossip round (= one
/// parallel message wave) per [`ReplicaGroup::push_wave`] call.
/// Message-granular engines park this between waves. The infection
/// bitmap, spreader buffers and (for coded codecs) decoder state live in
/// the [`WavePool`] slot named by `slot`; the slot outlives the rumor's
/// death because [`ReplicaGroup::pull_missing`] still reads the decoders,
/// so the driver releases it via [`RumorWave::release`] after the pull.
#[derive(Debug)]
pub struct RumorWave {
    /// Pool slot holding the wave's buffers; `NO_SLOT` when the wave never
    /// started (non-member/offline origin) or was released.
    slot: u32,
    /// `false` once the rumor died out (all spreaders retired).
    alive: bool,
    /// Members reached so far (origin included).
    reached: usize,
    /// Receives that taught the receiver something (new version / new
    /// chunk / rank gain, depending on the codec).
    innovative: u64,
    /// Receives that carried nothing new — the wave's wasted bandwidth.
    redundant: u64,
    /// Bytes sent so far ([`GossipCodec::push_bytes`] per push,
    /// [`pull_bytes`] per anti-entropy pull).
    bytes: u64,
    /// Whether the slot carries decoder state (coded codec).
    coded: bool,
    /// Generation size the wave's packets are coded at.
    gen: u8,
}

impl RumorWave {
    fn dead() -> RumorWave {
        RumorWave {
            slot: NO_SLOT,
            alive: false,
            reached: 0,
            innovative: 0,
            redundant: 0,
            bytes: 0,
            coded: false,
            gen: 0,
        }
    }

    /// Members reached so far (origin included). Under coded codecs this
    /// counts members that *decoded* the update, not merely heard packets.
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// `true` once the rumor has died out.
    pub fn is_dead(&self) -> bool {
        !self.alive
    }

    /// Receives classified as innovative so far.
    pub fn innovative(&self) -> u64 {
        self.innovative
    }

    /// Receives classified as redundant so far (wasted bandwidth).
    pub fn redundant(&self) -> u64 {
        self.redundant
    }

    /// Bytes the wave has put on the wire so far: every push (offline
    /// targets included — the sender transmits regardless) at the codec's
    /// [`GossipCodec::push_bytes`] weight, plus every anti-entropy pull at
    /// its [`pull_bytes`] weight.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Returns the wave's scratch slot to the pool; call after the wave is
    /// fully processed ([`ReplicaGroup::pull_missing`] included — the pull
    /// round reads the slot's decoder state). Idempotent.
    pub fn release(&mut self, pool: &mut WavePool) {
        if self.slot != NO_SLOT {
            pool.release_rumor(self.slot);
            self.slot = NO_SLOT;
        }
    }
}

impl ReplicaGroup {
    /// Builds the group and its subnetwork.
    ///
    /// # Errors
    /// Fails for empty groups.
    pub fn new(members: Vec<PeerId>, rng: &mut SmallRng) -> Result<ReplicaGroup> {
        if members.is_empty() {
            return Err(PdhtError::InvalidConfig {
                param: "members",
                reason: "replica group cannot be empty".into(),
            });
        }
        let n = members.len();
        let subnet = if n >= 3 {
            Topology::random(n, SUBNET_DEGREE.min(n - 1).max(2), rng)?
        } else {
            // 1–2 members: the generator needs ≥2 nodes, so a 1-member
            // group borrows a padding node and drops it again. Draw-order
            // is untouched (truncation draws nothing) and wave loops are
            // spared the per-neighbor range check.
            let mut t = Topology::random(n.max(2), 2, rng)?;
            t.truncate(n);
            t
        };
        Ok(ReplicaGroup { members, subnet })
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for empty groups (unreachable through the constructor).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members, in construction order.
    pub fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// Local index of `peer` within the group.
    pub fn local_index(&self, peer: PeerId) -> Option<usize> {
        self.members.iter().position(|&m| m == peer)
    }

    /// Starts a resumable BFS flood from `origin` over the replica
    /// subnetwork. `visit(local_idx)` fires for every member reached
    /// (origin included, before any message is sent) and reports whether
    /// that member answers the flood; once someone answers, `visit` is not
    /// consulted again. Advance with [`ReplicaGroup::flood_wave`].
    pub fn flood_begin<F>(
        &self,
        origin: PeerId,
        mut visit: F,
        live: &Liveness,
        pool: &mut WavePool,
    ) -> FloodWave
    where
        F: FnMut(usize) -> bool,
    {
        let Some(start) = self.local_index(origin) else {
            return FloodWave::inert(None);
        };
        if !live.is_online(origin) {
            return FloodWave::inert(None);
        }
        if visit(start) {
            return FloodWave::inert(Some(self.members[start]));
        }
        let slot = pool.acquire_flood(self.members.len());
        let s = pool.flood_mut(slot);
        s.visited[start / WORD_BITS] |= 1u64 << (start % WORD_BITS);
        s.frontier.push(start);
        FloodWave { slot, messages: 0, found: None }
    }

    /// One frontier level of an in-progress flood: every frontier member
    /// transmits to all its subnet neighbors in parallel (each transmission
    /// one [`MessageKind::ReplicaFlood`], duplicates included). Returns
    /// `true` when the flood has swept its reachable component — floods do
    /// not stop early on an answer (no global stop signal; the full-sweep
    /// cost is Eq. 16's `repl·dup2`).
    ///
    /// Accounting is bulk (a frontier member's whole neighbor list is one
    /// `record_n`), then state transitions run per neighbor against a
    /// `visited ∨ ¬online` word mask rebuilt at the top of each wave
    /// (liveness may change while a wave is parked under non-zero
    /// latency). Totals and visit order match the per-message original.
    pub fn flood_wave<F>(
        &self,
        wave: &mut FloodWave,
        mut visit: F,
        live: &Liveness,
        metrics: &mut Metrics,
        pool: &mut WavePool,
    ) -> bool
    where
        F: FnMut(usize) -> bool,
    {
        if wave.slot == NO_SLOT {
            return true;
        }
        let n = self.members.len();
        let FloodScratch { visited, blocked, frontier, next } = pool.flood_mut(wave.slot);
        for (wi, b) in blocked[..words(n)].iter_mut().enumerate() {
            let base = wi * WORD_BITS;
            let mut online = 0u64;
            for (bit, &m) in self.members[base..(base + WORD_BITS).min(n)].iter().enumerate() {
                online |= u64::from(live.is_online(m)) << bit;
            }
            *b = visited[wi] | !online;
        }
        for &cur in frontier.iter() {
            let nbs = self.subnet.neighbors(PeerId::from_idx(cur));
            wave.messages += nbs.len() as u64;
            metrics.record_n(MessageKind::ReplicaFlood, nbs.len() as u64);
            for &nb in nbs {
                let nb = nb.idx();
                let (wi, bit) = (nb / WORD_BITS, 1u64 << (nb % WORD_BITS));
                if blocked[wi] & bit != 0 {
                    continue;
                }
                blocked[wi] |= bit;
                visited[wi] |= bit;
                if wave.found.is_none() && visit(nb) {
                    wave.found = Some(self.members[nb]);
                }
                next.push(nb);
            }
        }
        std::mem::swap(frontier, next);
        next.clear();
        if frontier.is_empty() {
            wave.release(pool);
            true
        } else {
            false
        }
    }

    /// Starts a resumable rumor push from `origin`: delivers to the origin
    /// immediately (no message) and returns the wave state to advance with
    /// [`ReplicaGroup::push_wave`]. Non-member or offline origins yield an
    /// already-dead wave. Under a coded `codec` the origin seeds a
    /// full-rank decoder at generation size `gen` and every other member
    /// starts empty.
    pub fn push_begin<F>(
        &self,
        origin: PeerId,
        codec: GossipCodec,
        gen: usize,
        mut deliver: F,
        live: &Liveness,
        pool: &mut WavePool,
    ) -> RumorWave
    where
        F: FnMut(usize) -> bool,
    {
        debug_assert!((1..=MAX_GENERATION).contains(&gen), "generation {gen} out of range");
        let Some(start) = self.local_index(origin) else {
            return RumorWave::dead();
        };
        if !live.is_online(origin) {
            return RumorWave::dead();
        }
        deliver(start);
        let coded = codec.is_coded();
        let slot = pool.acquire_rumor(self.members.len(), coded, gen);
        let s = pool.rumor_mut(slot);
        s.infected[start / WORD_BITS] |= 1u64 << (start % WORD_BITS);
        s.active.push((start, 0));
        if coded {
            s.decoders[start].make_full();
            s.delivered[start] = true;
        }
        RumorWave {
            slot,
            alive: true,
            reached: 1,
            innovative: 0,
            redundant: 0,
            bytes: 0,
            coded,
            gen: gen as u8,
        }
    }

    /// One gossip round of an in-progress rumor push: every active spreader
    /// pushes to `PUSH_FANOUT` random subnet neighbors in parallel (each
    /// push one [`MessageKind::GossipPush`]), with feedback death after
    /// [`DEATH_THRESHOLD`] fruitless rounds. Returns `true` when the rumor
    /// has died out. Message-granular engines park the wave between rounds.
    ///
    /// Under [`GossipCodec::Plain`] this is the legacy push, message- and
    /// RNG-draw-identical to engines predating the codec knob, with each
    /// receive additionally classified innovative (`deliver` returned
    /// fresh) or redundant. Coded codecs push packets instead: "fresh"
    /// means the packet raised the receiver's decoder rank, and `deliver`
    /// fires once per member, on decode completion.
    #[allow(clippy::too_many_arguments)]
    pub fn push_wave<F>(
        &self,
        wave: &mut RumorWave,
        codec: GossipCodec,
        deliver: F,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        pool: &mut WavePool,
    ) -> bool
    where
        F: FnMut(usize) -> bool,
    {
        if codec.is_coded() {
            self.push_wave_coded(wave, codec, deliver, live, rng, metrics, pool)
        } else {
            self.push_wave_plain(wave, deliver, live, rng, metrics, pool)
        }
    }

    /// The legacy push round, bit-for-bit: same neighbor draws, same
    /// message recording, same infection/death bookkeeping. The counter
    /// increments are the only addition. After the padding fix the subnet
    /// adjacency list *is* the draw population, so the fanout draws run
    /// straight off the topology slice.
    fn push_wave_plain<F>(
        &self,
        wave: &mut RumorWave,
        mut deliver: F,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        pool: &mut WavePool,
    ) -> bool
    where
        F: FnMut(usize) -> bool,
    {
        if !wave.alive {
            return true;
        }
        let push_cost = GossipCodec::Plain.push_bytes(usize::from(wave.gen).max(1));
        let RumorScratch { infected, active, next_active, .. } = pool.rumor_mut(wave.slot);
        next_active.clear();
        for &(spreader, fruitless) in active.iter() {
            let mut fruitless = fruitless;
            let nbs = self.subnet.neighbors(PeerId::from_idx(spreader));
            if nbs.is_empty() {
                continue;
            }
            let mut was_fresh = false;
            for _ in 0..PUSH_FANOUT {
                let &target = nbs.choose(rng).expect("non-empty");
                let target = target.idx();
                metrics.record(MessageKind::GossipPush);
                wave.bytes += push_cost;
                if !live.is_online(self.members[target]) {
                    continue;
                }
                if deliver(target) {
                    was_fresh = true;
                    wave.innovative += 1;
                } else {
                    wave.redundant += 1;
                }
                let (wi, bit) = (target / WORD_BITS, 1u64 << (target % WORD_BITS));
                if infected[wi] & bit == 0 {
                    infected[wi] |= bit;
                    wave.reached += 1;
                    next_active.push((target, 0));
                }
            }
            if was_fresh {
                fruitless = 0;
            } else {
                fruitless += 1;
            }
            if fruitless < DEATH_THRESHOLD {
                next_active.push((spreader, fruitless));
            }
        }
        std::mem::swap(active, next_active);
        wave.alive = !active.is_empty();
        !wave.alive
    }

    /// One push round under a coded codec. Each push carries one packet
    /// (a chunk for [`GossipCodec::Chunked`], a random combination of the
    /// sender's space for [`GossipCodec::Rlnc`]); a receive is innovative
    /// iff it raises the receiver's rank. Members become spreaders on
    /// their first innovative receive and `deliver` fires on decode
    /// completion. Receivers also log who they heard from — the knowledge
    /// map [`ReplicaGroup::pull_missing`] mines for pull donors.
    ///
    /// Coded generations carry completion feedback: a member that decodes
    /// announces it to its subnet neighbors, so spreaders stop aiming at
    /// it (the waste Plain cannot avoid). A spreader whose whole
    /// neighborhood has decoded retires on the spot. The eligible-neighbor
    /// snapshot is frozen per spreader (into pooled scratch — `delivered`
    /// changes mid-round, so the draw population must not).
    #[allow(clippy::too_many_arguments)]
    fn push_wave_coded<F>(
        &self,
        wave: &mut RumorWave,
        codec: GossipCodec,
        mut deliver: F,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        pool: &mut WavePool,
    ) -> bool
    where
        F: FnMut(usize) -> bool,
    {
        if !wave.alive {
            return true;
        }
        let g = usize::from(wave.gen);
        let push_cost = codec.push_bytes(g);
        let RumorScratch { infected, active, next_active, nbrs, decoders, delivered, heard_from } =
            pool.rumor_mut(wave.slot);
        next_active.clear();
        for &(spreader, fruitless) in active.iter() {
            let mut fruitless = fruitless;
            nbrs.clear();
            nbrs.extend(
                self.subnet
                    .neighbors(PeerId::from_idx(spreader))
                    .iter()
                    .map(|p| p.idx())
                    .filter(|&i| !delivered[i]),
            );
            if nbrs.is_empty() {
                continue; // whole neighborhood decoded: retire this spreader
            }
            let mut was_fresh = false;
            for _ in 0..PUSH_FANOUT {
                let &target = nbrs.as_slice().choose(rng).expect("non-empty");
                if delivered[target] {
                    // Decoded mid-round and announced it; skip, no send.
                    continue;
                }
                metrics.record(MessageKind::GossipPush);
                wave.bytes += push_cost;
                if !live.is_online(self.members[target]) {
                    continue;
                }
                let packet = match codec {
                    GossipCodec::Chunked => {
                        // Offer/request: the push header advertises the
                        // sender's chunk bitmap, so the receiver asks for
                        // a chunk it lacks; only a subset sender wastes
                        // the transmission.
                        let sender = &decoders[spreader];
                        let receiver = &decoders[target];
                        let mut wanted = [0usize; MAX_GENERATION];
                        let mut m = 0;
                        for c in 0..g {
                            if sender.holds(c) && !receiver.holds(c) {
                                wanted[m] = c;
                                m += 1;
                            }
                        }
                        if m > 0 {
                            let c = wanted[rng.random_range(0..m)];
                            Some(CoeffVec::unit(g, c))
                        } else {
                            sender.pick_chunk(rng)
                        }
                    }
                    GossipCodec::RlncSparse => Some(decoders[spreader].encode_sparse(rng)),
                    _ => Some(decoders[spreader].encode(rng)),
                };
                let heard = u32::try_from(spreader).expect("group size fits u32");
                if !heard_from[target].contains(&heard) {
                    heard_from[target].push(heard);
                }
                let innovative = packet.is_some_and(|p| decoders[target].insert(p));
                if innovative {
                    was_fresh = true;
                    wave.innovative += 1;
                    let (wi, bit) = (target / WORD_BITS, 1u64 << (target % WORD_BITS));
                    if infected[wi] & bit == 0 {
                        infected[wi] |= bit;
                        next_active.push((target, 0));
                    }
                    if decoders[target].is_complete() && !delivered[target] {
                        delivered[target] = true;
                        wave.reached += 1;
                        deliver(target);
                    }
                } else {
                    wave.redundant += 1;
                }
            }
            if was_fresh {
                fruitless = 0;
            } else {
                fruitless += 1;
            }
            if fruitless < DEATH_THRESHOLD {
                next_active.push((spreader, fruitless));
            }
        }
        std::mem::swap(active, next_active);
        wave.alive = !active.is_empty();
        !wave.alive
    }

    /// Anti-entropy pull round for a finished coded wave: every online
    /// member that heard packets but never reached full rank pulls the
    /// whole received space of one random known donor (2
    /// [`MessageKind::GossipPull`] messages — request + response). Rank
    /// gained counts as innovative receives; a fruitless pull counts one
    /// redundant. A no-op for [`GossipCodec::Plain`] waves (no decoder
    /// state, no RNG draws). Returns the number of members completed.
    ///
    /// The donor draw is count-then-pick over the knowledge map — one
    /// `random_range` over the online-donor count, exactly the draw the
    /// collected donor `Vec` used to make.
    pub fn pull_missing<F>(
        &self,
        wave: &mut RumorWave,
        mut deliver: F,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        pool: &mut WavePool,
    ) -> usize
    where
        F: FnMut(usize) -> bool,
    {
        if !wave.coded || wave.slot == NO_SLOT {
            return 0;
        }
        let RumorScratch { decoders, delivered, heard_from, .. } = pool.rumor_mut(wave.slot);
        let mut completed = 0usize;
        for me in 0..self.members.len() {
            if delivered[me] || !live.is_online(self.members[me]) {
                continue;
            }
            let online_donor = |h: &u32| live.is_online(self.members[*h as usize]);
            let count = heard_from[me].iter().filter(|h| online_donor(h)).count();
            if count == 0 {
                continue;
            }
            let pick = rng.random_range(0..count);
            let donor = *heard_from[me]
                .iter()
                .filter(|h| online_donor(h))
                .nth(pick)
                .expect("pick is in range") as usize;
            metrics.record_n(MessageKind::GossipPull, 2);
            // A member never hears from itself (the subnet has no
            // self-loops), so donor and receiver borrow disjointly.
            let (receiver, donor_space) = if donor < me {
                let (lo, hi) = decoders.split_at_mut(me);
                (&mut hi[0], &lo[donor])
            } else {
                let (lo, hi) = decoders.split_at_mut(donor);
                (&mut lo[me], &hi[0])
            };
            wave.bytes += pull_bytes(usize::from(wave.gen), donor_space.rank());
            let gained = receiver.absorb(donor_space);
            if gained == 0 {
                wave.redundant += 1;
            } else {
                wave.innovative += gained as u64;
            }
            if decoders[me].is_complete() {
                delivered[me] = true;
                wave.reached += 1;
                deliver(me);
                completed += 1;
            }
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::GENERATION_SIZE;
    use crate::store::VersionedValue;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(4242)
    }

    fn group(n: usize) -> ReplicaGroup {
        let members: Vec<PeerId> = (100..100 + n as u32).map(PeerId).collect();
        ReplicaGroup::new(members, &mut rng()).unwrap()
    }

    fn all_online(n: usize) -> Liveness {
        // Members are ids 100.., so build a large-enough population.
        Liveness::all_online(100 + n)
    }

    /// Drives one flood from `origin` to completion on a fresh pool — the
    /// flood twin of [`run_wave_at`]. Returns `(first answering peer,
    /// messages spent)`.
    fn run_flood<F: FnMut(usize) -> bool>(
        g: &ReplicaGroup,
        origin: PeerId,
        mut visit: F,
        live: &Liveness,
        m: &mut Metrics,
    ) -> (Option<PeerId>, u64) {
        let mut pool = WavePool::new();
        let mut wave = g.flood_begin(origin, &mut visit, live, &mut pool);
        while !g.flood_wave(&mut wave, &mut visit, live, m, &mut pool) {}
        (wave.found(), wave.messages())
    }

    /// Drives one Plain push wave from `origin` to its death on a fresh
    /// pool; `held` is a test-local replica store that takes `value` where
    /// it is newer. Returns the members reached.
    fn push_value(
        g: &ReplicaGroup,
        origin: PeerId,
        value: VersionedValue,
        held: &mut [Option<VersionedValue>],
        live: &Liveness,
        r: &mut SmallRng,
        m: &mut Metrics,
    ) -> usize {
        let mut pool = WavePool::new();
        let mut deliver = |local: usize| {
            let fresh = held[local].is_none_or(|v| v.version < value.version);
            if fresh {
                held[local] = Some(value);
            }
            fresh
        };
        let codec = GossipCodec::Plain;
        let mut wave = g.push_begin(origin, codec, GENERATION_SIZE, &mut deliver, live, &mut pool);
        while !g.push_wave(&mut wave, codec, &mut deliver, live, r, m, &mut pool) {}
        wave.release(&mut pool);
        wave.reached()
    }

    /// Fraction of `held` at `version`.
    fn share_at(held: &[Option<VersionedValue>], version: u64) -> f64 {
        held.iter().filter(|v| v.is_some_and(|v| v.version == version)).count() as f64
            / held.len() as f64
    }

    const V1: VersionedValue = VersionedValue { version: 1, data: 5 };

    #[test]
    fn push_reaches_every_online_member() {
        let g = group(50);
        let live = all_online(50);
        let mut held = vec![None; 50];
        let mut m = Metrics::new();
        let reached = push_value(&g, PeerId(100), V1, &mut held, &live, &mut rng(), &mut m);
        // Coin-death rumor spreading reaches almost everyone; the few
        // stragglers are the price of bounded message cost ([DaHa03]) and
        // are reconciled by pulls.
        assert!(reached >= 45, "push should infect ≥90% of 50 members, reached {reached}");
        assert!(share_at(&held, 1) >= 0.9);
        assert!(m.totals()[MessageKind::GossipPush] >= 44);
    }

    #[test]
    fn push_cost_is_linear_with_small_constant() {
        let g = group(50);
        let live = all_online(50);
        let mut m = Metrics::new();
        push_value(&g, PeerId(100), V1, &mut [None; 50], &live, &mut rng(), &mut m);
        let msgs = m.totals()[MessageKind::GossipPush];
        // Rumor spreading costs O(n log n) worst case; with feedback death
        // it stays within a small multiple of the group size.
        assert!(msgs < 50 * 8, "push used {msgs} messages for 50 members");
    }

    /// A member offline for a whole Plain wave never hears it. Under a
    /// coded codec a member that heard part of the generation and then
    /// dropped out misses the rest of the pushes, and completes from the
    /// wave's pull mop-up once it is back. (The engine's rejoin pull over
    /// its per-peer stores is `pdht_core`'s `PeerStores::pull`.)
    #[test]
    fn offline_members_miss_updates_then_pull() {
        let g = group(20);
        let mut live = all_online(20);
        // Member local 5 (peer 105) is offline during the update.
        live.set(PeerId(105), false);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut held = vec![None; 20];
        let v7 = VersionedValue { version: 7, data: 9 };
        push_value(&g, PeerId(100), v7, &mut held, &live, &mut r, &mut m);
        assert_eq!(held[5], None, "offline member must not receive the push");
        assert!(share_at(&held, 7) < 1.0);

        live.set(PeerId(105), true);
        let codec = GossipCodec::Rlnc;
        let mut pool = WavePool::new();
        let mut got = [false; 20];
        let mut deliver = |local: usize| {
            let fresh = !got[local];
            got[local] = true;
            fresh
        };
        let mut wave = g.push_begin(PeerId(100), codec, 8, &mut deliver, &live, &mut pool);
        let mut dropped = false;
        while !g.push_wave(&mut wave, codec, &mut deliver, &live, &mut r, &mut m, &mut pool) {
            let s = pool.rumor_mut(wave.slot);
            if !dropped && s.decoders[5].rank() > 0 && !s.delivered[5] {
                live.set(PeerId(105), false);
                dropped = true;
            }
        }
        assert!(dropped, "member 5 heard part of the generation mid-wave");
        assert!(!pool.rumor_mut(wave.slot).delivered[5], "an offline member decodes nothing");
        live.set(PeerId(105), true);
        let pulls = m.totals()[MessageKind::GossipPull];
        g.pull_missing(&mut wave, &mut deliver, &live, &mut r, &mut m, &mut pool);
        wave.release(&mut pool);
        assert!(got[5], "the rejoined member completes from the pull");
        assert!(m.totals()[MessageKind::GossipPull] >= pulls + 2);
    }

    #[test]
    fn newer_version_supersedes_older_where_delivered() {
        let g = group(30);
        let live = all_online(30);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut held = vec![None; 30];
        let v = |version: u64| VersionedValue { version, data: version };
        push_value(&g, PeerId(100), v(1), &mut held, &live, &mut r, &mut m);
        push_value(&g, PeerId(115), v(2), &mut held, &live, &mut r, &mut m);
        // Rumor spreading with coin death may strand a few members on the
        // old version (they catch up via pull — the "hybrid" part of
        // [DaHa03]); the push alone must still reach the vast majority.
        assert!(share_at(&held, 2) >= 0.9);
        // No member may ever hold version 2 with the wrong payload.
        for value in &held {
            let value = value.expect("every member heard one of the pushes");
            assert_eq!(value.data, value.version, "payload must match its version");
        }
    }

    #[test]
    fn flood_query_finds_an_answering_member() {
        let g = group(40);
        let live = all_online(40);
        let mut m = Metrics::new();
        let (found, msgs) = run_flood(&g, PeerId(100), |local| local == 33, &live, &mut m);
        assert_eq!(found, Some(PeerId(133)));
        assert!(msgs > 0);
        assert_eq!(m.totals()[MessageKind::ReplicaFlood], msgs);
    }

    #[test]
    fn flood_query_when_nobody_answers_costs_full_sweep() {
        let g = group(40);
        let live = all_online(40);
        let mut m = Metrics::new();
        let (found, msgs) = run_flood(&g, PeerId(100), |_| false, &live, &mut m);
        assert_eq!(found, None);
        // Full sweep ≈ members · dup2; with degree-4 subnet each member
        // transmits to ~3-4 others, so expect between n and 4n messages.
        assert!(msgs >= 39, "full sweep should touch the whole group, msgs={msgs}");
        assert!(msgs <= 4 * 40);
    }

    #[test]
    fn flood_query_origin_answers_for_free() {
        let g = group(10);
        let live = all_online(10);
        let mut m = Metrics::new();
        let (found, msgs) = run_flood(&g, PeerId(100), |l| l == 0, &live, &mut m);
        assert_eq!(found, Some(PeerId(100)));
        assert_eq!(msgs, 0);
    }

    /// The 2-member special case, pinned: with the padding node filtered
    /// out at construction there is exactly one subnet edge, so a
    /// nobody-answers flood costs one forward plus one duplicate-back
    /// transmission — and nothing for a phantom third node.
    #[test]
    fn two_member_flood_accounting_is_exact() {
        let g = group(2);
        let live = all_online(2);
        let mut m = Metrics::new();
        let (found, msgs) = run_flood(&g, PeerId(100), |_| false, &live, &mut m);
        assert_eq!(found, None);
        assert_eq!(msgs, 2, "one forward + one duplicate back, no padding traffic");
        assert_eq!(m.totals()[MessageKind::ReplicaFlood], 2);
    }

    /// 1-member groups keep a padding node only inside the topology
    /// generator; after truncation the subnet has no edges at all, so
    /// floods and pushes start and die at the origin.
    #[test]
    fn one_member_group_has_no_neighbors() {
        let g = group(1);
        let live = all_online(1);
        let mut m = Metrics::new();
        let (found, msgs) = run_flood(&g, PeerId(100), |_| false, &live, &mut m);
        assert_eq!((found, msgs), (None, 0));
        let reached = push_value(&g, PeerId(100), V1, &mut [None], &live, &mut rng(), &mut m);
        assert_eq!(reached, 1);
        assert_eq!(m.totals()[MessageKind::GossipPush], 0);
        assert_eq!(m.totals()[MessageKind::ReplicaFlood], 0);
    }

    /// Members that heard only from donors who have since gone offline
    /// have nobody to pull from: the mop-up sends nothing and completes
    /// nobody.
    #[test]
    fn pull_with_no_online_donor_is_a_noop() {
        let g = group(5);
        let live = all_online(5);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut pool = WavePool::new();
        let codec = GossipCodec::Rlnc;
        let mut wave = g.push_begin(PeerId(100), codec, 8, |_| true, &live, &mut pool);
        // One round: only the origin has spread, so every receiver's sole
        // donor is the origin, and no receiver is near full rank.
        g.push_wave(&mut wave, codec, |_| true, &live, &mut r, &mut m, &mut pool);
        assert!(wave.innovative() > 0, "the origin reached someone");
        let mut live = live;
        live.set(PeerId(100), false);
        let completed = g.pull_missing(&mut wave, |_| true, &live, &mut r, &mut m, &mut pool);
        wave.release(&mut pool);
        assert_eq!(completed, 0);
        assert_eq!(m.totals()[MessageKind::GossipPull], 0);
    }

    #[test]
    fn non_member_operations_are_noops() {
        let g = group(5);
        let live = all_online(5);
        let mut r = rng();
        let mut m = Metrics::new();
        let mut pool = WavePool::new();
        assert_eq!(push_value(&g, PeerId(1), V1, &mut [None; 5], &live, &mut r, &mut m), 0);
        let mut wave = g.push_begin(PeerId(1), GossipCodec::Rlnc, 8, |_| true, &live, &mut pool);
        assert!(wave.is_dead());
        assert_eq!(g.pull_missing(&mut wave, |_| true, &live, &mut r, &mut m, &mut pool), 0);
        let (found, msgs) = run_flood(&g, PeerId(1), |_| true, &live, &mut m);
        assert_eq!((found, msgs), (None, 0));
        assert_eq!(pool.slots(), 0, "no wave acquired scratch");
        assert_eq!(m.totals().total(), 0, "nothing was sent");
    }

    /// Parked waves release their pooled scratch when they complete (or
    /// are explicitly released), so sequential waves reuse one slot.
    #[test]
    fn sequential_waves_reuse_one_pool_slot() {
        let g = group(40);
        let live = all_online(40);
        let mut m = Metrics::new();
        let mut r = rng();
        let mut pool = WavePool::new();
        for _ in 0..10 {
            let mut wave = g.flood_begin(PeerId(100), |_| false, &live, &mut pool);
            while !g.flood_wave(&mut wave, |_| false, &live, &mut m, &mut pool) {}
            let mut rumor =
                g.push_begin(PeerId(100), GossipCodec::Rlnc, 8, |_| true, &live, &mut pool);
            while !g.push_wave(
                &mut rumor,
                GossipCodec::Rlnc,
                |_| true,
                &live,
                &mut r,
                &mut m,
                &mut pool,
            ) {}
            g.pull_missing(&mut rumor, |_| true, &live, &mut r, &mut m, &mut pool);
            rumor.release(&mut pool);
        }
        assert_eq!(pool.slots(), 2, "one flood slot + one rumor slot, recycled");
        assert_eq!(pool.acquires(), 20);
    }

    /// Drives one full wave (push rounds + pull mop-up) under `codec` at
    /// generation size `gen`, returning the finished wave and the metrics
    /// it spent.
    fn run_wave_at(
        n: usize,
        codec: GossipCodec,
        gen: usize,
        seed: u64,
    ) -> (RumorWave, Metrics, Vec<bool>) {
        let g = group(n);
        let live = all_online(n);
        let mut r = SmallRng::seed_from_u64(seed);
        let mut m = Metrics::new();
        let mut pool = WavePool::new();
        let mut got = vec![false; n];
        let mut deliver = |local: usize| {
            let fresh = !got[local];
            got[local] = true;
            fresh
        };
        let mut wave = g.push_begin(PeerId(100), codec, gen, &mut deliver, &live, &mut pool);
        while !g.push_wave(&mut wave, codec, &mut deliver, &live, &mut r, &mut m, &mut pool) {}
        g.pull_missing(&mut wave, &mut deliver, &live, &mut r, &mut m, &mut pool);
        wave.release(&mut pool);
        (wave, m, got)
    }

    fn run_wave(n: usize, codec: GossipCodec, seed: u64) -> (RumorWave, Metrics, Vec<bool>) {
        run_wave_at(n, codec, GENERATION_SIZE, seed)
    }

    #[test]
    fn coded_waves_decode_most_members() {
        for codec in [GossipCodec::Chunked, GossipCodec::Rlnc, GossipCodec::RlncSparse] {
            let (wave, _m, got) = run_wave(64, codec, 99);
            let decoded = got.iter().filter(|&&d| d).count();
            assert!(
                decoded >= 58,
                "{codec:?}: only {decoded}/64 members decoded after push + pull"
            );
            assert_eq!(wave.reached(), decoded);
        }
    }

    #[test]
    fn coded_waves_decode_most_members_at_generation_32() {
        for codec in [GossipCodec::Chunked, GossipCodec::Rlnc, GossipCodec::RlncSparse] {
            let (wave, _m, got) = run_wave_at(64, codec, 32, 7);
            let decoded = got.iter().filter(|&&d| d).count();
            assert!(
                decoded >= 56,
                "{codec:?} at G=32: only {decoded}/64 members decoded after push + pull"
            );
            assert_eq!(wave.reached(), decoded);
        }
    }

    #[test]
    fn wave_bytes_price_pushes_and_pulls() {
        // Plain: every push is one whole value, pulls never run.
        let (wave, m, _) = run_wave(50, GossipCodec::Plain, 4242);
        assert_eq!(
            wave.bytes(),
            m.totals()[MessageKind::GossipPush] * crate::codec::VALUE_BYTES,
            "plain bytes must be pushes x VALUE_BYTES"
        );
        // Coded: pushes are chunk-sized + header; pulls add donor-space
        // transfers, so bytes strictly exceed pushes x push_bytes when any
        // pull ran, and equal it otherwise.
        for codec in [GossipCodec::Chunked, GossipCodec::Rlnc, GossipCodec::RlncSparse] {
            let (wave, m, _) = run_wave(64, codec, 4242);
            let push_floor = m.totals()[MessageKind::GossipPush] * codec.push_bytes(8);
            assert!(
                wave.bytes() >= push_floor,
                "{codec:?}: bytes {} below push floor {push_floor}",
                wave.bytes()
            );
            if m.totals()[MessageKind::GossipPull] == 0 {
                assert_eq!(wave.bytes(), push_floor);
            }
        }
    }

    #[test]
    fn sparse_rlnc_at_generation_32_wastes_fewer_bytes_than_plain() {
        // The headline the generation sweep quantifies: at repl 64 and
        // G=32, a sparse-coded wave moves far fewer bytes than Plain's
        // whole-value pushes, summed over several seeds so one lucky
        // Plain run cannot flake it.
        let mut plain_bytes = 0u64;
        let mut sparse_bytes = 0u64;
        for seed in 0..6 {
            plain_bytes += run_wave_at(64, GossipCodec::Plain, 32, seed).0.bytes();
            sparse_bytes += run_wave_at(64, GossipCodec::RlncSparse, 32, seed).0.bytes();
        }
        assert!(
            sparse_bytes < plain_bytes,
            "sparse rlnc bytes ({sparse_bytes}) should undercut plain ({plain_bytes})"
        );
    }

    #[test]
    fn rlnc_wastes_less_bandwidth_than_plain_at_repl_64() {
        // The acceptance bar from ROADMAP item 2: at replication 64 the
        // coded wave converts mid-wave duplicate pushes into rank gains,
        // so its redundant-receive count drops below Plain's. Averaged
        // over a few seeds so a single lucky Plain run can't flake it.
        let mut plain_red = 0u64;
        let mut rlnc_red = 0u64;
        for seed in 0..5 {
            plain_red += run_wave(64, GossipCodec::Plain, seed).0.redundant();
            rlnc_red += run_wave(64, GossipCodec::Rlnc, seed).0.redundant();
        }
        assert!(
            rlnc_red < plain_red,
            "rlnc redundant receives ({rlnc_red}) should undercut plain ({plain_red})"
        );
    }

    #[test]
    fn plain_wave_counters_split_every_receive() {
        let (wave, m, _got) = run_wave(50, GossipCodec::Plain, 4242);
        // Every push that landed on an online member is classified exactly
        // once; with everyone online that is every push.
        assert_eq!(
            wave.innovative() + wave.redundant(),
            m.totals()[MessageKind::GossipPush],
            "plain classification must cover every delivered push"
        );
        assert_eq!(wave.innovative(), 49, "one innovative receive per non-origin member");
        assert_eq!(m.totals()[MessageKind::GossipPull], 0, "plain waves never pull");
    }

    #[test]
    fn pull_completes_an_interrupted_coded_wave() {
        let members: Vec<PeerId> = (100..164).map(PeerId).collect();
        let g = ReplicaGroup::new(members, &mut rng()).unwrap();
        let live = all_online(64);
        let mut r = SmallRng::seed_from_u64(5);
        let mut m = Metrics::new();
        let mut pool = WavePool::new();
        let mut got = [false; 64];
        let mut deliver = |local: usize| {
            let fresh = !got[local];
            got[local] = true;
            fresh
        };
        let codec = GossipCodec::Rlnc;
        let mut wave = g.push_begin(PeerId(100), codec, 8, &mut deliver, &live, &mut pool);
        // Only a handful of push rounds: plenty of members hold partial
        // rank when the pull round runs.
        for _ in 0..4 {
            if g.push_wave(&mut wave, codec, &mut deliver, &live, &mut r, &mut m, &mut pool) {
                break;
            }
        }
        let before = wave.reached();
        let completed = g.pull_missing(&mut wave, &mut deliver, &live, &mut r, &mut m, &mut pool);
        assert_eq!(wave.reached(), before + completed);
        assert!(m.totals()[MessageKind::GossipPull] >= 2 * completed as u64);
    }

    /// Local indices past `u16::MAX` survive the knowledge map: every
    /// recorded donor is a subnet neighbor of the member that heard it.
    #[test]
    fn knowledge_map_names_the_real_donor_past_65536_members() {
        let n = (1usize << 16) + 8;
        let members: Vec<PeerId> = (100..100 + n as u32).map(PeerId).collect();
        let g = ReplicaGroup::new(members, &mut rng()).unwrap();
        let live = all_online(n);
        let mut r = SmallRng::seed_from_u64(6);
        let mut m = Metrics::new();
        let mut pool = WavePool::new();
        let codec = GossipCodec::Rlnc;
        let origin = PeerId(100 + n as u32 - 1);
        let mut wave = g.push_begin(origin, codec, 8, |_| true, &live, &mut pool);
        g.push_wave(&mut wave, codec, |_| true, &live, &mut r, &mut m, &mut pool);
        let heard_from = &pool.rumor_mut(wave.slot).heard_from;
        assert!(heard_from.iter().any(|h| !h.is_empty()), "the origin pushed to someone");
        for (member, heard) in heard_from.iter().enumerate() {
            let nbs = g.subnet.neighbors(PeerId::from_idx(member));
            for &h in heard {
                assert!(nbs.contains(&PeerId(h)), "member {member} never heard from {h}");
            }
        }
        g.pull_missing(&mut wave, |_| true, &live, &mut r, &mut m, &mut pool);
    }

    #[test]
    fn tiny_groups_work() {
        let g = group(2);
        let live = all_online(2);
        let mut r = rng();
        let mut m = Metrics::new();
        let reached = push_value(&g, PeerId(100), V1, &mut [None; 2], &live, &mut r, &mut m);
        assert_eq!(reached, 2);
        assert!(ReplicaGroup::new(vec![], &mut r).is_err());
    }
}
