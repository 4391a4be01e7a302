//! Background work: churn, per-peer routing-table maintenance ticks,
//! per-peer TTL eviction sweeps, and message-granular update propagation.
//!
//! Since the background-event refactor only churn remains a whole-phase
//! handler (its session transitions are one global process — internally
//! event-driven too: [`pdht_overlay::ChurnModel`] buckets pending toggles
//! by round, so the phase costs O(transitions), not O(population)).
//! Maintenance and TTL eviction fire as *per-peer* events — [`NetEvent::PeerMaintenance`]
//! every round and [`NetEvent::TtlSweep`] every `purge_stride` rounds, each
//! rescheduling itself — and update propagation runs as an in-flight state
//! machine over [`UpdateCtx`]s, one [`NetEvent::GossipPush`] per route hop
//! or gossip wave, exactly like the query pipeline in [`super::routing`].
//! Under [`crate::LatencyConfig::Zero`] with the default
//! [`crate::config::BackgroundSchedule`], every step runs inline in the
//! order the old phase sweeps used, so the accounting stays bit-for-bit
//! identical; jittered schedules and non-zero latency spread the work
//! across each round.
//!
//! # Execution lanes
//!
//! The update state machine and the per-peer background handlers are
//! written against [`QueryExec`], like the query pipeline: their events
//! live on the owning lane's queue and dispatch inside the parallel passes
//! (see [`super::shard`]). A maintenance tick only *plans* its repairs
//! ([`pdht_overlay::Overlay::maintenance_plan`]) — the shared routing
//! tables are repaired serially at the pass barrier — and an update
//! propagation whose next key belongs to another shard's replica group
//! hands its context over through the barrier outbox.

use super::engine::{NetEvent, PdhtNetwork, UpdateId, PHASE_SPACING_US};
use super::routing::{route_hop, HopStream, QueryExec};
use super::shard::{LaneMsg, LaneState};
use crate::config::Strategy;
use crate::ttl::Ttl;
use pdht_gossip::RumorWave;
use pdht_overlay::{HopOutcome, LookupState};
use pdht_types::{MessageKind, PeerId, Round, SimTime};

/// The pipeline position of an in-flight update propagation: routing the
/// current key of the replaced article towards its responsible peer, or
/// gossiping the new version through that key's replica group.
enum UpdateStage {
    /// Structured routing towards the key's responsible peer (hops count as
    /// [`MessageKind::GossipPush`] — the `cSIndx` part of Eq. 9's `cUpd`).
    Route {
        /// Resumable lookup state (one forward per step).
        lookup: LookupState,
    },
    /// Rumor-spreading the new version through the replica group (the
    /// `repl·dup2` part).
    Gossip {
        /// Resumable rumor state (one gossip round per step).
        wave: RumorWave,
    },
}

/// An in-flight update propagation (IndexAll, Eq. 9): everything the state
/// machine needs between [`NetEvent::GossipPush`] events. One context
/// covers every key of the replaced article, processed in order.
pub(crate) struct UpdateCtx {
    id: UpdateId,
    /// The replaced article.
    article: u32,
    /// The version being propagated.
    new_version: u64,
    /// The DHT peer all key routes start from (picked once per article, as
    /// in the phase-sweep pipeline).
    entry: PeerId,
    /// Position within the article's key list.
    pos: usize,
    stage: UpdateStage,
}

/// What one update-propagation step decided.
enum UpdateFate {
    /// The propagation finished; its context can be dropped.
    Done,
    /// A wave goes in flight (or advances inline under zero delay).
    Next,
    /// The next key's replica group lives on another shard: hand the
    /// context over through the barrier outbox.
    Handoff(u32),
}

impl PdhtNetwork {
    /// Churn phase: session transitions; rejoining active peers pull missed
    /// updates (IndexAll — the proactive-consistency strategy; the
    /// selection algorithm relies on replica flooding instead,
    /// Section 5.1). The transition buffer is engine-owned and reused, so
    /// steady-state churn allocates nothing.
    pub(crate) fn phase_churn(&mut self, round: u64) {
        let mut transitions = std::mem::take(&mut self.churn_buf);
        transitions.clear();
        // The per-shard churn calendars drain serially in shard order, one
        // RNG stream per shard — deterministic regardless of thread count
        // (churn is cheap; parallelizing it would buy little and the
        // liveness vector is shared).
        self.world.churn.step_second_sharded_into(&mut self.shards.churn_rngs, &mut transitions);
        if self.world.cfg.strategy == Strategy::IndexAll {
            for &(peer, now_online) in &transitions {
                if now_online && peer.idx() < self.world.nap {
                    self.pull_on_rejoin(peer, round);
                }
            }
        }
        self.churn_buf = transitions;
    }

    /// Update phase: content replacement, plus (IndexAll) kicking off one
    /// update-propagation state machine per replaced article, dealt —
    /// through the barrier outbox, stamped at the phase instant — to the
    /// lane owning the first key's replica group, which starts and drives
    /// it with its own streams.
    pub(crate) fn phase_content_updates(&mut self, round: u64) {
        let world = &mut self.world;
        let replacements = world.updates.round_updates(&mut self.rng_updates);
        for rep in &replacements {
            world.content.replace_item(rep.article as usize, &mut self.rng_updates);
        }
        let (Strategy::IndexAll, Some(o)) = (world.cfg.strategy, world.overlay.as_deref()) else {
            return;
        };
        let st = &mut self.shards;
        let t_updates = Round(round).start() + SimTime::from_micros(3 * PHASE_SPACING_US);
        for rep in replacements {
            // PIN(one-lane): several lanes get every entry peer picked up
            // front on the engine's overlay stream (deterministic
            // regardless of lane progress; pinned by the `loaded_mix`
            // fingerprint). One lane draws it on the stream that also
            // drives the propagation, so draw and drive must interleave
            // per article (pinned by
            // `zero_latency_reproduces_seed_accounting_with_gossip_waves`
            // and the `gossip_coded` fingerprint): left to the lane.
            let entry = if st.lanes.len() == 1 {
                None
            } else {
                let picked = o.entry_peer(world.live(), &mut self.rng_overlay);
                let Some(entry) = picked else { continue };
                Some(entry)
            };
            let ki = world.keys_by_article[rep.article as usize][0];
            let dest = world.group_shard[o.group_of_key(world.keys[ki as usize])];
            let start =
                LaneMsg::StartUpdate { article: rep.article, new_version: rep.new_version, entry };
            st.deal.push(u32::from(dest), t_updates, start);
        }
    }

    /// IndexAll rejoin path: pull the donor's store (2 messages). Donor and
    /// rejoiner are members of one replica group, hence of one store shard.
    fn pull_on_rejoin(&mut self, peer: PeerId, round: u64) {
        let Some(o) = &self.world.overlay else { return };
        let group = o.group_of_peer(peer);
        let live = self.world.live();
        let donor =
            o.group_members(group).iter().copied().find(|&m| m != peer && live.is_online(m));
        let Some(donor) = donor else { return };
        self.metrics.record_n(MessageKind::GossipPull, 2);
        self.peers.pull(donor, peer, round, Ttl::Infinite);
    }
}

impl QueryExec<'_> {
    /// Advances the update propagation whose wave just landed. Arrivals for
    /// propagations no longer in flight are ignored.
    pub(crate) fn on_gossip_push(&mut self, id: UpdateId, round: u64) {
        if let Some(ctx) = self.lane.updates_inflight.take(id) {
            self.drive_update(ctx, round);
        }
    }

    /// One peer's maintenance tick: *plan* its repairs — probes and
    /// replacement draws on the lane's overlay stream against the shared
    /// (immutable during the pass) routing tables, at the calibrated rate —
    /// queue them for the serial barrier, and reschedule the tick one
    /// round later (the event is perpetual, so each peer keeps its fixed
    /// sub-round offset).
    pub(crate) fn on_peer_maintenance(&mut self, peer: PeerId) {
        if let Some(o) = &self.world.overlay {
            let LaneState { rng_overlay, metrics, plan, repairs, .. } = &mut *self.lane;
            let rate = self.world.probe_rate;
            o.maintenance_plan(peer, rate, self.world.live(), rng_overlay, metrics, plan, repairs);
        }
        self.lane.events.schedule_in(SimTime::from_secs(1), NetEvent::PeerMaintenance { peer });
    }

    /// One peer's TTL eviction sweep (Partial only — IndexAll entries never
    /// expire): purge its expired entries, then reschedule `purge_stride`
    /// rounds later, preserving the staggered cohorts. The event lives on
    /// the shard owning the peer's store, so the purge is lane-local.
    pub(crate) fn on_ttl_sweep(&mut self, peer: PeerId, round: u64) {
        self.stores.purge_expired(peer, round);
        let stride = SimTime::from_secs(self.world.cfg.purge_stride);
        self.lane.events.schedule_in(stride, NetEvent::TtlSweep { peer });
    }

    /// Adopts a handed-off propagation context into this lane's slab and
    /// drives it.
    pub(crate) fn deliver_update(&mut self, mut ctx: UpdateCtx, round: u64) {
        ctx.id = self.lane.updates_inflight.reserve();
        self.drive_update(ctx, round);
    }

    /// Issues one update propagation (IndexAll, Eq. 9): picks the entry
    /// peer unless the deal already did, starts routing the article's first
    /// key, and drives the state machine until it completes or a wave goes
    /// in flight.
    pub(crate) fn start_update(
        &mut self,
        article: u32,
        new_version: u64,
        entry: Option<PeerId>,
        round: u64,
    ) {
        let Some(o) = &self.world.overlay else { return };
        let entry = entry.or_else(|| o.entry_peer(self.world.live(), &mut self.lane.rng_overlay));
        let Some(entry) = entry else { return };
        let ki = self.world.keys_by_article[article as usize][0];
        let key = self.world.keys[ki as usize];
        let id = self.lane.updates_inflight.reserve();
        let ctx = UpdateCtx {
            id,
            article,
            new_version,
            entry,
            pos: 0,
            stage: UpdateStage::Route { lookup: o.begin_lookup(entry, key) },
        };
        self.drive_update(ctx, round);
    }

    /// Steps `ctx` until it resolves, hands off to another shard, or a wave
    /// with a non-zero delay goes in flight (zero delays advance inline —
    /// under [`crate::LatencyConfig::Zero`] a whole propagation completes
    /// at its issue instant, consuming the RNG streams in exactly the order
    /// the phase-sweep pipeline did).
    fn drive_update(&mut self, mut ctx: UpdateCtx, round: u64) {
        loop {
            match self.step_update(&mut ctx, round) {
                UpdateFate::Done => {
                    self.lane.updates_inflight.free(ctx.id);
                    return;
                }
                UpdateFate::Next => {
                    let delay = self.world.latency.sample(&mut self.lane.rng_latency);
                    if delay == SimTime::ZERO {
                        continue;
                    }
                    let event = NetEvent::GossipPush { update: ctx.id };
                    self.lane.events.schedule_in(delay, event);
                    let id = ctx.id;
                    self.lane.updates_inflight.park(id, ctx);
                    return;
                }
                UpdateFate::Handoff(dest) => {
                    // The hop to the next key's shard replaces this
                    // transition's latency draw: the destination lane
                    // adopts the context at the next pass barrier.
                    self.lane.updates_inflight.free(ctx.id);
                    ctx.id = 0;
                    let now = self.lane.events.now();
                    self.lane.outbox.push(dest, now, LaneMsg::Update(ctx));
                    return;
                }
            }
        }
    }

    /// One step of the propagation state machine, at the current virtual
    /// instant inside round `round`.
    fn step_update(&mut self, ctx: &mut UpdateCtx, round: u64) -> UpdateFate {
        let world = self.world;
        let ki = world.keys_by_article[ctx.article as usize][ctx.pos];
        let key = world.keys[ki as usize];
        let new_version = ctx.new_version;
        let o = world.overlay.as_deref().expect("update implies overlay");
        let group = &world.groups[o.group_of_key(key)];
        let codec = world.cfg.gossip_codec;
        let live = world.live();
        let stores = &mut self.stores;
        // Writes the new version at one group member. "Fresh" means this
        // delivery changed the member's state — the rumor-death condition.
        // (Reporting "member is current" instead would keep spreaders alive
        // forever once everyone converged.)
        let mut deliver = |member_local: usize| {
            let member = group.members()[member_local];
            let prior = stores.peek(member, ki, round);
            stores.insert(member, ki, new_version, round, Ttl::Infinite);
            prior.is_none_or(|pv| pv < new_version)
        };
        match ctx.stage {
            UpdateStage::Route { mut lookup } => {
                // Route hops are update traffic (the cSIndx part of cUpd).
                let (stream, kind) = (HopStream::Overlay, MessageKind::GossipPush);
                match route_hop(world, self.lane, key, &mut lookup, stream, kind) {
                    Ok(HopOutcome::Forwarded(_)) => {
                        ctx.stage = UpdateStage::Route { lookup };
                        UpdateFate::Next
                    }
                    Ok(HopOutcome::Arrived(at)) => {
                        let gen = world.cfg.gossip_generation;
                        let waves = &mut self.lane.waves;
                        let wave = group.push_begin(at, codec, gen, &mut deliver, live, waves);
                        ctx.stage = UpdateStage::Gossip { wave };
                        UpdateFate::Next
                    }
                    // Route dead-ended: this key stays unpropagated this
                    // time (same as the phase-sweep pipeline); move on.
                    Err(_) => self.next_update_key(ctx),
                }
            }

            UpdateStage::Gossip { ref mut wave } => {
                let LaneState { rng_overlay: rng, metrics, waves, counters, .. } = &mut *self.lane;
                let before = (wave.innovative(), wave.redundant(), wave.bytes());
                let done = group.push_wave(wave, codec, &mut deliver, live, rng, metrics, waves);
                if done {
                    // Anti-entropy mop-up, inline at the wave's death
                    // instant (no extra events, so zero-latency dispatch
                    // counts are untouched): members of a coded wave that
                    // heard packets but never reached full rank pull a
                    // known donor's space. A no-op for Plain waves.
                    group.pull_missing(wave, &mut deliver, live, rng, metrics, waves);
                    // The pull was the last reader of the slot's decoder
                    // state; recycle it. (Waves never cross lanes in the
                    // Gossip stage — handoffs happen stage=Route — so the
                    // slot is always lane-local here.)
                    wave.release(waves);
                }
                // Fold this step's innovative/redundant classifications
                // and byte spend into the lane counters (incremental:
                // handoffs and parked waves never double-count).
                counters.gossip_innovative += wave.innovative() - before.0;
                counters.gossip_redundant += wave.redundant() - before.1;
                counters.gossip_bytes += wave.bytes() - before.2;
                if !done {
                    return UpdateFate::Next;
                }
                // One sample per completed wave: its total wasted receives
                // (the sim_hist_report wasted-bandwidth row) and its total
                // wire bytes.
                metrics.observe("gossip_wave_redundant", wave.redundant());
                metrics.observe("gossip_wave_bytes", wave.bytes());
                self.next_update_key(ctx)
            }
        }
    }

    /// Moves `ctx` to its article's next key (routing from the same entry
    /// peer), finishes the propagation when every key is done, or hands the
    /// context to the shard owning the next key's replica group.
    fn next_update_key(&mut self, ctx: &mut UpdateCtx) -> UpdateFate {
        ctx.pos += 1;
        let keys = &self.world.keys_by_article[ctx.article as usize];
        if ctx.pos >= keys.len() {
            return UpdateFate::Done;
        }
        let key = self.world.keys[keys[ctx.pos] as usize];
        let o = self.world.overlay.as_deref().expect("update implies overlay");
        ctx.stage = UpdateStage::Route { lookup: o.begin_lookup(ctx.entry, key) };
        let dest = self.world.group_shard[o.group_of_key(key)];
        if dest != self.stores.shard_id {
            return UpdateFate::Handoff(u32::from(dest));
        }
        UpdateFate::Next
    }
}
