//! Lane-parallel round execution — the engine's only execution structure.
//!
//! The peer population is partitioned into `S =` [`crate::PdhtConfig::shards`]
//! contiguous origin ranges and the replica groups into `S` group ranges;
//! each shard owns a region of the peer stores and a [`LaneState`] — its own
//! RNG streams, admission filter, in-flight slabs, and virtual-time event
//! queue — and the *whole round* runs lane by lane on a persistent
//! [`pdht_sim::ShardPool`]. `S = 1` is the same structure with one lane:
//!
//! * Every background event (maintenance tick, TTL sweep, gossip wave) and
//!   every in-flight message lives on the owning lane's queue; the engine
//!   itself only walks the six phase markers.
//! * After each phase's serial work, [`PdhtNetwork::lane_pass`] drains the
//!   lanes in parallel up to the next phase instant: maintenance ticks
//!   fire after the `OverlayMaintenance` marker, TTL sweeps after
//!   `PurgeExpired`, dealt update propagations after `ContentUpdates`, and
//!   the merged query batches after `Queries` — so each phase's serial
//!   work runs before that phase's per-peer events.
//! * Cross-lane traffic (queries addressed to another shard's replica
//!   group, update propagations advancing to a key another shard owns)
//!   rides per-lane outboxes merged at an allocation-free barrier into the
//!   `(time, src, seq)` total order — deterministic regardless of which
//!   thread produced what when. A pass loops merge → drain until every
//!   outbox is quiescent.
//! * Maintenance ticks *plan* repairs against the shared routing tables
//!   ([`pdht_overlay::Overlay::maintenance_plan`]); the barrier applies
//!   each lane's plan serially in lane order, so the tables stay immutable
//!   while workers route through them.
//!
//! Results depend only on `S` — the thread count just decides how many
//! workers pull lane tasks off the pool — so any `--threads` value yields
//! bit-identical output for a fixed configuration. Cross-shard reads
//! (overlay routing tables, liveness, topology, content placement) are
//! immutable during a pass; cross-shard *writes* cannot occur because
//! store shard = replica-group shard at every insert site and everything
//! else rides the outboxes.

use super::engine::{Counters, NetEvent, PdhtNetwork, QUERIES_OFFSET_US};
use super::maintenance::UpdateCtx;
use super::peer::{ShardStores, StoreShard};
use super::routing::{QueryCtx, QueryExec};
use crate::admission::{AdmissionFilter, AdmissionPolicy};
use pdht_gossip::WavePool;
use pdht_overlay::{Overlay, PlanScratch, Repair};
use pdht_sim::{merge_outboxes_into, EventQueue, MergeBuffers, Metrics, Outbox, ShardPool, Slab};
use pdht_types::{PeerId, RngStreams, Round, SimTime};
use pdht_workload::Query;
use rand::rngs::SmallRng;
use std::time::Instant;

/// A unit of cross-lane traffic: a freshly generated query or a replaced
/// article's update propagation dealt to the shard owning its (first)
/// key's replica group, or a propagation context handed to the shard
/// owning its next key.
pub(crate) enum LaneMsg {
    Query(Query),
    /// `entry` is the DHT peer all key routes start from when the deal
    /// picked it, else the lane draws one.
    StartUpdate {
        article: u32,
        new_version: u64,
        entry: Option<PeerId>,
    },
    Update(UpdateCtx),
}

/// One shard's exclusively-owned execution state: everything a
/// [`QueryExec`] mutates besides its store shard, plus the workload stream
/// used by the generate pass.
pub(crate) struct LaneState {
    pub(crate) rng_workload: SmallRng,
    pub(crate) rng_overlay: SmallRng,
    pub(crate) rng_search: SmallRng,
    pub(crate) rng_latency: SmallRng,
    /// Lane-private metrics, merged into the engine at the bookkeeping
    /// barrier.
    pub(crate) metrics: Metrics,
    /// Lane-private outcome counters, merged at the bookkeeping barrier.
    pub(crate) counters: Counters,
    pub(crate) admission: AdmissionFilter,
    /// Recyclable flood/rumor wave scratch owned by this lane.
    pub(crate) waves: WavePool,
    /// In-flight queries, keyed by [`QueryId`] (generational slab — parking
    /// and resuming a context is allocation-free). Empty whenever every hop
    /// delay is zero (steps run inline).
    pub(crate) inflight: Slab<QueryCtx>,
    /// In-flight update propagations whose current key this shard owns.
    pub(crate) updates_inflight: Slab<UpdateCtx>,
    /// Lane-local virtual-time queue carrying this shard's background
    /// events and in-flight message arrivals/timeouts.
    pub(crate) events: EventQueue<NetEvent>,
    /// Cross-lane traffic produced by this shard, awaiting the merge
    /// barrier.
    pub(crate) outbox: Outbox<LaneMsg>,
    /// Routing-table repairs planned by this lane's maintenance ticks,
    /// applied serially at the pass barrier.
    pub(crate) repairs: Vec<Repair>,
    /// Reusable maintenance-plan scratch.
    pub(crate) plan: PlanScratch,
    /// Lane events dispatched, folded into the engine's global counter at
    /// the bookkeeping barrier.
    pub(crate) dispatched: u64,
}

/// The engine's lane structure: one [`LaneState`] per shard, the per-shard
/// churn streams, the reusable merge buffers, and the persistent worker
/// pool. (The partition maps are read-only after build and live on
/// [`super::engine::World`].)
pub(crate) struct ShardedState {
    /// One lane per shard (`S = lanes.len()`, fixed at build).
    pub(crate) lanes: Vec<LaneState>,
    /// Per-shard churn streams, drained serially in shard order each churn
    /// phase.
    pub(crate) churn_rngs: Vec<SmallRng>,
    /// Engine-side outbox (src = `S`) dealing serially created work — one
    /// message per replaced article — into the lanes.
    pub(crate) deal: Outbox<LaneMsg>,
    /// Caller-owned merge buffers: the barrier is allocation-free at
    /// steady state.
    pub(crate) merge: MergeBuffers<LaneMsg>,
    /// The persistent worker pool (thread count is a pure executor knob).
    pub(crate) pool: ShardPool,
}

/// Lane `lane`'s stream for `label` out of `lanes`, so shard counts — not
/// thread counts — define the random universe.
pub(crate) fn lane_stream(
    streams: &RngStreams,
    label: &str,
    lane: usize,
    lanes: usize,
) -> SmallRng {
    // PIN(one-lane): a single lane draws the historical un-indexed streams.
    // Forced by the `shards = 1` vectors in `golden_accounting.rs` /
    // `background_events.rs` and the `walk_miss` / `gossip_coded`
    // fingerprints; the indexed labels are pinned by `route_event` /
    // `loaded_mix` at `shards = 8`.
    if lanes == 1 {
        streams.stream(label)
    } else {
        streams.indexed_stream(label, lane as u64)
    }
}

/// The partition maps of `shards` shards over `num_peers` peers: shard →
/// its contiguous origin range `[lo, hi)` of peers (drives workload
/// generation, the churn calendar split, and maintenance-event placement),
/// and replica group → owning shard (`g * S / group_count`; empty without
/// an overlay).
///
/// # Panics
/// Panics unless `1 <= shards <= num_peers` (every shard owns a peer).
pub(crate) fn partition_maps(
    shards: usize,
    num_peers: u32,
    overlay: Option<&dyn Overlay>,
) -> (Vec<(u32, u32)>, Vec<u16>) {
    let n = num_peers as usize;
    assert!((1..=n).contains(&shards), "shards must be in 1..={n}, got {shards}");
    let ranges =
        (0..shards).map(|s| (((s * n) / shards) as u32, (((s + 1) * n) / shards) as u32)).collect();
    let gc = overlay.map_or(0, Overlay::group_count);
    (ranges, (0..gc).map(|g| ((g * shards) / gc) as u16).collect())
}

/// The origin shard of `peer` under the origin `ranges`.
pub(crate) fn origin_lane(ranges: &[(u32, u32)], peer: PeerId) -> u16 {
    ranges.partition_point(|&(_, hi)| hi <= peer.0) as u16
}

/// The lane owning `peer`'s store: its replica group's shard, so every
/// store mutation a query performs is local to the shard executing it
/// (the peer's origin shard when there is no overlay).
pub(crate) fn store_lane(
    ranges: &[(u32, u32)],
    group_shard: &[u16],
    overlay: Option<&dyn Overlay>,
    peer: PeerId,
) -> u16 {
    match overlay {
        Some(o) => group_shard[o.group_of_peer(peer)],
        None => origin_lane(ranges, peer),
    }
}

impl ShardedState {
    /// Builds `shards` lanes.
    pub(crate) fn new(
        shards: usize,
        streams: &RngStreams,
        admission: AdmissionPolicy,
    ) -> ShardedState {
        let lanes: Vec<LaneState> = (0..shards)
            .map(|s| LaneState {
                rng_workload: lane_stream(streams, "workload", s, shards),
                rng_overlay: lane_stream(streams, "overlay", s, shards),
                rng_search: lane_stream(streams, "search", s, shards),
                rng_latency: lane_stream(streams, "latency", s, shards),
                metrics: Metrics::new(),
                counters: Counters::default(),
                admission: AdmissionFilter::new(admission),
                waves: WavePool::new(),
                inflight: Slab::with_capacity(16),
                updates_inflight: Slab::with_capacity(8),
                events: EventQueue::new(),
                outbox: Outbox::new(s as u32),
                repairs: Vec::new(),
                plan: PlanScratch::new(),
                dispatched: 0,
            })
            .collect();
        let churn_rngs: Vec<SmallRng> =
            (0..shards).map(|s| lane_stream(streams, "churn-run", s, shards)).collect();
        ShardedState {
            lanes,
            churn_rngs,
            deal: Outbox::new(shards as u32),
            merge: MergeBuffers::new(shards),
            pool: ShardPool::new(1),
        }
    }
}

/// A drain-pass work unit: one lane zipped with its store shard and merged
/// message batch.
struct LaneTask<'a> {
    lane: &'a mut LaneState,
    store: &'a mut StoreShard,
    batch: &'a mut Vec<pdht_sim::OutMsg<LaneMsg>>,
}

impl PdhtNetwork {
    /// The generate half of the query phase (parallel): each shard draws
    /// its origin range's workload and deals queries, stamped at the phase
    /// instant, to the shard owning the key's replica group (its own shard
    /// without an overlay: NoIndex broadcasts are origin-local). The
    /// phase's [`PdhtNetwork::lane_pass`] then issues the merged batches.
    pub(crate) fn generate_queries(&mut self, round: u64) {
        let t_q = Round(round).start() + SimTime::from_micros(QUERIES_OFFSET_US);
        let world = &self.world;
        self.shards.pool.run(&mut self.shards.lanes, |s, lane| {
            let (lo, hi) = world.ranges[s];
            for q in world.workload.round_queries_range(round, &mut lane.rng_workload, lo, hi) {
                let dest = match &world.overlay {
                    Some(o) => {
                        u32::from(world.group_shard[o.group_of_key(world.keys[q.key_index])])
                    }
                    None => s as u32,
                };
                lane.outbox.push(dest, t_q, LaneMsg::Query(q));
            }
        });
    }

    /// Runs one parallel drain pass over every lane: merge the outboxes
    /// (and the engine's deal box) into the `(time, src, seq)` total
    /// order, deliver each shard's batch with per-message clock clamping
    /// (`max(msg.time, lane now)`), drain lane events due by `deadline`,
    /// then — serially, in lane order — apply the planned routing-table
    /// repairs. Loops until every outbox is quiescent — cross-lane waves
    /// (update handoffs) settle within the pass. `advance` parks every lane
    /// clock afterwards (the round boundary on the final pass).
    pub(crate) fn lane_pass(
        &mut self,
        deadline: SimTime,
        advance: Option<SimTime>,
        queries_bucket: bool,
    ) {
        let timing = self.phase_timers.is_some();
        let mut pool_time = std::time::Duration::ZERO;
        let mut barrier_time = std::time::Duration::ZERO;
        let mut first = true;
        loop {
            let t0 = timing.then(Instant::now);
            {
                let ShardedState { lanes, deal, merge, .. } = &mut self.shards;
                // The deal box is chained unconditionally: it is only
                // non-empty on the first iteration after the content-update
                // phase and drains like any lane outbox.
                merge_outboxes_into(
                    lanes.iter_mut().map(|l| &mut l.outbox).chain(std::iter::once(deal)),
                    merge,
                );
            }
            if let Some(t0) = t0 {
                barrier_time += t0.elapsed();
            }
            let st = &mut self.shards;
            let have_msgs = st.merge.total() > 0;
            if !have_msgs && !first {
                break;
            }
            let work = have_msgs
                || st.lanes.iter().any(|l| l.events.peek_time().is_some_and(|t| t <= deadline));
            if work {
                let world = &self.world;
                let (slot, store_shards) = self.peers.split_mut();
                let mut tasks: Vec<LaneTask<'_>> = st
                    .lanes
                    .iter_mut()
                    .zip(store_shards.iter_mut())
                    .zip(st.merge.batches_mut().iter_mut())
                    .map(|((lane, store), batch)| LaneTask { lane, store, batch })
                    .collect();
                let t0 = timing.then(Instant::now);
                st.pool.run(&mut tasks, |s, task| {
                    let stores = ShardStores { slot, shard_id: s as u16, shard: &mut *task.store };
                    let mut exec = QueryExec { world, stores, lane: &mut *task.lane };
                    for msg in task.batch.drain(..) {
                        // A handed-off context can carry a timestamp
                        // behind this lane's clock; deliveries clamp
                        // forward (never backward — the merge order is
                        // already fixed).
                        let at = msg.time.max(exec.lane.events.now());
                        exec.drain_until(at);
                        exec.lane.events.advance_to(at);
                        exec.deliver(msg.payload, at.round().0);
                    }
                    exec.drain_until(deadline);
                });
                if let Some(t0) = t0 {
                    pool_time += t0.elapsed();
                }
            }
            // Serial barrier: apply each lane's planned repairs in lane
            // order — the only routing-table mutation between phases.
            if self.shards.lanes.iter().any(|l| !l.repairs.is_empty()) {
                let t0 = timing.then(Instant::now);
                let live = self.world.churn.liveness();
                let o = self.world.overlay.as_deref_mut().expect("repairs imply an overlay");
                for lane in &mut self.shards.lanes {
                    if !lane.repairs.is_empty() {
                        o.maintenance_apply(&lane.repairs, live);
                        lane.repairs.clear();
                    }
                }
                if let Some(t0) = t0 {
                    barrier_time += t0.elapsed();
                }
            }
            if !work {
                break;
            }
            first = false;
        }
        if let Some(at) = advance {
            for lane in &mut self.shards.lanes {
                lane.events.advance_to(at);
            }
        }
        if let Some(tm) = self.phase_timers.as_mut() {
            if queries_bucket {
                tm.queries += pool_time;
            } else {
                tm.background += pool_time;
            }
            tm.barriers += barrier_time;
        }
    }

    /// The bookkeeping barrier: folds every lane's accounting into the
    /// engine, in shard order.
    pub(crate) fn fold_lanes(&mut self) {
        for lane in &mut self.shards.lanes {
            let lane_metrics = std::mem::replace(&mut lane.metrics, Metrics::new());
            self.metrics.merge_from(&lane_metrics);
            self.counters.merge_from(&lane.counters);
            lane.counters = Counters::default();
            self.events_dispatched += lane.dispatched;
            lane.dispatched = 0;
        }
    }
}
