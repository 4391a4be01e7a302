//! Query execution: the selection algorithm's full pipeline over the
//! structured and unstructured substrates (Section 5.1), run as a
//! message-granular state machine.
//!
//! Every query is a [`QueryCtx`] advancing through [`QueryStage`]s; each
//! step performs the work due at the current virtual instant and either
//! finishes the query or puts one message (or one parallel message wave)
//! in flight:
//!
//! * DHT routing forwards one hop per step
//!   ([`pdht_overlay::Overlay::next_hop`]),
//! * the replica-subnetwork flood advances one BFS frontier level per step
//!   ([`pdht_gossip::ReplicaGroup::flood_wave`]),
//! * the unstructured broadcast advances one parallel walker wave per step
//!   ([`pdht_unstructured::RandomWalk::wave`]).
//!
//! The delay of each in-flight message is drawn from the configured
//! [`crate::LatencyConfig`]. A zero delay advances the state machine
//! *inline* instead of going through the event queue — so under
//! [`crate::LatencyConfig::Zero`] every query runs to completion in issue
//! order, consuming the component RNG streams in exactly the order the
//! synchronous pipeline did, which keeps the accounting bit-for-bit
//! identical. Non-zero delays interleave queries, let them cross round
//! boundaries (observing churn and TTL expiry as they go), and populate
//! the `query_hops` / `query_latency_us` histograms.
//!
//! # Execution lanes
//!
//! The pipeline is written against [`QueryExec`]: the engine's read-only
//! [`World`] (overlay, topology, liveness — shared by every shard), one
//! shard's store region, and that shard's whole [`LaneState`] (RNG streams,
//! metrics, in-flight slabs, event queue — exclusively owned). Every pass
//! in [`super::shard`] builds one exec per shard and runs them on the
//! worker pool.
//!
//! Each pipeline primitive exists once: [`route_hop`] is the engine's only
//! DHT forward (query, insert and update routes differ in the stream they
//! draw from and the [`MessageKind`] their hops are priced under), and
//! [`flood_visit`] is the only per-member visit of a replica-subnetwork
//! flood (lookup floods peek, insert floods write).

use super::engine::{NetEvent, QueryId, World};
use super::peer::ShardStores;
use super::shard::{LaneMsg, LaneState};
use crate::config::Strategy;
use crate::ttl::Ttl;
use pdht_gossip::{FloodWave, ReplicaGroup};
use pdht_overlay::{HopOutcome, LookupState};
use pdht_sim::Metrics;
use pdht_types::{Key, MessageKind, PeerId, Result, SimTime};
use pdht_unstructured::{RandomWalk, SearchOutcome, WalkWave};
use pdht_workload::Query;

/// Why a broadcast search is running — determines how its outcome is
/// accounted, mirroring the three broadcast call sites of the synchronous
/// pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WalkMode {
    /// `Strategy::NoIndex`: every query broadcasts; a success is a "miss"
    /// in index terms, a failure counts only as a search failure.
    NoIndex,
    /// The index was unreachable (no entry peer / routing dead-end): pure
    /// fallback, never inserts.
    Fallback,
    /// The index missed: a found key is (subject to admission) inserted at
    /// the responsible replicas.
    IndexMiss,
}

/// The pipeline position of an in-flight query.
enum QueryStage {
    /// Structured routing towards a responsible peer.
    Route {
        /// Resumable lookup state (one forward per step).
        lookup: LookupState,
    },
    /// Replica-subnetwork flood after a local miss (Eq. 16).
    Flood {
        /// Resumable BFS frontier (one level per step).
        flood: FloodWave,
    },
    /// Unstructured broadcast search.
    Walk {
        /// Resumable walker positions (one parallel wave per step).
        walk: RandomWalk,
        /// How to account the outcome.
        mode: WalkMode,
    },
    /// Routing the found key back towards its responsible replicas
    /// (selection algorithm's insert-on-miss; hops count as `IndexInsert`).
    InsertRoute {
        /// Resumable lookup state from the original entry peer.
        lookup: LookupState,
        /// The version to index, fixed when the broadcast resolved.
        version: u64,
    },
    /// Distributing the found key through the replica subnetwork.
    InsertFlood {
        /// Resumable BFS frontier delivering the insert.
        flood: FloodWave,
        /// The version being distributed.
        version: u64,
    },
}

/// An in-flight query: everything the state machine needs between events.
pub(crate) struct QueryCtx {
    id: QueryId,
    /// The querying peer (fallback broadcasts start here).
    origin: PeerId,
    key: Key,
    key_index: usize,
    article: u32,
    /// The DHT peer the query entered through (the insert route starts
    /// here, as in the synchronous pipeline).
    entry: PeerId,
    /// The key's replica-group index, resolved once at issue (loop
    /// invariant; flood waves would otherwise re-run the ring binary
    /// search every level under Chord).
    group: usize,
    /// TTL captured at issue time (the adaptive controller may move
    /// `ttl_rounds` while the query is in flight).
    ttl: Ttl,
    issued_at: SimTime,
    /// Forwarding steps so far (message hops / parallel waves).
    steps: u32,
    /// Whether a timeout event has been scheduled for this query.
    timeout_armed: bool,
    stage: QueryStage,
}

/// What one state-machine step did (shared with the update-propagation
/// machine in [`super::maintenance`]).
pub(crate) enum StepFate {
    /// The query resolved; its context can be dropped.
    Done,
    /// A message (or wave) is now in flight; the next step runs when it
    /// lands.
    Next,
}

/// Which lane stream a route draws its stale-reference retries from — part
/// of the pinned draw order: query and update routes use the overlay
/// stream, the insert route the search stream.
#[derive(Clone, Copy)]
pub(crate) enum HopStream {
    Overlay,
    Search,
}

/// One DHT forward of `lookup` towards `key` — the engine's only
/// [`pdht_overlay::Overlay::next_hop`] call. Every attempt the substrate
/// spent (wasted ones included, whether the step forwarded, arrived or
/// dead-ended) is priced under `kind`: substrates bump `lookup.hops` with
/// every `RouteHop` they record (the conformance kit's
/// `hop_accounting_is_monotone`), so the delta is the exact message count
/// and the substrate's own tally goes to a throwaway sink.
pub(crate) fn route_hop(
    world: &World,
    lane: &mut LaneState,
    key: Key,
    lookup: &mut LookupState,
    stream: HopStream,
    kind: MessageKind,
) -> Result<HopOutcome> {
    let o = world.overlay.as_deref().expect("routing implies an overlay");
    let rng = match stream {
        HopStream::Overlay => &mut lane.rng_overlay,
        HopStream::Search => &mut lane.rng_search,
    };
    let before = lookup.hops;
    let outcome = o.next_hop(key, lookup, world.live(), rng, &mut Metrics::new());
    lane.metrics.record_n(kind, u64::from(lookup.hops - before));
    outcome
}

/// Where a replica-subnetwork flood runs and what it carries: the key's
/// replica group and dense index, and the TTL inserts get.
#[derive(Clone, Copy)]
struct FloodSite {
    group: usize,
    ki: u32,
    ttl: Ttl,
}

/// The per-member visit of a replica-subnetwork flood over `group`: a
/// lookup flood (`insert = None`) asks whether the member holds the key —
/// the first holder answers and stops the flood — an insert flood writes
/// the version at every member and never stops early.
fn flood_visit<'s, 'a>(
    stores: &'s mut ShardStores<'a>,
    group: &'s ReplicaGroup,
    site: FloodSite,
    insert: Option<u64>,
    round: u64,
) -> impl FnMut(usize) -> bool + use<'s, 'a> {
    move |member_local| {
        let member = group.members()[member_local];
        match insert {
            Some(version) => {
                stores.insert(member, site.ki, version, round, site.ttl);
                false
            }
            None => stores.peek(member, site.ki, round).is_some(),
        }
    }
}

/// The complete capability set of the query pipeline and the background
/// handlers: the shared world, one shard's store region, and that shard's
/// lane.
pub(crate) struct QueryExec<'a> {
    pub(crate) world: &'a World,
    pub(crate) stores: ShardStores<'a>,
    pub(crate) lane: &'a mut LaneState,
}

impl QueryExec<'_> {
    /// Pops and dispatches every lane event due by `deadline` (inclusive) —
    /// message arrivals and timeouts of this lane's in-flight queries plus
    /// its background events: maintenance ticks, TTL sweeps, and
    /// update-propagation waves — in `(time, insertion)` order, counting
    /// them into `lane.dispatched`.
    pub(crate) fn drain_until(&mut self, deadline: SimTime) {
        while let Some(scheduled) = self.lane.events.pop_until(deadline) {
            self.lane.dispatched += 1;
            let round = scheduled.time.round().0;
            match scheduled.event {
                NetEvent::MessageArrival { query } => self.on_message_arrival(query, round),
                NetEvent::QueryTimeout { query } => self.on_query_timeout(query),
                NetEvent::GossipPush { update } => self.on_gossip_push(update, round),
                NetEvent::PeerMaintenance { peer } => self.on_peer_maintenance(peer),
                NetEvent::TtlSweep { peer } => self.on_ttl_sweep(peer, round),
            }
        }
    }

    /// Delivers one merged cross-lane message at the current lane instant.
    pub(crate) fn deliver(&mut self, msg: LaneMsg, round: u64) {
        match msg {
            LaneMsg::Query(q) => self.start_query(q, round),
            LaneMsg::Update(ctx) => self.deliver_update(ctx, round),
            LaneMsg::StartUpdate { article, new_version, entry } => {
                self.start_update(article, new_version, entry, round);
            }
        }
    }

    /// Advances the query whose message just landed. Arrivals for queries
    /// no longer in flight (answered or timed out) are ignored.
    pub(crate) fn on_message_arrival(&mut self, id: QueryId, round: u64) {
        if let Some(ctx) = self.lane.inflight.take(id) {
            self.drive_query(ctx, round);
        }
    }

    /// Abandons an in-flight query whose deadline expired: accounted as a
    /// miss plus a timeout (stale timeouts for completed queries are
    /// no-ops). The query still enters the latency histograms, censored at
    /// its abandonment instant — dropping it would bias the percentiles
    /// toward the survivors.
    pub(crate) fn on_query_timeout(&mut self, id: QueryId) {
        if let Some(ctx) = self.lane.inflight.free(id) {
            // A query abandoned mid-flood still holds a pooled scratch
            // slot; hand it back so the next wave can reuse it.
            if let QueryStage::Flood { mut flood } | QueryStage::InsertFlood { mut flood, .. } =
                ctx.stage
            {
                flood.release(&mut self.lane.waves);
            }
            self.lane.counters.query_timeouts += 1;
            self.record_outcome(false, ctx.article, None);
            self.observe_query_done(ctx.steps, ctx.issued_at);
        }
    }

    /// Issues one query: resolves its DHT entry (or starts a broadcast)
    /// and drives the state machine until it completes or goes in flight.
    pub(crate) fn start_query(&mut self, q: Query, round: u64) {
        self.lane.counters.issued += 1;
        if !self.world.live().is_online(q.origin) {
            self.lane.counters.skipped_offline += 1;
            return;
        }
        let key = self.world.keys[q.key_index];
        let article = self.world.article_of[q.key_index];
        let is_partial = self.world.cfg.strategy == Strategy::Partial;

        let (entry, group, stage) = match self.dht_entry(q.origin) {
            Some(entry) => {
                let o = self.world.overlay.as_deref().expect("entry implies overlay");
                let lookup = o.begin_lookup(entry, key);
                (entry, lookup.target_group, QueryStage::Route { lookup })
            }
            // No entry: NoIndex maintains no overlay and always broadcasts;
            // an indexing strategy found its index unreachable and falls
            // back to pure broadcast.
            None => {
                let mode = match self.world.cfg.strategy {
                    Strategy::NoIndex => WalkMode::NoIndex,
                    Strategy::IndexAll | Strategy::Partial => WalkMode::Fallback,
                };
                let Some(stage) = self.first_walk(q.origin, article, mode) else { return };
                (q.origin, 0, stage)
            }
        };
        let ctx = QueryCtx {
            id: self.lane.inflight.reserve(),
            origin: q.origin,
            key,
            key_index: q.key_index,
            article,
            entry,
            group,
            ttl: if is_partial { Ttl::Rounds(self.world.ttl_rounds) } else { Ttl::Infinite },
            issued_at: self.lane.events.now(),
            steps: 0,
            timeout_armed: false,
            stage,
        };
        self.drive_query(ctx, round);
    }

    /// The broadcast a query *starts* with, in `mode`; `None` when it
    /// resolved at the issue instant (accounted here, zero steps, zero
    /// latency — such queries still count in the histograms).
    fn first_walk(&mut self, origin: PeerId, article: u32, mode: WalkMode) -> Option<QueryStage> {
        match self.begin_walk(origin, article) {
            Ok(walk) => Some(QueryStage::Walk { walk, mode }),
            Err(resolved) => {
                self.resolve_walk(mode, resolved.found.is_some(), article);
                let now = self.lane.events.now();
                self.observe_query_done(0, now);
                None
            }
        }
    }

    /// Steps `ctx` until it resolves or a message with a non-zero delay
    /// goes in flight (zero delays advance inline — the fast path that
    /// makes `LatencyConfig::Zero` reproduce synchronous execution).
    fn drive_query(&mut self, mut ctx: QueryCtx, round: u64) {
        loop {
            match self.step_query(&mut ctx, round) {
                StepFate::Done => {
                    self.lane.inflight.free(ctx.id);
                    self.observe_query_done(ctx.steps, ctx.issued_at);
                    return;
                }
                StepFate::Next => {
                    ctx.steps += 1;
                    let delay = self.world.latency.sample(&mut self.lane.rng_latency);
                    if delay == SimTime::ZERO {
                        continue;
                    }
                    if !ctx.timeout_armed {
                        // Armed before the first non-zero hop, when virtual
                        // time still equals the issue instant.
                        if let Some(timeout) = self.world.cfg.query_timeout_secs {
                            self.lane.events.schedule_in(
                                SimTime::from_secs_f64(timeout),
                                NetEvent::QueryTimeout { query: ctx.id },
                            );
                        }
                        ctx.timeout_armed = true;
                    }
                    let event = NetEvent::MessageArrival { query: ctx.id };
                    self.lane.events.schedule_in(delay, event);
                    let id = ctx.id;
                    self.lane.inflight.park(id, ctx);
                    return;
                }
            }
        }
    }

    /// The single place every finished (or abandoned) query enters the
    /// per-query histograms.
    fn observe_query_done(&mut self, steps: u32, issued_at: SimTime) {
        self.lane.metrics.observe("query_hops", u64::from(steps));
        let elapsed = self.lane.events.now().saturating_sub(issued_at);
        self.lane.metrics.observe("query_latency_us", elapsed.as_micros());
    }

    /// One step of the pipeline state machine, at the current virtual
    /// instant inside round `round`.
    fn step_query(&mut self, ctx: &mut QueryCtx, round: u64) -> StepFate {
        let ki = ctx.key_index as u32;
        let site = FloodSite { group: ctx.group, ki, ttl: ctx.ttl };
        match ctx.stage {
            QueryStage::Route { mut lookup } => {
                let (stream, kind) = (HopStream::Overlay, MessageKind::RouteHop);
                match route_hop(self.world, self.lane, ctx.key, &mut lookup, stream, kind) {
                    Ok(HopOutcome::Forwarded(_)) => {
                        ctx.stage = QueryStage::Route { lookup };
                        StepFate::Next
                    }
                    Ok(HopOutcome::Arrived(responsible)) => {
                        // Local index check (refreshes TTL on hit).
                        if let Some(v) =
                            self.stores.get_and_refresh(responsible, ki, round, ctx.ttl)
                        {
                            self.record_outcome(true, ctx.article, Some(v));
                            return StepFate::Done;
                        }
                        // Replica-subnetwork flood (Eq. 16) — the selection
                        // algorithm's consistency net. IndexAll uses it too
                        // (its replicas can drift during churn).
                        let flood = self.flood_begin(site, responsible, None, round);
                        ctx.stage = QueryStage::Flood { flood };
                        StepFate::Next
                    }
                    Err(_) => {
                        self.lane.counters.lookup_failures += 1;
                        self.walk_or_resolve(ctx, WalkMode::Fallback, round)
                    }
                }
            }

            QueryStage::Flood { ref mut flood } => {
                if !self.flood_wave(site, flood, None, round) {
                    return StepFate::Next;
                }
                if let Some(answering) = flood.found() {
                    // The answer can expire while the flood sweeps the group
                    // (possible only with non-zero latency); that is just a
                    // miss.
                    if let Some(v) = self.stores.get_and_refresh(answering, ki, round, ctx.ttl) {
                        self.record_outcome(true, ctx.article, Some(v));
                        return StepFate::Done;
                    }
                }
                // Index miss: broadcast search the unstructured overlay.
                self.walk_or_resolve(ctx, WalkMode::IndexMiss, round)
            }

            QueryStage::Walk { ref mut walk, mode } => {
                let content = &self.world.content;
                let article = ctx.article as usize;
                let wave = walk.step(
                    &self.world.topo,
                    |p| content.is_holder(article, p),
                    self.world.live(),
                    &mut self.lane.rng_search,
                    &mut self.lane.metrics,
                );
                match wave {
                    WalkWave::InProgress => StepFate::Next,
                    WalkWave::Found(_) => self.after_walk(ctx, mode, true, round),
                    WalkWave::Exhausted => self.after_walk(ctx, mode, false, round),
                }
            }

            QueryStage::InsertRoute { mut lookup, version } => {
                // Hops of the insert route count as IndexInsert traffic,
                // exactly as the synchronous pipeline recorded them.
                let (stream, kind) = (HopStream::Search, MessageKind::IndexInsert);
                match route_hop(self.world, self.lane, ctx.key, &mut lookup, stream, kind) {
                    Ok(HopOutcome::Forwarded(_)) => {
                        ctx.stage = QueryStage::InsertRoute { lookup, version };
                        StepFate::Next
                    }
                    Ok(HopOutcome::Arrived(at)) => {
                        let flood = self.flood_begin(site, at, Some(version), round);
                        ctx.stage = QueryStage::InsertFlood { flood, version };
                        StepFate::Next
                    }
                    Err(_) => {
                        // Insert route dead-ended: the key stays unindexed
                        // this time (same as the synchronous pipeline).
                        self.record_outcome(false, ctx.article, None);
                        StepFate::Done
                    }
                }
            }

            QueryStage::InsertFlood { ref mut flood, version } => {
                if !self.flood_wave(site, flood, Some(version), round) {
                    return StepFate::Next;
                }
                self.record_outcome(false, ctx.article, None);
                StepFate::Done
            }
        }
    }

    /// Starts a flood of `site`'s replica group at member `at`.
    fn flood_begin(
        &mut self,
        site: FloodSite,
        at: PeerId,
        insert: Option<u64>,
        round: u64,
    ) -> FloodWave {
        let group = &self.world.groups[site.group];
        let visit = flood_visit(&mut self.stores, group, site, insert, round);
        group.flood_begin(at, visit, self.world.live(), &mut self.lane.waves)
    }

    /// Advances `flood` by one BFS frontier level; `true` once it is done.
    fn flood_wave(
        &mut self,
        site: FloodSite,
        flood: &mut FloodWave,
        insert: Option<u64>,
        round: u64,
    ) -> bool {
        let group = &self.world.groups[site.group];
        let visit = flood_visit(&mut self.stores, group, site, insert, round);
        let LaneState { metrics, waves, .. } = &mut *self.lane;
        group.flood_wave(flood, visit, self.world.live(), metrics, waves)
    }

    /// Starts a fresh broadcast for `ctx` (or resolves it immediately) in
    /// `mode`.
    fn walk_or_resolve(&mut self, ctx: &mut QueryCtx, mode: WalkMode, round: u64) -> StepFate {
        match self.begin_walk(ctx.origin, ctx.article) {
            Ok(walk) => {
                ctx.stage = QueryStage::Walk { walk, mode };
                StepFate::Next
            }
            Err(resolved) => self.after_walk(ctx, mode, resolved.found.is_some(), round),
        }
    }

    /// Accounts a finished broadcast and, on an index-miss hit, starts the
    /// insert path.
    fn after_walk(
        &mut self,
        ctx: &mut QueryCtx,
        mode: WalkMode,
        found: bool,
        round: u64,
    ) -> StepFate {
        match mode {
            WalkMode::NoIndex | WalkMode::Fallback => {
                self.resolve_walk(mode, found, ctx.article);
                StepFate::Done
            }
            WalkMode::IndexMiss => {
                if !found {
                    self.lane.counters.search_failures += 1;
                    self.record_outcome(false, ctx.article, None);
                    return StepFate::Done;
                }
                let version = self.world.updates.version(ctx.article);
                // Admission check: the paper admits every miss; the
                // frequency-aware extension requires a repeat miss first.
                let is_partial = self.world.cfg.strategy == Strategy::Partial;
                if is_partial && !self.lane.admission.on_miss(ctx.key, round) {
                    self.record_outcome(false, ctx.article, None);
                    return StepFate::Done;
                }
                // Insert the result at the responsible replicas (routed from
                // the entry peer, counted as IndexInsert, then replica
                // flood).
                let o = self.world.overlay.as_deref().expect("overlay present");
                ctx.stage =
                    QueryStage::InsertRoute { lookup: o.begin_lookup(ctx.entry, ctx.key), version };
                StepFate::Next
            }
        }
    }

    /// Outcome accounting for broadcasts that never insert.
    fn resolve_walk(&mut self, mode: WalkMode, found: bool, article: u32) {
        match mode {
            WalkMode::NoIndex => {
                if found {
                    self.lane.counters.misses += 1; // every query is a "miss" in index terms
                } else {
                    self.lane.counters.search_failures += 1;
                }
            }
            WalkMode::Fallback => {
                if !found {
                    self.lane.counters.search_failures += 1;
                }
                self.record_outcome(false, article, None);
            }
            WalkMode::IndexMiss => unreachable!("index-miss walks resolve in after_walk"),
        }
    }

    /// Begins a k-random-walk broadcast for a holder of `article` from
    /// `origin`; `Err` is the immediately resolved outcome.
    fn begin_walk(
        &mut self,
        origin: PeerId,
        article: u32,
    ) -> std::result::Result<RandomWalk, SearchOutcome> {
        let World { cfg, content, .. } = self.world;
        RandomWalk::start(
            origin,
            cfg.walkers,
            u64::from(cfg.walk_budget_factor) * u64::from(cfg.scenario.num_peers),
            |p| content.is_holder(article as usize, p),
            self.world.live(),
        )
    }

    /// Finds an online DHT peer to hand the query to; free if the origin
    /// itself participates, one `QueryEntry` message otherwise.
    fn dht_entry(&mut self, origin: PeerId) -> Option<PeerId> {
        let o = self.world.overlay.as_deref()?;
        let live = self.world.live();
        if origin.idx() < self.world.nap && live.is_online(origin) {
            return Some(origin);
        }
        let entry = o.entry_peer(live, &mut self.lane.rng_overlay)?;
        self.lane.metrics.record(MessageKind::QueryEntry);
        Some(entry)
    }

    /// Outcome bookkeeping. The adaptive-TTL controller no longer observes
    /// here — the engine flushes the counter deltas at the bookkeeping
    /// phase, outside any parallel section.
    fn record_outcome(&mut self, hit: bool, article: u32, version: Option<u64>) {
        if hit {
            self.lane.counters.hits += 1;
            if let Some(v) = version {
                if v < self.world.updates.version(article) {
                    self.lane.counters.stale_hits += 1;
                }
            }
        } else {
            self.lane.counters.misses += 1;
        }
    }
}
