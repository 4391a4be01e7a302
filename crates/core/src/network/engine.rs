//! Round orchestration over message-granular lane queues.
//!
//! [`PdhtNetwork::step_round`] walks the six [`RoundPhase`] markers of a
//! round, each at its own staggered sub-round instant: a phase is its
//! serial work followed by one [`PdhtNetwork::lane_pass`] that drains every
//! lane's [`pdht_sim::EventQueue`] in virtual-time order up to the next
//! marker, dispatching each [`NetEvent`] to its handler in
//! [`super::maintenance`] / [`super::routing`]. Each queue's total pop order
//! (ties break by insertion) and the barrier merge between lanes keep runs
//! bit-for-bit reproducible.
//!
//! The query pipeline in [`super::routing`] runs as a state machine over
//! in-flight queries, scheduling one [`NetEvent::MessageArrival`] per
//! forwarded message (or parallel message wave) with a delay drawn from
//! the configured [`crate::LatencyConfig`]. Zero-delay steps are executed
//! inline in issue order — which is exactly the old synchronous semantics,
//! so a [`crate::LatencyConfig::Zero`] run reproduces the phase-granular
//! engine's accounting bit-for-bit. Non-zero delays let queries interleave,
//! cross round boundaries, and race churn, and populate the per-query
//! latency histograms surfaced in [`SimReport`].

use crate::config::{OverlayKind, PdhtConfig, Strategy};
use crate::network::peer::PeerStores;
use crate::network::shard::{lane_stream, origin_lane, partition_maps, store_lane, ShardedState};
use crate::ttl::{model_key_ttl, AdaptiveTtl, TtlPolicy};
use pdht_gossip::ReplicaGroup;
use pdht_model::{CostModel, SelectionModel};
use pdht_overlay::{ChordOverlay, ChurnModel, KademliaOverlay, Overlay, TrieOverlay};
use pdht_sim::{HistogramSummary, LatencyModel, Metrics};
use pdht_types::{Key, Liveness, MessageKind, PeerId, Result, RngStreams, Round, SimTime};
use pdht_unstructured::{Replication, Topology};
use pdht_workload::{QueryWorkload, UpdateProcess};
use rand::rngs::SmallRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of an in-flight query: a generational key into its lane's
/// slab, so events referencing resolved queries miss instead of aliasing a
/// recycled slot. Unique per lane, not across lanes.
pub(crate) type QueryId = u64;

/// Identifier of an in-flight update propagation (same slab-key scheme).
pub(crate) type UpdateId = u64;

/// An event on a lane's virtual-time queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NetEvent {
    /// A message of an in-flight query lands at its destination: advance
    /// that query's state machine by one step (an arrival for a query no
    /// longer in flight is ignored).
    MessageArrival {
        /// The query whose message arrived.
        query: QueryId,
    },
    /// An in-flight query's deadline expired: abandon it if still running.
    QueryTimeout {
        /// The query to abandon.
        query: QueryId,
    },
    /// A peer's routing-table maintenance tick comes due: one
    /// [`pdht_overlay::Overlay::maintenance_plan`] (repairs applied at the
    /// pass barrier), then the event reschedules itself one round later (each active peer carries its own
    /// perpetual tick at a fixed, optionally jittered, sub-round offset).
    PeerMaintenance {
        /// The peer whose routing table is probed.
        peer: PeerId,
    },
    /// A peer's TTL eviction sweep comes due (Partial only): purge its
    /// expired entries, then reschedule `purge_stride` rounds later.
    TtlSweep {
        /// The peer whose store is swept.
        peer: PeerId,
    },
    /// A message wave of an in-flight update propagation lands: advance
    /// that update's state machine by one step (route hop or gossip wave;
    /// arrivals for finished propagations are ignored).
    GossipPush {
        /// The propagation whose wave arrived.
        update: UpdateId,
    },
}

/// One phase of a simulated round.
///
/// Phases fire in this order within every round, each at its own sub-round
/// instant: lane events due before a phase's instant dispatch before its
/// serial work, later ones after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RoundPhase {
    /// Peer session transitions; rejoining IndexAll peers pull missed
    /// updates.
    Churn,
    /// Routing-table probe maintenance at the calibrated rate.
    OverlayMaintenance,
    /// Staggered TTL eviction sweep (Partial only).
    PurgeExpired,
    /// Content replacement plus (IndexAll) update propagation.
    ContentUpdates,
    /// The round's query workload through the full pipeline.
    Queries,
    /// Adaptive-TTL adjustment, gauges, and the metrics round mark.
    Bookkeeping,
}

/// Every phase in firing order.
const PHASES: [RoundPhase; 6] = [
    RoundPhase::Churn,
    RoundPhase::OverlayMaintenance,
    RoundPhase::PurgeExpired,
    RoundPhase::ContentUpdates,
    RoundPhase::Queries,
    RoundPhase::Bookkeeping,
];

/// µs of virtual time between consecutive phase instants within a round.
/// The gap leaves room for the per-peer background events *after* their
/// phase marker, so a phase's serial work runs before any of that phase's
/// per-peer work dispatches.
pub(crate) const PHASE_SPACING_US: u64 = 10;

/// Offset (µs past the round start) of the [`RoundPhase::Queries`] instant —
/// the query phase issues its merged batches at exactly this time.
pub(crate) const QUERIES_OFFSET_US: u64 = 4 * PHASE_SPACING_US;

/// Base offset (µs past the round start) of every
/// [`NetEvent::PeerMaintenance`] event: one tick after the
/// [`RoundPhase::OverlayMaintenance`] marker.
const MAINTENANCE_OFFSET_US: u64 = PHASE_SPACING_US + 1;

/// Base offset of every [`NetEvent::TtlSweep`] event: one tick after the
/// [`RoundPhase::PurgeExpired`] marker.
const TTL_SWEEP_OFFSET_US: u64 = 2 * PHASE_SPACING_US + 1;

/// A peer's fixed scheduling offset in `[0, bound]` µs — a SplitMix64 hash
/// of `(seed, salt)` ([`pdht_types::mix64`]), so jittered schedules stay
/// deterministic per seed without consuming any component RNG stream.
fn peer_jitter_us(seed: u64, salt: u64, bound_us: u64) -> u64 {
    if bound_us == 0 {
        return 0;
    }
    pdht_types::mix64(seed, salt) % (bound_us + 1)
}

/// Everything a lane pass reads and never writes: the configuration, the
/// key universe, the substrates, the processes, and the partition maps.
/// Workers share one `&World` during a pass; it is mutated only in the
/// serial sections between passes (churn, content replacement, repair
/// application, the adaptive-TTL flush).
pub(crate) struct World {
    pub(crate) cfg: PdhtConfig,
    /// Dense key index → routed key.
    pub(crate) keys: Vec<Key>,
    /// Dense key index → owning article.
    pub(crate) article_of: Vec<u32>,
    /// Article → its key indices.
    pub(crate) keys_by_article: Vec<Vec<u32>>,
    pub(crate) churn: ChurnModel,
    /// The structured overlay over the first `nap` peers, chosen from
    /// [`PdhtConfig::overlay`] (`None` when no index is maintained).
    pub(crate) overlay: Option<Box<dyn Overlay>>,
    pub(crate) nap: usize,
    /// One replica group per overlay partition group.
    pub(crate) groups: Vec<ReplicaGroup>,
    /// The unstructured overlay over all peers.
    pub(crate) topo: Topology,
    /// Content placement per article.
    pub(crate) content: Replication,
    pub(crate) updates: UpdateProcess,
    pub(crate) workload: QueryWorkload,
    /// Current keyTtl in rounds (fixed policies keep it constant).
    pub(crate) ttl_rounds: u64,
    /// Per-entry probe rate calibrated to `env·log2(nap)` per peer.
    pub(crate) probe_rate: f64,
    /// Per-hop delay model built from [`PdhtConfig::latency`].
    pub(crate) latency: Box<dyn LatencyModel>,
    /// Shard → its contiguous origin range `[lo, hi)` of peers.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// Replica group → owning shard (empty without an overlay).
    pub(crate) group_shard: Vec<u16>,
}

impl World {
    /// Who is online right now.
    pub(crate) fn live(&self) -> &Liveness {
        self.churn.liveness()
    }
}

/// The assembled network: the shared `World`, the lanes that execute
/// against it, and the serial engine state around them.
pub struct PdhtNetwork {
    pub(crate) world: World,
    /// Per-active-peer TTL stores plus distinct-key accounting, one region
    /// per lane.
    pub(crate) peers: PeerStores,
    pub(crate) adaptive: Option<AdaptiveTtl>,
    pub(crate) metrics: Metrics,
    /// The round the next `step_round` executes.
    pub(crate) next_round: Round,
    /// Events dispatched over the whole run — phase markers plus every
    /// lane event (the O(active-work) regression gauge: per-round deltas
    /// must track transitions/queries/background events, not the total
    /// population).
    pub(crate) events_dispatched: u64,
    /// Engine-side stream picking update entry peers when several lanes
    /// share the deal.
    pub(crate) rng_overlay: SmallRng,
    pub(crate) rng_updates: SmallRng,
    /// Cumulative outcome counters (lane counters merge in here at the
    /// bookkeeping barrier).
    pub(crate) counters: Counters,
    /// `(hits, misses)` already flushed to the adaptive-TTL controller —
    /// the bookkeeping phase feeds it the delta since the previous round.
    pub(crate) adaptive_seen: (u64, u64),
    /// The lanes: every per-peer and per-message event, every in-flight
    /// context and every per-lane RNG stream lives here (one lane at
    /// `cfg.shards = 1`).
    pub(crate) shards: ShardedState,
    /// Reusable churn-transition buffer (steady-state churn allocates
    /// nothing).
    pub(crate) churn_buf: Vec<(PeerId, bool)>,
    /// Opt-in per-phase wall-clock accounting (the scale bench's
    /// serial-fraction probe); `None` keeps clock reads off the hot paths.
    pub(crate) phase_timers: Option<PhaseBreakdown>,
}

/// Opt-in wall-clock breakdown of round execution, split into the buckets
/// that matter for shard scaling: parallel pool time (queries,
/// background-event drains) versus serial sections (churn, barriers) —
/// the serial fraction bounds the achievable speedup. Enabled via
/// [`PdhtNetwork::enable_phase_timers`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Serial churn phase (session transitions + rejoin pulls).
    pub churn: Duration,
    /// Parallel pool time generating and executing queries.
    pub queries: Duration,
    /// Parallel pool time draining background events (maintenance, TTL
    /// sweeps, update waves).
    pub background: Duration,
    /// Serial barrier work: outbox merges, repair application, the serial
    /// slice of the content-update phase, and the bookkeeping phase (both
    /// lane folds, gauges, the round mark, the adaptive-TTL flush).
    pub barriers: Duration,
}

impl PhaseBreakdown {
    /// Fraction of the accounted wall-clock spent in serial sections —
    /// Amdahl's ceiling on shard-parallel speedup.
    pub fn serial_fraction(&self) -> f64 {
        let serial = self.churn + self.barriers;
        let total = serial + self.queries + self.background;
        if total.is_zero() {
            0.0
        } else {
            serial.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// Cumulative query-outcome counters. Plain sums, so per-shard lanes
/// accumulate privately and merge commutatively at the round barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Queries handed to a lane, counted before the offline check — the
    /// total [`PdhtNetwork::check_outcomes`] splits into outcomes.
    pub(crate) issued: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) stale_hits: u64,
    pub(crate) lookup_failures: u64,
    pub(crate) search_failures: u64,
    pub(crate) skipped_offline: u64,
    pub(crate) query_timeouts: u64,
    /// Gossip receives that taught the receiver something (new version,
    /// new chunk, or a decoder-rank gain, per [`crate::GossipCodec`]).
    pub(crate) gossip_innovative: u64,
    /// Gossip receives that carried nothing new — wasted bandwidth.
    pub(crate) gossip_redundant: u64,
    /// Bytes gossip waves put on the wire (codec-weighted pushes plus
    /// anti-entropy pull transfers — the byte-accurate cost model).
    pub(crate) gossip_bytes: u64,
}

impl Counters {
    /// Adds another counter set into this one (the shard-merge fold).
    pub(crate) fn merge_from(&mut self, other: &Counters) {
        self.issued += other.issued;
        self.hits += other.hits;
        self.misses += other.misses;
        self.stale_hits += other.stale_hits;
        self.lookup_failures += other.lookup_failures;
        self.search_failures += other.search_failures;
        self.skipped_offline += other.skipped_offline;
        self.query_timeouts += other.query_timeouts;
        self.gossip_innovative += other.gossip_innovative;
        self.gossip_redundant += other.gossip_redundant;
        self.gossip_bytes += other.gossip_bytes;
    }
}

/// Aggregated results over a round window.
///
/// Derives `PartialEq` so determinism tests can assert bit-identical
/// reports across thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// The window `[from, to]` in rounds.
    pub rounds: (u64, u64),
    /// Mean total messages per round.
    pub msgs_per_round: f64,
    /// Mean messages per round by kind.
    pub by_kind: Vec<(MessageKind, f64)>,
    /// Measured fraction of queries answered from the index.
    pub p_indexed: f64,
    /// Mean distinct keys resident in the index.
    pub indexed_keys: f64,
    /// Mean availability over the window.
    pub availability: f64,
    /// Queries whose broadcast search failed, within the window.
    pub search_failures: u64,
    /// Queries whose index routing failed, within the window.
    pub lookup_failures: u64,
    /// Hits that returned a stale version, within the window.
    pub stale_hits: u64,
    /// Queries skipped because their origin was offline, within the
    /// window.
    pub skipped_offline: u64,
    /// In-flight queries abandoned by timeout, within the window (always 0
    /// without a configured `query_timeout_secs`).
    pub query_timeouts: u64,
    /// Update-gossip receives classified innovative, within the window
    /// (see [`crate::GossipCodec`]).
    pub gossip_innovative: u64,
    /// Update-gossip receives classified redundant, within the window —
    /// the wave bandwidth that taught nobody anything.
    pub gossip_redundant: u64,
    /// Wasted gossip bandwidth: `redundant / (innovative + redundant)`
    /// over the window, `0.0` when no gossip receive was classified.
    pub wasted_bandwidth: f64,
    /// Bytes update-gossip waves put on the wire within the window:
    /// codec-weighted pushes (value fraction + offer bitmap / coefficient
    /// vector) plus anti-entropy pull transfers.
    pub gossip_bytes: u64,
    /// Mean gossip bytes per round over the window — the bytes-per-round
    /// column beside `msgs_per_round`.
    pub gossip_bytes_per_round: f64,
    /// Per-completed-wave redundant-receive counts, cumulative over the
    /// whole run so far — histograms are not windowed.
    pub gossip_wave_redundant: Option<HistogramSummary>,
    /// Per-completed-wave wire bytes, cumulative over the whole run so
    /// far — histograms are not windowed.
    pub gossip_wave_bytes: Option<HistogramSummary>,
    /// Per-query forwarding steps (message hops/waves), cumulative over the
    /// whole run so far — histograms are not windowed.
    pub query_hops: Option<HistogramSummary>,
    /// Per-query virtual-time latency in microseconds, cumulative over the
    /// whole run so far. Timed-out queries are included, censored at their
    /// abandonment instant. All-zero under [`crate::LatencyConfig::Zero`].
    pub query_latency_us: Option<HistogramSummary>,
}

impl SimReport {
    /// Mean messages per round excluding the entry messages the analytical
    /// model does not price.
    pub fn msgs_per_round_model_view(&self) -> f64 {
        let entry: f64 = self
            .by_kind
            .iter()
            .filter(|(k, _)| *k == MessageKind::QueryEntry)
            .map(|&(_, v)| v)
            .sum();
        self.msgs_per_round - entry
    }
}

impl PdhtNetwork {
    /// Builds the network.
    ///
    /// # Errors
    /// Propagates configuration/model/substrate construction failures.
    pub fn new(cfg: PdhtConfig) -> Result<PdhtNetwork> {
        cfg.validate()?;
        let streams = RngStreams::new(cfg.seed);
        let mut rng_build = streams.stream("build");
        let s = &cfg.scenario;
        let num_peers = s.num_peers as usize;
        let num_keys = s.keys as usize;

        // Synthetic key universe: hashed dense indices.
        let keys: Vec<Key> = (0..s.keys).map(Key::of_index).collect();
        let kpa = cfg.keys_per_article as usize;
        let num_articles = num_keys.div_ceil(kpa);
        let article_of: Vec<u32> = (0..num_keys).map(|i| (i / kpa) as u32).collect();
        let mut keys_by_article: Vec<Vec<u32>> = vec![Vec::with_capacity(kpa); num_articles];
        for (i, &a) in article_of.iter().enumerate() {
            keys_by_article[a as usize].push(i as u32);
        }

        // Active-peer population per strategy.
        let cost = CostModel::new(s);
        let nap = match cfg.strategy {
            Strategy::NoIndex => 0,
            Strategy::IndexAll => cost.num_active_peers(f64::from(s.keys)) as usize,
            Strategy::Partial => {
                let ttl_for_sizing = match cfg.ttl_policy {
                    TtlPolicy::Fixed(t) => t as f64,
                    TtlPolicy::FromModel { factor } => model_key_ttl(s, cfg.f_qry)? * factor,
                    TtlPolicy::Adaptive { .. } => model_key_ttl(s, cfg.f_qry)?,
                };
                let sel = SelectionModel::evaluate_with_ttl(s, cfg.f_qry, ttl_for_sizing)?;
                cost.num_active_peers(sel.index_size) as usize
            }
        };

        // Structured side: the substrate is chosen at runtime from the
        // configuration — everything downstream sees only `dyn Overlay`.
        let (overlay, groups) = if nap >= 2 {
            let overlay: Box<dyn Overlay> = match cfg.overlay {
                OverlayKind::Trie => {
                    Box::new(TrieOverlay::build(nap, s.repl as usize, &mut rng_build)?)
                }
                OverlayKind::Chord => {
                    Box::new(ChordOverlay::build(nap, s.repl as usize, &mut rng_build)?)
                }
                OverlayKind::Kademlia => {
                    Box::new(KademliaOverlay::build(nap, s.repl as usize, &mut rng_build)?)
                }
            };
            let mut groups = Vec::with_capacity(overlay.group_count());
            for g in 0..overlay.group_count() {
                groups.push(ReplicaGroup::new(overlay.group_members(g).to_vec(), &mut rng_build)?);
            }
            (Some(overlay), groups)
        } else {
            (None, Vec::new())
        };

        // IndexAll preloads every key at its whole replica group: each
        // group's keys as one ascending run of dense indices, from one pass
        // over the keys. Store capacity: `stor`, raised if the overlay's
        // group rounding (or hash skew) makes a group's key load exceed it
        // (see module docs) — the *actual* largest run, not the average:
        // hashed keys spread with Poisson fluctuation.
        let group_runs: Vec<Vec<u32>> = match (&overlay, cfg.strategy) {
            (Some(o), Strategy::IndexAll) => {
                let mut runs = vec![Vec::new(); o.group_count()];
                for (i, &key) in keys.iter().enumerate() {
                    runs[o.group_of_key(key)].push(i as u32);
                }
                runs
            }
            _ => Vec::new(),
        };
        let max_group_load = group_runs.iter().map(Vec::len).max().unwrap_or(0);
        let store_capacity = match cfg.strategy {
            Strategy::IndexAll => (s.stor as usize).max(max_group_load + 8),
            _ => s.stor as usize,
        };
        // The lanes: `cfg.shards` is a semantic knob, capped by the
        // population so every shard owns at least one peer. Lanes and peer
        // stores are allocated *before* the topology and the processes:
        // building them later moved `setup_s` by +18 % on `gossip_coded`
        // (DESIGN.md §8.0.3), so the stores are laid out from the local
        // partition maps instead of a finished `World`.
        let num_shards = (cfg.shards as usize).clamp(1, num_peers.max(1));
        let (ranges, group_shard) = partition_maps(num_shards, s.num_peers, overlay.as_deref());
        let shards = ShardedState::new(num_shards, s.num_peers, &streams, cfg.admission);
        let store_lanes: Vec<u16> = (0..nap)
            .map(|p| store_lane(&ranges, &group_shard, overlay.as_deref(), PeerId::from_idx(p)))
            .collect();
        let mut peers = PeerStores::new(&store_lanes, num_shards, store_capacity, num_keys);
        // IndexAll stores hold exactly their group's keys from the preload
        // on, so every member shares its group's run as its key column and
        // holds only its own versions — filled group by group, member by
        // member, where the stores are laid out, below the topology.
        if let Some(o) = &overlay {
            for (group, run) in group_runs.into_iter().enumerate() {
                let run: Arc<[u32]> = run.into();
                for &member in o.group_members(group) {
                    peers.preload(member, &run, 1);
                }
            }
        }

        // Unstructured side.
        let topo = Topology::random(num_peers, cfg.mean_degree, &mut rng_build)?;
        let content = Replication::place(num_articles, s.repl as usize, num_peers, &mut rng_build)?;

        // Processes. Each churn shard draws from its own stream, so shard
        // calendars evolve independently of each other.
        let mut churn_init: Vec<SmallRng> =
            (0..num_shards).map(|i| lane_stream(&streams, "churn", i, num_shards)).collect();
        let churn = ChurnModel::new_sharded(
            num_peers,
            cfg.churn,
            (0..s.num_peers).map(|p| origin_lane(&ranges, PeerId(p))).collect(),
            &mut churn_init,
        );
        let updates = UpdateProcess::new(num_articles, 1.0 / s.f_upd.max(1e-12))?;
        let workload =
            QueryWorkload::new(num_keys, s.alpha, s.num_peers, cfg.f_qry, cfg.shift.clone())?;

        // TTL policy.
        let model_ttl = model_key_ttl(s, cfg.f_qry)?;
        let (ttl_rounds, adaptive) = match cfg.ttl_policy {
            TtlPolicy::Fixed(t) => (t.max(1), None),
            TtlPolicy::FromModel { factor } => (((model_ttl * factor).round() as u64).max(1), None),
            TtlPolicy::Adaptive { target_hit_rate } => {
                let ctl = AdaptiveTtl::new(model_ttl, target_hit_rate, cfg.adaptive_window);
                (ctl.ttl_rounds(), Some(ctl))
            }
        };

        // Probe-rate calibration (see module docs): per-peer maintenance
        // must cost env·log2(nap) messages per second.
        let probe_rate = match &overlay {
            Some(o) if nap > 1 => {
                let total_entries: usize =
                    (0..nap).map(|p| o.routing_entries(PeerId::from_idx(p))).sum();
                let avg = total_entries as f64 / nap as f64;
                if avg > 0.0 {
                    (s.env * (nap as f64).log2() / avg).min(1.0)
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };

        let world = World {
            latency: cfg.latency.build(),
            cfg,
            keys,
            article_of,
            keys_by_article,
            churn,
            overlay,
            nap,
            groups,
            topo,
            content,
            updates,
            workload,
            ttl_rounds,
            probe_rate,
            ranges,
            group_shard,
        };
        let mut net = PdhtNetwork {
            world,
            peers,
            adaptive,
            metrics: Metrics::new(),
            next_round: Round(0),
            events_dispatched: 0,
            rng_overlay: streams.stream("overlay"),
            rng_updates: streams.stream("updates"),
            counters: Counters::default(),
            adaptive_seen: (0, 0),
            shards,
            churn_buf: Vec::new(),
            phase_timers: None,
        };
        net.schedule_background();
        Ok(net)
    }

    /// Seeds the perpetual per-peer background events: one
    /// [`NetEvent::PeerMaintenance`] per active peer per round, and (Partial
    /// only) one [`NetEvent::TtlSweep`] per active peer per `purge_stride`
    /// rounds, staggered so cohort `p % stride` sweeps in round
    /// `r ≡ p (mod stride)` — the same stagger the phase sweep used. Each
    /// event reschedules itself, so the queues carry a steady `O(nap)`
    /// background population instead of the engine sweeping all peers
    /// inside a phase handler.
    ///
    /// Offsets: with zero jitter (the default), every maintenance event
    /// fires at its round's `OverlayMaintenance` instant and every sweep at
    /// the `PurgeExpired` instant, in ascending peer order — which makes
    /// one lane consume the component RNG streams in exactly the order the
    /// phase sweeps did, keeping `LatencyConfig::Zero` accounting
    /// bit-for-bit identical. Non-zero jitter gives each peer a fixed
    /// hashed offset inside its round.
    ///
    /// Each event lives on its owning lane's queue — maintenance ticks at
    /// the peer's origin shard (they touch only the shared tables and the
    /// lane's streams), TTL sweeps at the shard owning the peer's store —
    /// so every dispatch is lane-local.
    fn schedule_background(&mut self) {
        let World { cfg, overlay, nap, ranges, group_shard, .. } = &self.world;
        let (jitter, seed) = (cfg.background, cfg.seed);
        if overlay.is_some() {
            for p in 0..*nap {
                let offset = MAINTENANCE_OFFSET_US
                    + peer_jitter_us(seed, 0xA11C_E000 + p as u64, jitter.maintenance_jitter_us);
                let lane = usize::from(origin_lane(ranges, PeerId::from_idx(p)));
                self.shards.lanes[lane].events.schedule_at(
                    Round(0).start() + SimTime::from_micros(offset),
                    NetEvent::PeerMaintenance { peer: PeerId::from_idx(p) },
                );
            }
        }
        if cfg.strategy == Strategy::Partial {
            let stride = cfg.purge_stride;
            for p in 0..*nap {
                let peer = PeerId::from_idx(p);
                let first = Round(p as u64 % stride);
                let offset = TTL_SWEEP_OFFSET_US
                    + peer_jitter_us(seed, 0x77E0_0000 + p as u64, jitter.ttl_jitter_us);
                let lane = usize::from(store_lane(ranges, group_shard, overlay.as_deref(), peer));
                self.shards.lanes[lane].events.schedule_at(
                    first.start() + SimTime::from_micros(offset),
                    NetEvent::TtlSweep { peer },
                );
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PdhtConfig {
        &self.world.cfg
    }

    /// Peers participating in the structured overlay.
    pub fn num_active_peers(&self) -> usize {
        self.world.nap
    }

    /// Current keyTtl in rounds.
    pub fn ttl_rounds(&self) -> u64 {
        self.world.ttl_rounds
    }

    /// Distinct keys currently resident in the index.
    pub fn indexed_keys(&self) -> usize {
        self.peers.distinct_keys()
    }

    /// Heap bytes the peers' index stores hold (allocated entry columns).
    pub fn store_bytes(&self) -> usize {
        self.peers.heap_bytes()
    }

    /// Heap bytes the run's scratch holds — what exists for work in
    /// flight rather than stored state: every lane's event queue, wave
    /// pool, in-flight slabs and outbox, plus the deal box and the barrier
    /// merge buffers, each at its retained capacity.
    pub fn scratch_bytes(&self) -> usize {
        let ShardedState { lanes, deal, merge, .. } = &self.shards;
        let lanes: usize = lanes
            .iter()
            .map(|l| {
                l.events.heap_bytes()
                    + l.waves.heap_bytes()
                    + l.inflight.heap_bytes()
                    + l.updates_inflight.heap_bytes()
                    + l.outbox.heap_bytes()
            })
            .sum();
        lanes + deal.heap_bytes() + merge.heap_bytes()
    }

    /// Direct access to the metrics (read-only).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Next round to execute.
    pub fn next_round(&self) -> u64 {
        self.next_round.0
    }

    /// Failure injection: knocks a uniform `fraction` of all peers offline
    /// at once; they rejoin through the configured churn process.
    pub fn force_blackout(&mut self, fraction: f64) {
        self.world.churn.force_blackout(fraction, &mut self.shards.churn_rngs[0]);
    }

    /// Queries currently in flight (always 0 when every hop delay is zero).
    pub fn queries_in_flight(&self) -> usize {
        self.shards.lanes.iter().map(|l| l.inflight.len()).sum()
    }

    /// Query-outcome conservation between rounds (lanes folded): every
    /// issued query was skipped (origin offline), ended as a hit or a miss
    /// (timeouts are misses), failed a NoIndex broadcast (which counts as
    /// neither), or is still in flight; and every query that ended entered
    /// the `query_hops` histogram once. `Err` names the broken law.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn check_outcomes(&self) -> std::result::Result<(), String> {
        let c = &self.counters;
        let no_index = self.world.cfg.strategy == Strategy::NoIndex;
        let failed = if no_index { c.search_failures } else { 0 };
        let in_flight = self.queries_in_flight() as u64;
        let accounted = c.skipped_offline + c.hits + c.misses + failed + in_flight;
        if c.issued != accounted {
            return Err(format!(
                "{} queries issued, {accounted} accounted: {} skipped + {} hits + {} misses \
                 + {failed} failed + {in_flight} in flight",
                c.issued, c.skipped_offline, c.hits, c.misses
            ));
        }
        let ended = c.issued - c.skipped_offline - in_flight;
        let observed = self.metrics.histogram("query_hops").map_or(0, pdht_sim::Histogram::count);
        if observed != ended {
            return Err(format!("{ended} queries ended, {observed} in the query_hops histogram"));
        }
        Ok(())
    }

    /// Number of execution shards (lanes).
    pub fn shards(&self) -> usize {
        self.shards.lanes.len()
    }

    /// Sets how many OS threads execute the lane passes. Purely an executor
    /// knob: simulation results depend only on [`PdhtConfig::shards`],
    /// never on the thread count, so any value yields bit-identical output
    /// (a single lane runs inline on the calling thread whatever the
    /// count).
    pub fn set_threads(&mut self, threads: usize) {
        self.shards.pool.set_threads(threads);
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.shards.pool.threads()
    }

    /// Update propagations currently in flight (always 0 when every hop
    /// delay is zero), summed over the lanes like
    /// [`PdhtNetwork::queries_in_flight`].
    pub fn updates_in_flight(&self) -> usize {
        self.shards.lanes.iter().map(|l| l.updates_inflight.len()).sum()
    }

    /// Starts collecting the per-phase wall-clock breakdown (a scale-bench
    /// probe; off by default so the hot paths never read the clock).
    pub fn enable_phase_timers(&mut self) {
        self.phase_timers = Some(PhaseBreakdown::default());
    }

    /// The wall-clock breakdown accumulated since
    /// [`PdhtNetwork::enable_phase_timers`] (`None` unless enabled).
    pub fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        self.phase_timers
    }

    /// Total events dispatched so far (phase markers plus lane events, as
    /// of the last completed round). Scale
    /// experiments assert the per-round delta scales with *active work*
    /// (background events, churn transitions, in-flight messages), not
    /// with the total population.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// `(slots, acquires)` summed over every lane's wave pool: the arena
    /// high-water mark versus the number of waves that ran. Test hook for
    /// the no-per-query-allocation invariant — `slots` must stay O(max
    /// concurrent waves) while `acquires` grows with every flood/rumor.
    #[doc(hidden)]
    pub fn wave_pool_stats(&self) -> (usize, u64) {
        self.shards
            .lanes
            .iter()
            .fold((0, 0), |(slots, acq), l| (slots + l.waves.slots(), acq + l.waves.acquires()))
    }

    /// Runs `n` rounds.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step_round();
        }
    }

    /// Executes one round: walks the six phase markers in order, each one
    /// its serial work, then a parallel drain of the lanes up to the next
    /// marker. Message arrivals of in-flight queries
    /// interleave with the phases at their own instants; arrivals falling
    /// beyond the round boundary stay parked and fire in the round they
    /// belong to.
    pub fn step_round(&mut self) {
        let round = self.next_round;
        for (index, phase) in PHASES.into_iter().enumerate() {
            // A marker counts as one dispatched event, like any lane event.
            self.events_dispatched += 1;
            self.run_phase(index, phase, round);
        }
        self.next_round = round.next();
    }

    /// One phase: its serial work, then the lane pass that drains every
    /// lane up to one tick before the next marker — so per-peer background
    /// events fire *after* their phase's marker (`OverlayMaintenance`
    /// and `PurgeExpired` are pure calibration boundaries with no serial
    /// work of their own).
    fn run_phase(&mut self, index: usize, phase: RoundPhase, round: Round) {
        let t0 = self.phase_timers.is_some().then(Instant::now);
        match phase {
            RoundPhase::Churn => self.phase_churn(round.0),
            RoundPhase::OverlayMaintenance | RoundPhase::PurgeExpired => {}
            RoundPhase::ContentUpdates => self.phase_content_updates(round.0),
            RoundPhase::Queries => self.generate_queries(round.0),
            RoundPhase::Bookkeeping => {
                self.fold_lanes();
                self.phase_bookkeeping(round.0);
            }
        }
        if let (Some(t0), Some(tm)) = (t0, self.phase_timers.as_mut()) {
            match phase {
                RoundPhase::Churn => tm.churn += t0.elapsed(),
                RoundPhase::ContentUpdates | RoundPhase::Bookkeeping => tm.barriers += t0.elapsed(),
                RoundPhase::Queries => tm.queries += t0.elapsed(),
                RoundPhase::OverlayMaintenance | RoundPhase::PurgeExpired => {}
            }
        }

        let (last, queries) = (phase == RoundPhase::Bookkeeping, phase == RoundPhase::Queries);
        // PIN(one-lane): with several lanes the query pass runs through to
        // the round boundary and Bookkeeping marks the round after it
        // (pinned by the `route_event` / `loaded_mix` fingerprints); one
        // lane stops at the Bookkeeping marker like every other pass, so
        // the round is marked *before* the jittered ticks and sweeps in its
        // tail (pinned by the `walk_miss` fingerprint and
        // `jittered_ticks_land_on_the_pinned_side_of_each_round_mark`).
        let to_boundary = last || (queries && self.shards.lanes.len() > 1);
        let deadline = if to_boundary {
            // `pop_until` is inclusive and `round.end()` is the next
            // round's start: an event parked exactly on the boundary
            // belongs to the next round and must not fire in this one.
            round.end() - SimTime::from_micros(1)
        } else {
            round.start() + SimTime::from_micros((index as u64 + 1) * PHASE_SPACING_US - 1)
        };
        // The last pass parks every lane clock on the boundary and folds
        // the tail's accounting, so counters and `events_dispatched` are
        // current when the round returns.
        self.lane_pass(deadline, last.then_some(round.end()), queries);
        if last {
            let t0 = self.phase_timers.is_some().then(Instant::now);
            self.fold_lanes();
            if let (Some(t0), Some(tm)) = (t0, self.phase_timers.as_mut()) {
                tm.barriers += t0.elapsed();
            }
        }
    }

    /// Adaptive-TTL adjustment, gauges, and the round's metrics mark.
    fn phase_bookkeeping(&mut self, round: u64) {
        if let Some(ctl) = &mut self.adaptive {
            // Flush the hit/miss delta accumulated since the last flush.
            // The controller only counts, so batching a round's outcomes
            // here is exactly the per-outcome `observe` calls it replaces —
            // and it lets shard lanes count privately between barriers.
            let (seen_hits, seen_misses) = self.adaptive_seen;
            ctl.observe_n(self.counters.hits - seen_hits, self.counters.misses - seen_misses);
            self.adaptive_seen = (self.counters.hits, self.counters.misses);
            if ctl.end_round() {
                self.world.ttl_rounds = ctl.ttl_rounds();
            }
        }
        self.metrics.gauge("indexed_keys", Round(round), self.peers.distinct_keys() as f64);
        self.metrics.gauge("availability", Round(round), self.world.live().availability());
        self.metrics.gauge("hits", Round(round), self.counters.hits as f64);
        self.metrics.gauge("misses", Round(round), self.counters.misses as f64);
        self.metrics.gauge("search_failures", Round(round), self.counters.search_failures as f64);
        self.metrics.gauge("lookup_failures", Round(round), self.counters.lookup_failures as f64);
        self.metrics.gauge("stale_hits", Round(round), self.counters.stale_hits as f64);
        self.metrics.gauge("skipped_offline", Round(round), self.counters.skipped_offline as f64);
        self.metrics.gauge("query_timeouts", Round(round), self.counters.query_timeouts as f64);
        self.metrics.gauge(
            "gossip_innovative",
            Round(round),
            self.counters.gossip_innovative as f64,
        );
        self.metrics.gauge("gossip_redundant", Round(round), self.counters.gossip_redundant as f64);
        self.metrics.gauge("gossip_bytes", Round(round), self.counters.gossip_bytes as f64);
        self.metrics.gauge("ttl_rounds", Round(round), self.world.ttl_rounds as f64);
        self.metrics.mark_round(Round(round));
    }

    /// Aggregates a report over rounds `[from, to]` (inclusive; rounds must
    /// already have run).
    ///
    /// # Panics
    /// Panics if the window was not simulated.
    pub fn report(&self, from: u64, to: u64) -> SimReport {
        let counts = self
            .metrics
            .counts_between(Round(from), Round(to))
            .expect("window must have been simulated");
        let span = (to - from + 1) as f64;
        let by_kind: Vec<(MessageKind, f64)> =
            counts.iter().map(|(k, v)| (k, v as f64 / span)).collect();
        let hits = Self::gauge_window_delta(&self.metrics, "hits", from, to);
        let misses = Self::gauge_window_delta(&self.metrics, "misses", from, to);
        let answered = hits + misses;
        let innovative = Self::gauge_window_delta(&self.metrics, "gossip_innovative", from, to);
        let redundant = Self::gauge_window_delta(&self.metrics, "gossip_redundant", from, to);
        let gossip_bytes = Self::gauge_window_delta(&self.metrics, "gossip_bytes", from, to);
        SimReport {
            rounds: (from, to),
            msgs_per_round: counts.total() as f64 / span,
            by_kind,
            p_indexed: if answered > 0.0 { hits / answered } else { 0.0 },
            indexed_keys: self
                .metrics
                .gauge_mean("indexed_keys", Round(from), Round(to))
                .unwrap_or(0.0),
            availability: self
                .metrics
                .gauge_mean("availability", Round(from), Round(to))
                .unwrap_or(1.0),
            search_failures: Self::gauge_window_delta(&self.metrics, "search_failures", from, to)
                as u64,
            lookup_failures: Self::gauge_window_delta(&self.metrics, "lookup_failures", from, to)
                as u64,
            stale_hits: Self::gauge_window_delta(&self.metrics, "stale_hits", from, to) as u64,
            skipped_offline: Self::gauge_window_delta(&self.metrics, "skipped_offline", from, to)
                as u64,
            query_timeouts: Self::gauge_window_delta(&self.metrics, "query_timeouts", from, to)
                as u64,
            gossip_innovative: innovative as u64,
            gossip_redundant: redundant as u64,
            wasted_bandwidth: if innovative + redundant > 0.0 {
                redundant / (innovative + redundant)
            } else {
                0.0
            },
            gossip_bytes: gossip_bytes as u64,
            gossip_bytes_per_round: gossip_bytes / span,
            gossip_wave_redundant: self
                .metrics
                .histogram("gossip_wave_redundant")
                .map(pdht_sim::Histogram::summary),
            gossip_wave_bytes: self
                .metrics
                .histogram("gossip_wave_bytes")
                .map(pdht_sim::Histogram::summary),
            query_hops: self.metrics.histogram("query_hops").map(pdht_sim::Histogram::summary),
            query_latency_us: self
                .metrics
                .histogram("query_latency_us")
                .map(pdht_sim::Histogram::summary),
        }
    }

    /// Difference of a cumulative gauge across the window (gauges store
    /// cumulative counters sampled per round).
    fn gauge_window_delta(metrics: &Metrics, name: &str, from: u64, to: u64) -> f64 {
        let series = metrics.gauge_series(name);
        let at = |round: u64| -> f64 {
            match series.binary_search_by_key(&Round(round), |&(r, _)| r) {
                Ok(i) => series[i].1,
                Err(0) => 0.0,
                Err(i) => series[i - 1].1,
            }
        };
        let start = if from == 0 { 0.0 } else { at(from - 1) };
        at(to) - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttl::Ttl;
    use pdht_model::Scenario;

    fn cfg(strategy: Strategy, f_qry: f64) -> PdhtConfig {
        // 1 000 peers, 2 000 keys — fast enough for unit tests.
        PdhtConfig::new(Scenario::table1_scaled(20), f_qry, strategy)
    }

    #[test]
    fn builds_for_all_strategies() {
        for strategy in [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex] {
            let net = PdhtNetwork::new(cfg(strategy, 1.0 / 60.0)).expect("buildable");
            match strategy {
                Strategy::NoIndex => assert_eq!(net.num_active_peers(), 0),
                _ => assert!(net.num_active_peers() >= 2),
            }
        }
    }

    #[test]
    fn builds_on_every_overlay() {
        for kind in OverlayKind::ALL {
            let mut c = cfg(Strategy::Partial, 1.0 / 60.0);
            c.overlay = kind;
            let mut net = PdhtNetwork::new(c).expect("buildable");
            net.run(10);
            assert!(net.report(0, 9).msgs_per_round > 0.0);
        }
    }

    #[test]
    fn index_all_preloads_every_key_on_every_overlay() {
        for kind in OverlayKind::ALL {
            let mut c = cfg(Strategy::IndexAll, 1.0 / 60.0);
            c.overlay = kind;
            let net = PdhtNetwork::new(c).unwrap();
            assert_eq!(net.indexed_keys(), 2_000, "{kind:?}");
            assert_eq!(net.peers.check_copies(), Ok(()), "{kind:?}");
        }
    }

    /// The key-major preload the build ran before the group-major fill
    /// and the shared runs:
    /// every member's store sized to its group's load, group by group,
    /// then every key filed at each member of its group — one searched
    /// insert per entry, keys in ascending index order.
    fn key_major_preload(net: &PdhtNetwork) -> PeerStores {
        let w = &net.world;
        let o = w.overlay.as_deref().expect("IndexAll builds an overlay");
        let lanes: Vec<u16> = (0..w.nap)
            .map(|p| store_lane(&w.ranges, &w.group_shard, Some(o), PeerId::from_idx(p)))
            .collect();
        let capacity = net.peers.store(PeerId(0)).capacity();
        let mut stores = PeerStores::new(&lanes, net.shards.lanes.len(), capacity, w.keys.len());
        let mut loads = vec![0; o.group_count()];
        for &key in &w.keys {
            loads[o.group_of_key(key)] += 1;
        }
        for (group, &load) in loads.iter().enumerate() {
            for &member in o.group_members(group) {
                stores.reserve(member, load);
            }
        }
        for (i, &key) in w.keys.iter().enumerate() {
            for &member in o.group_members(o.group_of_key(key)) {
                let res = stores.insert(member, i as u32, 1, 0, Ttl::Infinite);
                assert_eq!(res.evicted, None, "the preload fits");
            }
        }
        stores
    }

    /// [`PeerStores::check_layout`] of `net`'s stores: each IndexAll
    /// replica group shares one run — less the peers `crashed` marks, whose
    /// stores the test wiped — and Partial stores own their keys.
    fn check_layout(net: &PdhtNetwork, crashed: &[bool]) -> std::result::Result<(), String> {
        let kept = |p: &&PeerId| !crashed.get(p.idx()).is_some_and(|&c| c);
        let sharing: Option<Vec<Vec<PeerId>>> =
            match (net.world.cfg.strategy, net.world.overlay.as_deref()) {
                (Strategy::IndexAll, Some(o)) => Some(
                    (0..o.group_count())
                        .map(|g| o.group_members(g).iter().filter(kept).copied().collect())
                        .collect(),
                ),
                _ => None,
            };
        net.peers.check_layout(sharing.as_deref())
    }

    #[test]
    fn group_major_preload_equals_the_key_major_reference() {
        // The default shape on every overlay and lane count, plus one
        // replica group holding every active peer (10 peers, repl 50) and
        // groups of one or two members (41 peers, repl 2). Every store must
        // hold what the key-major reference holds, with the replica-copy
        // accounting intact — sharing its group's run where the reference
        // owns exactly sized keys and expiries, so only the versions are
        // its own.
        let default = Scenario::table1_scaled(20);
        let one_group = Scenario { keys: 20, ..default.clone() };
        let tiny_groups = Scenario { keys: 2_050, repl: 2, ..default.clone() };
        for (shape, scenario) in
            [("default", default), ("one_group", one_group), ("tiny", tiny_groups)]
        {
            for kind in OverlayKind::ALL {
                for shards in [1, 4] {
                    let case = format!("{shape} {kind:?} shards={shards}");
                    let mut c = PdhtConfig::new(scenario.clone(), 1.0 / 60.0, Strategy::IndexAll);
                    c.overlay = kind;
                    c.shards = shards;
                    let net = match PdhtNetwork::new(c) {
                        Ok(net) => net,
                        Err(e) => panic!("{case}: rejected: {e}"),
                    };
                    let o = net.world.overlay.as_deref().unwrap();
                    let sizes = (0..o.group_count()).map(|g| o.group_members(g).len());
                    match shape {
                        "one_group" => assert_eq!(o.group_count(), 1, "{case}"),
                        "tiny" => assert!(sizes.min().unwrap() <= 2, "{case}"),
                        _ => {}
                    }
                    let reference = key_major_preload(&net);
                    let mut resident = 0;
                    for peer in (0..net.world.nap).map(PeerId::from_idx) {
                        let (got, want) = (net.peers.store(peer), reference.store(peer));
                        assert!(got.iter().eq(want.iter()), "{case}: {peer:?} holds other entries");
                        let keys_and_expiries = 8 * got.len();
                        assert_eq!(
                            got.heap_bytes() + keys_and_expiries,
                            want.heap_bytes(),
                            "{case}: {peer:?}"
                        );
                        resident += got.len();
                    }
                    let keys = net.world.keys.len();
                    assert_eq!(net.store_bytes(), 4 * (resident + keys), "{case}");
                    assert_eq!(reference.heap_bytes(), 12 * resident, "{case}");
                    assert_eq!(check_layout(&net, &[]), Ok(()), "{case}");
                    assert_eq!(net.indexed_keys(), reference.distinct_keys(), "{case}");
                    assert_eq!(net.indexed_keys(), net.world.keys.len(), "{case}");
                    assert_eq!(net.peers.check_copies(), Ok(()), "{case}");
                }
            }
        }
    }

    #[test]
    fn index_all_stores_cost_what_they_hold() {
        // 4 B per resident entry (its u32 version) plus 4 B per key (its
        // u32 index, once in its group's shared run). Owned keys and a u32
        // expiry per entry cost 12 B per entry, u64 version and expiry
        // 20 B, storing the derivable routed key and payload too 36 B, a
        // per-peer hash table ~130 B.
        for kind in OverlayKind::ALL {
            let mut c = cfg(Strategy::IndexAll, 1.0 / 60.0);
            c.overlay = kind;
            let net = PdhtNetwork::new(c).unwrap();
            let o = net.world.overlay.as_deref().unwrap();
            let resident: usize =
                net.world.keys.iter().map(|&k| o.group_members(o.group_of_key(k)).len()).sum();
            assert!(resident >= 2 * 2_000, "{kind:?}: groups replicate");
            assert_eq!(net.store_bytes(), 4 * resident + 4 * 2_000, "{kind:?}");
        }
    }

    #[test]
    fn store_copies_are_conserved_every_round() {
        // The replica-copy accounting against a recount of the stores, and
        // the query outcomes against the issued count, after every round of
        // a loaded run: query inserts, evictions and TTL sweeps, fast churn
        // with rejoin pulls, RLNC update waves, non-zero latency, timeouts
        // abandoning queries mid-pipeline. Peers offline at the start lose
        // their stores (a crash that loses state), so IndexAll rejoin pulls
        // add entries instead of only refreshing held ones; every other
        // IndexAll store must keep sharing its group's run through churn,
        // rejoin pulls, coded waves and timeouts. NoIndex builds no
        // overlay and no stores: one overlay kind, outcome check only.
        let mut timeouts = 0;
        for strategy in [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex] {
            let kinds = if strategy == Strategy::NoIndex { 1 } else { OverlayKind::ALL.len() };
            for kind in OverlayKind::ALL.into_iter().take(kinds) {
                for shards in [1, 4] {
                    let mut c = cfg_sharded(strategy, shards);
                    c.overlay = kind;
                    c.scenario.f_upd = 0.05;
                    c.churn = pdht_overlay::ChurnConfig {
                        mean_online_secs: 120.0,
                        mean_offline_secs: 80.0,
                    };
                    c.gossip_codec = crate::GossipCodec::Rlnc;
                    c.latency = crate::LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 200.0 };
                    c.query_timeout_secs = Some(1.0);
                    let mut net = PdhtNetwork::new(c).unwrap();
                    let live = net.world.live();
                    let crashed: Vec<bool> =
                        (0..net.world.nap).map(|p| !live.is_online(PeerId::from_idx(p))).collect();
                    for peer in (0..net.world.nap).map(PeerId::from_idx) {
                        if crashed[peer.idx()] {
                            net.peers.view(peer).purge_expired(peer, u64::MAX);
                        }
                    }
                    for round in 0..20 {
                        net.step_round();
                        let checks = net.peers.check_copies().and(net.check_outcomes());
                        if let Err(e) = checks.and(check_layout(&net, &crashed)) {
                            panic!("{strategy:?} {kind:?} shards={shards} round {round}: {e}");
                        }
                    }
                    assert!(net.counters.issued > net.counters.skipped_offline, "queries ran");
                    timeouts += net.counters.query_timeouts;
                }
            }
        }
        assert!(timeouts > 0, "no query timed out");
    }

    #[test]
    fn run_time_scratch_tracks_live_work() {
        // The loaded shape at test scale: queries with timeouts, churn,
        // maintenance and RLNC waves under latency on four lanes, for a
        // few hundred rounds. Each lane's wheel stays within a quarter of
        // what its most pending events occupy (one arena node each: time,
        // seq, link and the event) plus the fixed bucket table; each wave
        // pool within its slots' members' decoder rows at G = 8 — 32 B a
        // row — plus per-member headers. Per-bucket buffers that keep
        // every batch they ever held, or 32 inline rows per decoder,
        // exceed both.
        const G: usize = 8;
        const BUCKET_TABLE: usize = 11 * 1024;
        const MEMBER_HEADERS: usize = 192;
        let mut c = cfg_sharded(Strategy::IndexAll, 4);
        c.overlay = OverlayKind::Chord;
        c.scenario.f_upd = 0.05;
        c.churn = pdht_overlay::ChurnConfig { mean_online_secs: 120.0, mean_offline_secs: 80.0 };
        c.gossip_codec = crate::GossipCodec::Rlnc;
        c.gossip_generation = G;
        c.latency = crate::LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 200.0 };
        c.query_timeout_secs = Some(2.0);
        let mut net = PdhtNetwork::new(c).unwrap();
        net.run(300);
        let node = (2 * std::mem::size_of::<u64>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<NetEvent>())
        .next_multiple_of(8);
        let members = net.world.groups.iter().map(ReplicaGroup::len).max().unwrap();
        let mut lanes = 0;
        for (i, lane) in net.shards.lanes.iter().enumerate() {
            let (wheel, pending) = (lane.events.heap_bytes(), lane.events.high_water());
            let bound = pending * node * 5 / 4 + BUCKET_TABLE;
            assert!(wheel <= bound, "lane {i}: wheel {wheel} B for {pending} pending (≤ {bound})");
            let (pool, slots) = (lane.waves.heap_bytes(), lane.waves.slots());
            let bound = slots * members * (G * pdht_gossip::MAX_GENERATION + MEMBER_HEADERS);
            assert!(pool <= bound, "lane {i}: pool {pool} B in {slots} slots (≤ {bound})");
            assert!(slots > 0 && pending > 0, "lane {i} ran waves and events");
            lanes += wheel + pool;
        }
        assert!(net.scratch_bytes() >= lanes, "the ledger covers the wheels and pools");
    }

    #[test]
    fn pooled_wave_slots_are_all_returned_at_quiescence() {
        // Every flood and rumor slot a wave acquires comes back: floods on
        // completion or when their query times out mid-flood, rumor slots
        // after the pull. Load runs with timeouts short enough to abandon
        // parked floods, then stops; once nothing is in flight, no lane
        // may hold a slot. Partial floods on every miss; IndexAll starts
        // with the offline peers' stores wiped so it floods too, and runs
        // update waves under each codec.
        use crate::{GossipCodec, LatencyConfig};
        let uniform = LatencyConfig::Uniform { lo_ms: 20.0, hi_ms: 200.0 };
        for strategy in [Strategy::Partial, Strategy::IndexAll] {
            for codec in [GossipCodec::Plain, GossipCodec::Chunked, GossipCodec::Rlnc] {
                for shards in [1, 4] {
                    for latency in [LatencyConfig::Zero, uniform] {
                        let mut c = cfg_sharded(strategy, shards);
                        c.scenario.f_upd = 0.05;
                        c.churn = pdht_overlay::ChurnConfig {
                            mean_online_secs: 120.0,
                            mean_offline_secs: 80.0,
                        };
                        c.gossip_codec = codec;
                        c.latency = latency;
                        c.query_timeout_secs = Some(0.5);
                        let mut net = PdhtNetwork::new(c).unwrap();
                        let live = net.world.live();
                        for peer in (0..net.world.nap).map(PeerId::from_idx) {
                            if !live.is_online(peer) {
                                net.peers.view(peer).purge_expired(peer, u64::MAX);
                            }
                        }
                        let case = format!("{strategy:?} {codec:?} shards={shards} {latency:?}");
                        net.run(20);
                        let floods: u64 = net.shards.lanes.iter().map(|l| l.waves.acquires()).sum();
                        assert!(floods > 0, "{case}: no wave acquired a slot");
                        if latency != LatencyConfig::Zero {
                            assert!(net.counters.query_timeouts > 0, "{case}: no timeout fired");
                        }
                        let articles = net.world.keys_by_article.len();
                        net.world.workload =
                            QueryWorkload::new(2_000, 1.2, 1_000, 0.0, None).unwrap();
                        net.world.updates = UpdateProcess::new(articles, 1e15).unwrap();
                        // Coded waves outlive the load by up to ~80 rounds.
                        for _ in 0..150 {
                            if net.queries_in_flight() + net.updates_in_flight() == 0 {
                                break;
                            }
                            net.step_round();
                        }
                        assert_eq!(net.queries_in_flight() + net.updates_in_flight(), 0, "{case}");
                        for (i, lane) in net.shards.lanes.iter().enumerate() {
                            assert_eq!(lane.waves.in_use(), (0, 0), "{case}: lane {i} leaked");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partial_starts_empty_and_fills_with_queries() {
        let mut net = PdhtNetwork::new(cfg(Strategy::Partial, 1.0 / 30.0)).unwrap();
        assert_eq!(net.indexed_keys(), 0);
        net.run(30);
        assert!(net.indexed_keys() > 0, "queries must populate the index");
        let report = net.report(0, 29);
        assert!(report.p_indexed > 0.0, "repeat queries should start hitting");
        assert!(report.msgs_per_round > 0.0);
    }

    #[test]
    fn no_index_never_indexes_and_always_broadcasts() {
        let mut net = PdhtNetwork::new(cfg(Strategy::NoIndex, 1.0 / 30.0)).unwrap();
        net.run(20);
        assert_eq!(net.indexed_keys(), 0);
        let report = net.report(0, 19);
        assert_eq!(report.p_indexed, 0.0);
        let walk: f64 = report
            .by_kind
            .iter()
            .filter(|(k, _)| *k == MessageKind::WalkStep)
            .map(|&(_, v)| v)
            .sum();
        assert!(walk > 0.0, "NoIndex must pay broadcast search");
        let probes: f64 =
            report.by_kind.iter().filter(|(k, _)| *k == MessageKind::Probe).map(|&(_, v)| v).sum();
        assert_eq!(probes, 0.0, "NoIndex maintains no routing tables");
    }

    #[test]
    fn index_all_hits_after_preload() {
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 30.0)).unwrap();
        net.run(20);
        let report = net.report(5, 19);
        assert!(
            report.p_indexed > 0.95,
            "preloaded index should answer nearly everything, got {}",
            report.p_indexed
        );
        assert_eq!(report.search_failures, 0);
    }

    #[test]
    fn maintenance_cost_matches_env_calibration() {
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 120.0)).unwrap();
        let nap = net.num_active_peers() as f64;
        net.run(30);
        let report = net.report(5, 29);
        let probes: f64 =
            report.by_kind.iter().filter(|(k, _)| *k == MessageKind::Probe).map(|&(_, v)| v).sum();
        let expected = net.config().scenario.env * nap.log2() * nap;
        assert!(
            (probes - expected).abs() / expected < 0.1,
            "probe rate {probes}/round should be ≈ env·log2(nap)·nap = {expected}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut c = cfg(Strategy::Partial, 1.0 / 60.0);
            c.seed = seed;
            let mut net = PdhtNetwork::new(c).unwrap();
            net.run(15);
            let r = net.report(0, 14);
            (r.msgs_per_round, r.p_indexed, net.indexed_keys())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn ttl_eviction_shrinks_index_after_popularity_dies() {
        // Run with a tiny fixed TTL and a burst of load, then stop querying:
        // the index must drain.
        let mut c = cfg(Strategy::Partial, 1.0 / 30.0);
        c.ttl_policy = TtlPolicy::Fixed(5);
        c.purge_stride = 1;
        let mut net = PdhtNetwork::new(c).unwrap();
        net.run(20);
        let filled = net.indexed_keys();
        assert!(filled > 0);
        // Cut the load to zero by swapping in a zero-rate workload.
        net.world.workload = QueryWorkload::new(2_000, 1.2, 1_000, 0.0, None).unwrap();
        net.run(10);
        assert!(
            net.indexed_keys() < filled / 4,
            "index should drain after queries stop: {} -> {}",
            filled,
            net.indexed_keys()
        );
    }

    #[test]
    fn report_excludes_entry_messages_in_model_view() {
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 60.0)).unwrap();
        net.run(10);
        let r = net.report(0, 9);
        assert!(r.msgs_per_round_model_view() <= r.msgs_per_round);
    }

    fn cfg_sharded(strategy: Strategy, shards: u32) -> PdhtConfig {
        let mut c = cfg(strategy, 1.0 / 60.0);
        c.shards = shards;
        c
    }

    /// Events pending across every lane queue.
    fn pending(net: &PdhtNetwork) -> usize {
        net.shards.lanes.iter().map(|l| l.events.len()).sum()
    }

    #[test]
    fn boundary_events_belong_to_the_next_round() {
        // An event parked exactly on the round boundary (the seam external
        // schedulers are promised) must not fire during the earlier round.
        // NoIndex schedules no background events, so the lane population
        // is exactly the probe event (a stale timeout: a no-op when it
        // fires).
        for shards in [1, 4] {
            let mut net = PdhtNetwork::new(cfg_sharded(Strategy::NoIndex, shards)).unwrap();
            let last = net.shards.lanes.last_mut().unwrap();
            last.events.schedule_at(Round(1).start(), NetEvent::QueryTimeout { query: u64::MAX });
            net.step_round();
            assert_eq!(pending(&net), 1, "boundary event must survive round 0");
            assert_eq!(net.events_dispatched(), 6, "only the six markers fired");
            net.step_round();
            assert_eq!(pending(&net), 0, "boundary event must fire in round 1");
            assert_eq!(net.events_dispatched(), 13);
        }
    }

    #[test]
    fn phases_drain_within_their_round() {
        for shards in [1, 4] {
            let mut net = PdhtNetwork::new(cfg_sharded(Strategy::NoIndex, shards)).unwrap();
            assert_eq!(pending(&net), 0);
            net.step_round();
            assert_eq!(pending(&net), 0, "a round leaves nothing of its own behind");
            for lane in &net.shards.lanes {
                assert_eq!(lane.events.now(), Round(0).end(), "lane clocks park on the boundary");
            }
            assert_eq!(net.next_round(), 1);
        }
    }

    #[test]
    fn background_events_keep_a_steady_per_peer_population() {
        // Every active peer carries one perpetual maintenance event, plus
        // (Partial) one TTL-sweep event, on its lane's queue; each round
        // consumes and reschedules them, so the pending population is
        // invariant across rounds.
        for shards in [1, 4] {
            let mut net = PdhtNetwork::new(cfg_sharded(Strategy::Partial, shards)).unwrap();
            let expected = 2 * net.num_active_peers();
            assert_eq!(pending(&net), expected, "maintenance + TTL sweep per active peer");
            for _ in 0..3 {
                net.step_round();
                assert_eq!(pending(&net), expected, "background events must reschedule");
            }

            let net = PdhtNetwork::new(cfg_sharded(Strategy::IndexAll, shards)).unwrap();
            assert_eq!(
                pending(&net),
                net.num_active_peers(),
                "IndexAll never expires entries: maintenance only"
            );
        }
    }

    #[test]
    fn dispatch_count_tracks_active_work_not_population() {
        // IndexAll, zero latency, no churn: the only events are the 6 phase
        // markers plus one maintenance tick per *active* peer — an
        // exact per-round dispatch count. A stray O(population) event
        // source (the regression the O(active-work) refactor guards
        // against) would break this equality immediately.
        let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, 1.0 / 60.0)).unwrap();
        let nap = net.num_active_peers() as u64;
        let rounds = 5;
        net.run(rounds);
        assert_eq!(net.events_dispatched(), rounds * (6 + nap));

        // Partial adds one TTL sweep per active peer every purge_stride
        // rounds (staggered cohorts): still O(active work), bounded well
        // under the total population.
        let mut net = PdhtNetwork::new(cfg(Strategy::Partial, 1.0 / 60.0)).unwrap();
        let nap = net.num_active_peers() as u64;
        let stride = net.config().purge_stride;
        net.run(stride);
        let per_round = net.events_dispatched() as f64 / stride as f64;
        let expected = 6.0 + nap as f64 * (1.0 + 1.0 / stride as f64);
        assert!(
            (per_round - expected).abs() / expected < 0.05,
            "per-round dispatch {per_round:.1} should be ≈ {expected:.1}"
        );
        assert!(per_round < net.config().scenario.num_peers as f64);
    }
}
