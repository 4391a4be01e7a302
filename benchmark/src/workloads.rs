//! The four workloads of record: what each configures and why it exists.
//!
//! Every workload is a closed loop by construction — one process, the
//! engine's own round clock — over a fixed number of rounds, so the
//! simulated statistics of a `(workload, seed, rounds)` triple repeat
//! exactly and two commits compare bit for bit.

use pdht_core::{
    BackgroundSchedule, GossipCodec, LatencyConfig, OverlayKind, PdhtConfig, Strategy, TtlPolicy,
};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;
use pdht_types::mix64;

/// One workload: a fixed engine configuration plus its round budget.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as `BENCHMARK.json` and `--workload` spell it.
    pub name: &'static str,
    /// Mixed with `--seed` into [`PdhtConfig::seed`], so the four workloads
    /// never share a random stream.
    tag: u64,
    /// The engine configuration (seed filled in by [`Workload::config`]).
    base: fn() -> PdhtConfig,
    /// Untimed rounds before the window (caches, pools and the index fill).
    pub warmup_rounds: u64,
    /// Timed rounds per second of `--seconds`, calibrated so the window
    /// lasts about `--seconds` on the reference host. The window is a
    /// *round count*: host speed never changes what is simulated.
    pub rounds_per_second: f64,
    /// Executor threads asked for. Results depend on `shards` alone; a
    /// request above the host's cpus is flagged in every output.
    pub threads: usize,
}

/// Fewest timed rounds a full-size run may use.
pub const MIN_TIMED_ROUNDS: u64 = 200;

/// The 900 ms maintenance/TTL jitter every churned workload shares with
/// `sim_scale::scale_cfg`.
const JITTER: BackgroundSchedule =
    BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };

/// WAN-like per-hop delay of the two event-driven workloads.
const WAN: LatencyConfig = LatencyConfig::LogNormal { median_ms: 80.0, sigma: 0.5 };

/// Table 1 with the population raised to 100k (keys and replication at
/// full scale, so per-peer load is realistic).
fn table1_at_100k() -> Scenario {
    Scenario { num_peers: 100_000, ..Scenario::table1() }
}

/// The paper's strategy on the legacy single-lane path (=
/// `sim_scale::scale_cfg`): ≈98 % of messages are `WalkStep`, so
/// `pdht_unstructured` walker waves do nearly all the work while the
/// scheduler, gossip pushes and the shard merge idle.
fn walk_miss() -> PdhtConfig {
    let mut c = PdhtConfig::new(table1_at_100k(), 1.0 / 600.0, Strategy::Partial);
    c.ttl_policy = TtlPolicy::Fixed(200);
    c.purge_stride = 8;
    c.churn = ChurnConfig::gnutella_like();
    c.background = JITTER;
    c
}

/// Every hop is a scheduled event on the lane path: per-peer maintenance
/// ticks plus query hops through the wheel, slabs and outbox merge.
/// Walker and codec layers are bypassed, so a walk or GF(256) optimisation
/// must show no change here.
fn route_event() -> PdhtConfig {
    let mut c = PdhtConfig::new(table1_at_100k(), 1.0 / 20.0, Strategy::IndexAll);
    c.overlay = OverlayKind::Kademlia;
    c.latency = WAN;
    c.query_timeout_secs = Some(8.0);
    c.shards = 8;
    c.churn = ChurnConfig::gnutella_like();
    c.background = JITTER;
    c
}

/// The write side of `ReplicaGroup` (= `sim_gen_sweep` at full Table-1
/// scale): coded pushes dominate — `push_wave`, `Decoder`, `gf_axpy` —
/// with zero walk steps. The other workloads read through the same
/// `ReplicaGroup` (`flood_wave`), so a layout change that speeds pushes
/// but slows floods shows there as a regression.
fn gossip_coded() -> PdhtConfig {
    let scenario = Scenario { repl: 64, f_upd: 1.0 / 1000.0, ..Scenario::table1() };
    let mut c = PdhtConfig::new(scenario, 1.0 / 30.0, Strategy::IndexAll);
    c.gossip_codec = GossipCodec::Rlnc;
    c.gossip_generation = 32;
    c
}

/// ROADMAP item 1(a)'s loaded round: queries and churn and maintenance
/// and coded waves, non-zero latency, sharded, no layer above about half.
/// The only workload whose end-to-end number includes `ShardPool`
/// parallelism.
fn loaded_mix() -> PdhtConfig {
    let scenario = Scenario { f_upd: 0.002, ..table1_at_100k() };
    let mut c = PdhtConfig::new(scenario, 1.0 / 120.0, Strategy::IndexAll);
    c.overlay = OverlayKind::Chord;
    c.latency = WAN;
    c.query_timeout_secs = Some(8.0);
    c.shards = 8;
    c.churn = ChurnConfig::gnutella_like();
    c.background = JITTER;
    c.gossip_codec = GossipCodec::Rlnc;
    c.gossip_generation = 8;
    c
}

/// All workloads, in the order `all` runs them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "walk_miss",
        tag: 0x77a1,
        base: walk_miss,
        warmup_rounds: 250,
        rounds_per_second: 180.0,
        threads: 1,
    },
    Workload {
        name: "route_event",
        tag: 0x40e7,
        base: route_event,
        warmup_rounds: 30,
        rounds_per_second: 32.0,
        threads: 1,
    },
    Workload {
        name: "gossip_coded",
        tag: 0x60c0,
        base: gossip_coded,
        warmup_rounds: 20,
        rounds_per_second: 9.5,
        threads: 1,
    },
    Workload {
        name: "loaded_mix",
        tag: 0x10ad,
        base: loaded_mix,
        warmup_rounds: 30,
        rounds_per_second: 120.0,
        threads: 2,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Timed rounds for a `--seconds` budget.
    pub fn timed_rounds(&self, seconds: u64) -> u64 {
        ((self.rounds_per_second * seconds as f64).round() as u64).max(MIN_TIMED_ROUNDS)
    }

    /// The engine configuration for harness seed `seed`.
    pub fn config(&self, seed: u64) -> PdhtConfig {
        let mut cfg = (self.base)();
        cfg.seed = mix64(seed, self.tag);
        cfg
    }
}
