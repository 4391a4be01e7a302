//! The per-peer background-event path (maintenance ticks, TTL sweeps,
//! message-granular update propagation) against the phase-sweep engine it
//! replaced, plus the jittered schedules it enables.
//!
//! The golden vectors below were captured from the *phase-sweep* engine
//! (the commit before the background-event refactor) on a scenario chosen
//! to exercise every background path at once: `Scenario::table1_scaled(20)`
//! with `fUpd = 0.01` (≈ one article replacement per round, so IndexAll
//! propagates updates through route + gossip), Gnutella-like churn (probe
//! repairs and rejoin pulls fire), `purge_stride = 4`, seed `0xbac6`,
//! 30 rounds. Any drift in the event-driven decomposition's RNG consumption
//! or message accounting breaks these equalities — together with
//! `golden_accounting.rs` (no churn, no updates) this pins the
//! maintenance/TTL/gossip equivalence for all 3 strategies × 3 overlays.

use pdht_core::{
    BackgroundSchedule, GossipCodec, LatencyConfig, OverlayKind, PdhtConfig, PdhtNetwork, Strategy,
};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;
use pdht_types::{MessageKind, Round};

fn busy_cfg(kind: OverlayKind, strategy: Strategy) -> PdhtConfig {
    let mut scenario = Scenario::table1_scaled(20);
    scenario.f_upd = 0.01;
    let mut cfg = PdhtConfig::new(scenario, 1.0 / 30.0, strategy);
    cfg.overlay = kind;
    cfg.seed = 0xbac6;
    cfg.latency = LatencyConfig::Zero;
    cfg.churn = ChurnConfig::gnutella_like();
    cfg.purge_stride = 4;
    cfg
}

/// Per-kind cumulative totals in [`MessageKind::ALL`] order, checked to be
/// identical at every thread count (`--threads` is a pure executor knob;
/// under the default `shards = 1` the single lane runs inline on the
/// calling thread regardless).
fn run_totals(cfg: PdhtConfig, rounds: u64) -> [u64; MessageKind::COUNT] {
    let mut out = [0u64; MessageKind::COUNT];
    for threads in [1usize, 2, 4, 8] {
        let mut net = PdhtNetwork::new(cfg.clone()).expect("network builds");
        net.set_threads(threads);
        net.run(rounds);
        let totals = net.metrics().totals();
        let mut vec = [0u64; MessageKind::COUNT];
        for (i, &k) in MessageKind::ALL.iter().enumerate() {
            vec[i] = totals[k];
        }
        if threads == 1 {
            out = vec;
        } else {
            assert_eq!(vec, out, "thread count {threads} changed the accounting");
        }
    }
    out
}

// Golden vectors, in MessageKind::ALL order:
// [RouteHop, Probe, FloodStep, WalkStep, GossipPush, GossipPull,
//  ReplicaFlood, IndexInsert, QueryEntry, Membership]

#[test]
fn event_driven_background_matches_phase_sweep_trie() {
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Trie, Strategy::Partial), 30),
        [370, 1291, 0, 64072, 0, 0, 64297, 121, 556, 0]
    );
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Trie, Strategy::IndexAll), 30),
        [1903, 12638, 0, 6525, 165223, 14, 0, 0, 0, 0]
    );
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Trie, Strategy::NoIndex), 30),
        [0, 0, 0, 59792, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn event_driven_background_matches_phase_sweep_chord() {
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Chord, Strategy::Partial), 30),
        [576, 1222, 0, 28885, 0, 0, 68436, 173, 556, 0]
    );
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Chord, Strategy::IndexAll), 30),
        [3419, 12732, 0, 0, 125276, 14, 0, 0, 0, 0]
    );
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Chord, Strategy::NoIndex), 30),
        [0, 0, 0, 59792, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn event_driven_background_matches_phase_sweep_kademlia() {
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Kademlia, Strategy::Partial), 30),
        [460, 1234, 0, 22837, 0, 0, 65922, 132, 556, 0]
    );
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Kademlia, Strategy::IndexAll), 30),
        [1231, 12767, 0, 0, 168741, 14, 0, 0, 0, 0]
    );
    assert_eq!(
        run_totals(busy_cfg(OverlayKind::Kademlia, Strategy::NoIndex), 30),
        [0, 0, 0, 59792, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn jittered_schedules_are_deterministic_and_change_only_interleaving() {
    // Spreading peers across the round re-orders their RNG consumption
    // relative to queries — totals may differ from the zero-jitter run —
    // but the run must stay reproducible per seed, and the aggregate probe
    // volume must stay at the env calibration either way.
    let jittered = |seed: u64| {
        let mut cfg = busy_cfg(OverlayKind::Trie, Strategy::Partial);
        cfg.seed = seed;
        cfg.background =
            BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
        run_totals(cfg, 30)
    };
    assert_eq!(jittered(1), jittered(1), "jittered runs must be seed-deterministic");
    assert_ne!(jittered(1), jittered(2));

    let plain = run_totals(busy_cfg(OverlayKind::Trie, Strategy::Partial), 30);
    let spread = jittered(0xbac6);
    let probe_idx =
        MessageKind::ALL.iter().position(|&k| k == MessageKind::Probe).expect("probe kind");
    assert_ne!(plain, spread, "spreading peers must actually re-interleave the streams");
    let (a, b) = (plain[probe_idx] as f64, spread[probe_idx] as f64);
    assert!(
        (a - b).abs() / a < 0.15,
        "jitter must not change the calibrated probe volume: {a} vs {b}"
    );
}

#[test]
fn maintenance_calibration_survives_jitter() {
    // The env·log2(nap)·nap per-round probe budget (the [MaCa03]
    // calibration `golden_accounting` pins at zero jitter) must hold when
    // every peer fires at its own instant.
    let mut cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 120.0, Strategy::IndexAll);
    cfg.background.maintenance_jitter_us = 500_000;
    let mut net = PdhtNetwork::new(cfg).expect("builds");
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
fn ttl_sweeps_still_evict_under_jitter() {
    // With a tiny fixed TTL, the jittered per-peer sweeps must hold the
    // index at a small hot set — nowhere near the 2 000-key universe — and
    // at the same steady state the zero-jitter schedule reaches.
    let run = |jitter_us: u64| {
        let mut cfg = busy_cfg(OverlayKind::Trie, Strategy::Partial);
        cfg.churn = ChurnConfig::none();
        cfg.ttl_policy = pdht_core::TtlPolicy::Fixed(5);
        cfg.purge_stride = 2;
        cfg.background.ttl_jitter_us = jitter_us;
        let mut net = PdhtNetwork::new(cfg).expect("builds");
        net.run(40);
        net.indexed_keys() as f64
    };
    let (plain, jittered) = (run(0), run(800_000));
    assert!(jittered > 0.0, "queries must populate the index");
    assert!(jittered < 1_000.0, "TTL sweeps must keep evicting: {jittered} keys resident");
    assert!(
        (plain - jittered).abs() / plain < 0.25,
        "steady-state index size must agree across schedules: {plain} vs {jittered}"
    );
}

#[test]
fn sharded_busy_config_is_thread_invariant() {
    // The busy scenario with everything on at once — churn, jittered
    // maintenance and TTL sweeps, update waves riding non-zero latency —
    // run at shards = 4. `run_totals` asserts the per-kind accounting is
    // bit-identical across thread counts {1, 2, 4, 8}; this is the
    // several-lanes analogue of the golden vectors above (which pin
    // `shards = 1`).
    for strategy in [Strategy::Partial, Strategy::IndexAll] {
        let mut cfg = busy_cfg(OverlayKind::Trie, strategy);
        cfg.shards = 4;
        cfg.latency = LatencyConfig::Uniform { lo_ms: 300.0, hi_ms: 900.0 };
        cfg.background =
            BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
        let totals = run_totals(cfg, 30);
        assert!(totals.iter().sum::<u64>() > 0, "busy run must produce traffic");
    }
}

#[test]
fn nonzero_latency_leaves_updates_in_flight() {
    // With hop delays comparable to the round length, update propagations
    // must actually ride the queue (and still drain deterministically).
    let mut cfg = busy_cfg(OverlayKind::Trie, Strategy::IndexAll);
    cfg.latency = LatencyConfig::Uniform { lo_ms: 300.0, hi_ms: 900.0 };
    let mut net = PdhtNetwork::new(cfg).expect("builds");
    let mut saw_inflight = false;
    for _ in 0..30 {
        net.step_round();
        saw_inflight |= net.updates_in_flight() > 0;
    }
    assert!(saw_inflight, "sub-second waves at 1s rounds must span rounds");

    // Zero latency: propagation always completes at its issue instant.
    let mut net =
        PdhtNetwork::new(busy_cfg(OverlayKind::Trie, Strategy::IndexAll)).expect("builds");
    for _ in 0..30 {
        net.step_round();
        assert_eq!(net.updates_in_flight(), 0);
    }
}

/// Cumulative outcome gauges sampled at each round's bookkeeping instant.
const OUTCOME_GAUGES: [&str; 10] = [
    "hits",
    "misses",
    "stale_hits",
    "lookup_failures",
    "search_failures",
    "skipped_offline",
    "query_timeouts",
    "gossip_innovative",
    "gossip_redundant",
    "gossip_bytes",
];

/// Everything the benchmark fingerprint hashes, read per round: per-kind
/// counts of **each** of rounds 10..=19 (so a message moving across a
/// round's metrics mark shows), the outcome gauges after round 19,
/// `events_dispatched` and `indexed_keys`.
fn per_round_golden(
    mut cfg: PdhtConfig,
) -> (Vec<[u64; MessageKind::COUNT]>, [u64; 10], u64, usize) {
    cfg.background = BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    net.run(20);
    let per_round = (10..=19)
        .map(|r| {
            let counts = net.metrics().counts_between(Round(r), Round(r)).expect("round ran");
            MessageKind::ALL.map(|k| counts[k])
        })
        .collect();
    let outcomes =
        OUTCOME_GAUGES.map(|g| net.metrics().gauge_last(g).expect("gauge sampled") as u64);
    (per_round, outcomes, net.events_dispatched(), net.indexed_keys())
}

#[test]
fn jittered_ticks_land_on_the_pinned_side_of_each_round_mark() {
    // Captured on the commit before the one-engine rewrite (`shards = 1`,
    // zero latency, Gnutella churn, 900 ms maintenance + TTL jitter). A
    // round's metrics mark falls at its Bookkeeping instant, 50 µs in, so
    // nearly every jittered tick and sweep of round r is counted in round
    // r + 1 — until now only the benchmark's `walk_miss` fingerprint saw
    // which side of the mark they land on.
    assert_eq!(
        per_round_golden(busy_cfg(OverlayKind::Trie, Strategy::Partial)),
        (
            vec![
                [13, 37, 0, 6542, 0, 0, 2531, 5, 23, 0],
                [14, 49, 0, 12180, 0, 0, 1874, 4, 23, 0],
                [8, 52, 0, 259, 0, 0, 2732, 3, 21, 0],
                [8, 40, 0, 800, 0, 0, 3056, 3, 20, 0],
                [16, 40, 0, 6733, 0, 0, 3890, 6, 27, 0],
                [11, 44, 0, 6120, 0, 0, 2211, 2, 21, 0],
                [8, 50, 0, 307, 0, 0, 1684, 3, 15, 0],
                [10, 40, 0, 109, 0, 0, 1022, 2, 16, 0],
                [24, 33, 0, 44, 0, 0, 1002, 3, 24, 0],
                [16, 34, 0, 449, 0, 0, 2879, 5, 22, 0],
            ],
            [298, 163, 6, 0, 15, 264, 0, 0, 0, 0],
            3345,
            144
        )
    );

    // The write side: ~5 article replacements a round, each an RLNC wave
    // per key, interleaved with the jittered ticks.
    let mut cfg = busy_cfg(OverlayKind::Chord, Strategy::IndexAll);
    cfg.scenario.f_upd = 0.05;
    cfg.gossip_codec = GossipCodec::Rlnc;
    assert_eq!(
        per_round_golden(cfg),
        (
            vec![
                [162, 448, 0, 0, 48729, 2498, 0, 0, 0, 0],
                [122, 410, 0, 0, 22506, 960, 0, 0, 0, 0],
                [113, 401, 0, 0, 25419, 1304, 0, 0, 0, 0],
                [138, 430, 0, 0, 44679, 2306, 0, 0, 0, 0],
                [148, 414, 0, 0, 30767, 1278, 0, 0, 0, 0],
                [110, 390, 0, 0, 8486, 458, 0, 0, 0, 0],
                [91, 414, 0, 0, 66008, 3250, 0, 0, 0, 0],
                [75, 458, 0, 0, 55033, 3294, 0, 0, 0, 0],
                [124, 400, 0, 0, 11752, 626, 0, 0, 0, 0],
                [121, 434, 0, 0, 49693, 2690, 0, 0, 0, 0],
            ],
            [461, 0, 19, 0, 0, 264, 0, 258884, 200653, 105361068],
            20120,
            2000
        )
    );
}
