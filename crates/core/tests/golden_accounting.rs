//! Bit-for-bit accounting parity with the phase-granular engine.
//!
//! The message-level refactor promises that a [`LatencyConfig::Zero`] run
//! reproduces the synchronous pipeline's message accounting *exactly*. The
//! vectors below were captured from the pre-refactor engine (seed `0x601d`,
//! `Scenario::table1_scaled(20)`, `fQry = 1/30`, 40 rounds) — any drift in
//! RNG consumption order or message counting breaks these equalities.

use pdht_core::{LatencyConfig, OverlayKind, PdhtConfig, PdhtNetwork, Strategy};
use pdht_model::Scenario;
use pdht_types::MessageKind;

/// Per-kind cumulative totals in [`MessageKind::ALL`] order. Each golden
/// vector must reproduce at every thread count — `--threads` is a pure
/// executor knob, so the worker count can never move a single message
/// count. (With the default `shards = 1` the single lane runs inline on
/// the calling thread regardless; the several-lanes equivalents live in
/// `sharded_determinism.rs`.)
fn run_totals(kind: OverlayKind, strategy: Strategy) -> [u64; MessageKind::COUNT] {
    let mut out = [0u64; MessageKind::COUNT];
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 30.0, strategy);
        cfg.overlay = kind;
        cfg.seed = 0x601d;
        cfg.latency = LatencyConfig::Zero;
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        net.set_threads(threads);
        net.run(40);
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
fn zero_latency_reproduces_seed_accounting_trie_partial() {
    assert_eq!(
        run_totals(OverlayKind::Trie, Strategy::Partial),
        [2012, 7732, 0, 11287, 0, 0, 97480, 448, 899, 0]
    );
}

#[test]
fn zero_latency_reproduces_seed_accounting_trie_index_all() {
    assert_eq!(
        run_totals(OverlayKind::Trie, Strategy::IndexAll),
        [2695, 28669, 0, 0, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn zero_latency_reproduces_seed_accounting_trie_no_index() {
    assert_eq!(
        run_totals(OverlayKind::Trie, Strategy::NoIndex),
        [0, 0, 0, 47280, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn zero_latency_reproduces_seed_accounting_chord_partial() {
    assert_eq!(
        run_totals(OverlayKind::Chord, Strategy::Partial),
        [2690, 7732, 0, 13383, 0, 0, 133840, 533, 899, 0]
    );
}

#[test]
fn zero_latency_reproduces_seed_accounting_chord_index_all() {
    assert_eq!(
        run_totals(OverlayKind::Chord, Strategy::IndexAll),
        [3952, 28615, 0, 0, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn zero_latency_reproduces_seed_accounting_chord_no_index() {
    assert_eq!(
        run_totals(OverlayKind::Chord, Strategy::NoIndex),
        [0, 0, 0, 47280, 0, 0, 0, 0, 0, 0]
    );
}

// The Kademlia vectors below were captured when the substrate landed (same
// seed/scenario/rounds as the trie/Chord vectors above), pinning its
// accounting the same way: any drift in its RNG consumption order, greedy
// forwarding, or bucket construction breaks these equalities. The lower
// RouteHop totals relative to trie/Chord are the greedy multi-bit hops;
// NoIndex builds no overlay at all, so its vector matches the others
// bit-for-bit.

#[test]
fn zero_latency_reproduces_seed_accounting_kademlia_partial() {
    assert_eq!(
        run_totals(OverlayKind::Kademlia, Strategy::Partial),
        [1198, 7639, 0, 11475, 0, 0, 97480, 284, 899, 0]
    );
}

#[test]
fn zero_latency_reproduces_seed_accounting_kademlia_index_all() {
    assert_eq!(
        run_totals(OverlayKind::Kademlia, Strategy::IndexAll),
        [1517, 28238, 0, 0, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn zero_latency_reproduces_seed_accounting_kademlia_no_index() {
    assert_eq!(
        run_totals(OverlayKind::Kademlia, Strategy::NoIndex),
        [0, 0, 0, 47280, 0, 0, 0, 0, 0, 0]
    );
}

/// The coded-gossip PR's Plain-parity golden: with `f_upd` cranked three
/// orders of magnitude above Table 1 the same 40-round window carries
/// hundreds of update waves, so this vector actually exercises the rumor
/// spreading path the vectors above never reach (GossipPush ≈ 413k). The
/// wave driver's codec dispatch must leave the uncoded path bit-for-bit:
/// same RNG draws, same push counts, at every thread count — and the new
/// innovative/redundant split must classify every wave receive without
/// moving a single message. (GossipPush exceeds the two classes by the
/// route-stage traffic that precedes each wave.)
#[test]
fn zero_latency_reproduces_seed_accounting_with_gossip_waves() {
    let mut golden: Option<([u64; MessageKind::COUNT], u64, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let scenario = Scenario { f_upd: 0.01, ..Scenario::table1_scaled(20) };
        let mut cfg = PdhtConfig::new(scenario, 1.0 / 30.0, Strategy::IndexAll);
        cfg.seed = 0x601d;
        cfg.latency = LatencyConfig::Zero;
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        net.set_threads(threads);
        net.run(40);
        let totals = net.metrics().totals();
        let mut vec = [0u64; MessageKind::COUNT];
        for (i, &k) in MessageKind::ALL.iter().enumerate() {
            vec[i] = totals[k];
        }
        let report = net.report(0, 39);
        let sample = (vec, report.gossip_innovative, report.gossip_redundant);
        match &golden {
            None => golden = Some(sample),
            Some(g) => assert_eq!(&sample, g, "thread count {threads} changed the accounting"),
        }
    }
    assert_eq!(
        golden.unwrap(),
        ([2652, 28642, 0, 0, 413476, 0, 0, 0, 0, 0], 50204, 361658),
        "Plain wave accounting drifted from the captured seed vector"
    );
}
