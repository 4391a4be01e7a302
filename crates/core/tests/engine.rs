//! Integration tests for the engine seams introduced by the `network/`
//! refactor: overlay substitutability and event-driven determinism.

use pdht_core::{OverlayKind, PdhtConfig, PdhtNetwork, SimReport, Strategy};
use pdht_model::Scenario;
use pdht_zipf::{PopularityShift, RankMap};

fn cfg(strategy: Strategy, kind: OverlayKind) -> PdhtConfig {
    let mut c = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 30.0, strategy);
    c.overlay = kind;
    c
}

fn run_report(c: PdhtConfig, rounds: u64) -> (SimReport, usize) {
    let mut net = PdhtNetwork::new(c).expect("network builds");
    net.run(rounds);
    let report = net.report(0, rounds - 1);
    let indexed = net.indexed_keys();
    (report, indexed)
}

/// Under `Strategy::NoIndex` no structured overlay is built at all, so the
/// engine must produce bit-identical message accounting regardless of which
/// overlay the configuration names — the overlay seam must not leak into
/// strategies that do not use it.
#[test]
fn all_overlays_identical_under_no_index() {
    let (trie, trie_keys) = run_report(cfg(Strategy::NoIndex, OverlayKind::Trie), 40);
    assert_eq!(trie_keys, 0);
    assert_eq!(trie.p_indexed, 0.0);
    for kind in [OverlayKind::Chord, OverlayKind::Kademlia] {
        let (other, other_keys) = run_report(cfg(Strategy::NoIndex, kind), 40);
        assert_eq!(other_keys, 0);
        assert_eq!(trie.msgs_per_round, other.msgs_per_round, "{kind:?}");
        assert_eq!(trie.by_kind, other.by_kind, "{kind:?} per-kind accounting must match exactly");
        assert_eq!(other.p_indexed, 0.0);
        assert_eq!(trie.search_failures, other.search_failures);
        assert_eq!(trie.skipped_offline, other.skipped_offline);
    }
}

/// A popularity shift routes Zipf ranks to key indices, so its rank maps
/// must cover the scenario's key universe exactly: fewer keys than the
/// scenario fails a rank lookup, more routes queries past the universe.
/// Both are configuration errors at build time, not panics mid-run.
#[test]
fn a_shift_over_the_wrong_key_count_is_rejected() {
    let keys = Scenario::table1_scaled(20).keys as usize;
    for n in [keys / 2, keys * 2, keys] {
        let mut c = cfg(Strategy::Partial, OverlayKind::Trie);
        let shift =
            PopularityShift::new(vec![(0, RankMap::identity(n)), (3, RankMap::rotation(n, n / 2))]);
        c.shift = Some(shift.unwrap());
        let built = PdhtNetwork::new(c);
        assert_eq!(built.is_ok(), n == keys, "a shift over {n} keys on a {keys}-key scenario");
    }
}

/// The event-queue-driven `step_round` must be deterministic: two networks
/// built from the same configuration produce identical reports, for both
/// overlay substrates.
#[test]
fn step_round_is_deterministic_across_runs() {
    for kind in OverlayKind::ALL {
        let (a, a_keys) = run_report(cfg(Strategy::Partial, kind), 30);
        let (b, b_keys) = run_report(cfg(Strategy::Partial, kind), 30);
        assert_eq!(a.msgs_per_round, b.msgs_per_round, "{kind:?} run must be reproducible");
        assert_eq!(a.by_kind, b.by_kind);
        assert_eq!(a.p_indexed, b.p_indexed);
        assert_eq!(a.indexed_keys, b.indexed_keys);
        assert_eq!(a_keys, b_keys);
        assert_eq!(a.lookup_failures, b.lookup_failures);
        assert_eq!(a.search_failures, b.search_failures);
        assert_eq!(a.stale_hits, b.stale_hits);
    }
}

/// Every substrate-backed network runs the selection algorithm
/// end-to-end: the index fills adaptively, repeat queries hit it, and
/// routing pays hops.
#[test]
fn every_overlay_backed_selection_algorithm_end_to_end() {
    for kind in OverlayKind::ALL {
        let mut net = PdhtNetwork::new(cfg(Strategy::Partial, kind)).unwrap();
        assert_eq!(net.indexed_keys(), 0, "{kind:?}: partial index starts empty");
        net.run(60);
        assert!(net.indexed_keys() > 0, "{kind:?}: queries must populate the index");
        let report = net.report(20, 59);
        assert!(
            report.p_indexed > 0.2,
            "{kind:?}: repeat queries should hit, got {}",
            report.p_indexed
        );
        let route_hops: f64 = report
            .by_kind
            .iter()
            .filter(|(k, _)| *k == pdht_types::MessageKind::RouteHop)
            .map(|&(_, v)| v)
            .sum();
        assert!(route_hops > 0.0, "{kind:?}: routing must pay hops");
    }
}

/// All three substrates running the same partial-index scenario agree on
/// the big picture (index fills, queries hit) even though their routing
/// constants differ.
#[test]
fn substrates_agree_qualitatively_under_partial() {
    for kind in OverlayKind::ALL {
        let (report, keys) = run_report(cfg(Strategy::Partial, kind), 60);
        assert!(keys > 0, "{kind:?} index must fill");
        assert!(report.p_indexed > 0.2, "{kind:?} repeat queries should hit");
        // Each must be doing real work per round.
        assert!(report.msgs_per_round > 0.0, "{kind:?}");
    }
}

/// The coded-gossip headline: at replication 64 an RLNC wave stops paying
/// for duplicate payloads — every receive whose coefficient vector is
/// linearly dependent on what the peer already holds is classified
/// redundant, and the completion feedback retires spreaders whose
/// neighborhood has decoded. Same seed, same update schedule, same
/// scenario: the coded run must waste strictly less bandwidth than the
/// uncoded baseline. (`f_upd` is cranked so the 60-round window actually
/// carries update waves — at Table 1's daily replacement rate the window
/// would see ~1.)
#[test]
fn rlnc_reduces_redundant_receives_vs_plain_at_repl_64() {
    let run = |codec: pdht_core::GossipCodec| {
        let scenario =
            pdht_model::Scenario { repl: 64, f_upd: 1.0 / 1000.0, ..Scenario::table1_scaled(20) };
        let mut c = PdhtConfig::new(scenario, 1.0 / 30.0, Strategy::IndexAll);
        c.seed = 0x517c_2004;
        c.gossip_codec = codec;
        let mut net = PdhtNetwork::new(c).expect("network builds");
        net.run(60);
        net.report(0, 59)
    };
    let plain = run(pdht_core::GossipCodec::Plain);
    let rlnc = run(pdht_core::GossipCodec::Rlnc);

    // Both runs must actually disseminate updates, and every receive must
    // land in exactly one of the two classes.
    assert!(plain.gossip_innovative > 0, "plain run saw no update waves: {plain:?}");
    assert!(plain.gossip_redundant > 0, "rumor spreading at repl 64 always overshoots");
    assert!(rlnc.gossip_innovative > 0, "rlnc run saw no update waves: {rlnc:?}");

    assert!(
        rlnc.gossip_redundant < plain.gossip_redundant,
        "RLNC must reduce redundant receives at repl 64: rlnc {} vs plain {}",
        rlnc.gossip_redundant,
        plain.gossip_redundant
    );
    assert!(
        rlnc.wasted_bandwidth < plain.wasted_bandwidth,
        "RLNC must waste a smaller fraction: rlnc {:.3} vs plain {:.3}",
        rlnc.wasted_bandwidth,
        plain.wasted_bandwidth
    );
    // The report surfaces the per-wave redundancy histogram for coded and
    // uncoded runs alike.
    assert!(plain.gossip_wave_redundant.is_some(), "completed waves must publish the histogram");
    assert!(rlnc.gossip_wave_redundant.is_some());
}

/// Sparse RLNC at generation 32 against a 64-replica group: the byte cost
/// model must show a strict win over plain flooding on every seed, not just
/// on average — the chunked payloads (1024/32 = 32 bytes + 32 coefficient
/// bytes per packet vs 1024 bytes per plain push) dominate any coding
/// overshoot. Six seeds guard against a lucky draw.
#[test]
fn sparse_rlnc_at_generation_32_outbids_plain_on_bytes_at_repl_64() {
    let run = |codec: pdht_core::GossipCodec, seed: u64| {
        let scenario =
            pdht_model::Scenario { repl: 64, f_upd: 1.0 / 1000.0, ..Scenario::table1_scaled(20) };
        let mut c = PdhtConfig::new(scenario, 1.0 / 30.0, Strategy::IndexAll);
        c.seed = seed;
        c.gossip_codec = codec;
        c.gossip_generation = 32;
        let mut net = PdhtNetwork::new(c).expect("network builds");
        net.run(40);
        net.report(0, 39)
    };
    for seed in [0x5ea1u64, 0x5ea2, 0x5ea3, 0x5ea4, 0x5ea5, 0x5ea6] {
        let plain = run(pdht_core::GossipCodec::Plain, seed);
        let sparse = run(pdht_core::GossipCodec::RlncSparse, seed);
        assert!(plain.gossip_bytes > 0, "plain run saw no update waves at seed {seed:#x}");
        assert!(sparse.gossip_innovative > 0, "sparse run saw no update waves at seed {seed:#x}");
        assert!(
            sparse.gossip_bytes < plain.gossip_bytes,
            "sparse RLNC at G=32 must spend strictly fewer bytes than plain at seed {seed:#x}: \
             sparse {} vs plain {}",
            sparse.gossip_bytes,
            plain.gossip_bytes
        );
        // The per-wave byte histogram must surface for both codecs.
        assert!(plain.gossip_wave_bytes.is_some(), "plain waves must publish the byte histogram");
        assert!(sparse.gossip_wave_bytes.is_some());
    }
}
