//! Property tests for replica gossip: the step-API wave contracts over
//! arbitrary group sizes, codecs and offline patterns, and the decoder
//! invariants behind the coded codecs.

use pdht_gossip::codec::Decoder;
use pdht_gossip::{GossipCodec, ReplicaGroup, WavePool};
use pdht_sim::Metrics;
use pdht_types::{Liveness, PeerId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `n` members `0..n`, with `offline[i]` taking member `i` down for the
/// whole wave — except `origin`, which always stays up.
fn liveness(n: usize, offline: &[bool], origin: usize) -> Liveness {
    let mut live = Liveness::all_online(n);
    for (i, &off) in offline.iter().take(n).enumerate() {
        if off && i != origin {
            live.set(PeerId(i as u32), false);
        }
    }
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One `push_begin` / `push_wave` / `pull_missing` wave, under every
    /// codec and generation size: `deliver` fires for nobody offline,
    /// coded codecs fire it at most once per member (on decode; Plain fires
    /// it per receive and lets it report freshness), and the wave's
    /// `reached()` is the number of members delivered to.
    #[test]
    fn push_wave_delivers_at_most_once_to_online_members(
        codec in prop::sample::select(vec![
            GossipCodec::Plain,
            GossipCodec::Chunked,
            GossipCodec::Rlnc,
            GossipCodec::RlncSparse,
        ]),
        gen in prop::sample::select(vec![1usize, 8, 32]),
        n in 1usize..80,
        seed in any::<u64>(),
        offline in prop::collection::vec(any::<bool>(), 80),
        origin_raw in any::<u32>(),
    ) {
        let members: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let group = ReplicaGroup::new(members, &mut rng).unwrap();
        let origin = origin_raw as usize % n;
        let live = liveness(n, &offline, origin);
        let mut metrics = Metrics::new();
        let mut pool = WavePool::new();
        let mut calls = vec![0u32; n];
        let mut deliver = |local: usize| {
            calls[local] += 1;
            calls[local] == 1
        };
        let origin = PeerId(origin as u32);
        let mut wave = group.push_begin(origin, codec, gen, &mut deliver, &live, &mut pool);
        while !group.push_wave(
            &mut wave, codec, &mut deliver, &live, &mut rng, &mut metrics, &mut pool,
        ) {}
        let pushed = wave.reached();
        let completed =
            group.pull_missing(&mut wave, &mut deliver, &live, &mut rng, &mut metrics, &mut pool);
        wave.release(&mut pool);

        prop_assert_eq!(wave.reached(), pushed + completed);
        prop_assert!(calls[origin.idx()] >= 1, "the origin delivers to itself first");
        for (i, &c) in calls.iter().enumerate() {
            if c > 0 {
                prop_assert!(live.is_online(PeerId(i as u32)), "delivered to offline member {}", i);
            }
            if codec.is_coded() {
                prop_assert!(c <= 1, "{:?}: member {} decoded {} times", codec, i, c);
            }
        }
        prop_assert_eq!(wave.reached(), calls.iter().filter(|&&c| c > 0).count());
    }

    /// A `flood_begin` / `flood_wave` sweep whose visit never answers
    /// visits every online member it reaches exactly once, and nobody
    /// offline.
    #[test]
    fn flood_all_delivers_exactly_once(
        n in 2usize..80,
        seed in any::<u64>(),
        offline in prop::collection::vec(any::<bool>(), 80),
    ) {
        let members: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let group = ReplicaGroup::new(members, &mut rng).unwrap();
        let live = liveness(n, &offline, 0);
        let mut metrics = Metrics::new();
        let mut pool = WavePool::new();
        let mut delivered = vec![0u32; n];
        let mut visit = |local: usize| {
            delivered[local] += 1;
            false
        };
        let mut wave = group.flood_begin(PeerId(0), &mut visit, &live, &mut pool);
        while !group.flood_wave(&mut wave, &mut visit, &live, &mut metrics, &mut pool) {}

        for (i, &d) in delivered.iter().enumerate() {
            let online = live.is_online(PeerId(i as u32));
            if d > 0 {
                prop_assert!(online, "delivered to offline member {}", i);
                prop_assert_eq!(d, 1, "member {} delivered {} times", i, d);
            }
        }
        prop_assert_eq!(delivered[0], 1, "origin always receives");
        // Connectivity caveat: the subnet restricted to online members may
        // be disconnected, so not every online member is reachable — but
        // with everyone online the flood must be complete.
        if live.online_count() == n {
            prop_assert!(delivered.iter().all(|&d| d == 1));
        }
    }

    /// Rank is a function of the received packet stream alone: a fresh
    /// decoder and a pooled decoder reset from a different generation reach
    /// identical rank and identical echelon rows on an identical stream —
    /// whether the stream came from the dense or the sparse encoder.
    #[test]
    fn identical_streams_yield_identical_decoders(
        g in 1usize..=32,
        stale in 1usize..=32,
        seed in any::<u64>(),
        packets in 1usize..48,
        sparse in any::<bool>(),
    ) {
        let source = Decoder::full(g);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fresh = Decoder::empty(g);
        let mut pooled = Decoder::full(stale);
        pooled.reset(g);
        for _ in 0..packets {
            let pkt = if sparse {
                source.encode_sparse(&mut rng)
            } else {
                source.encode(&mut rng)
            };
            let a = fresh.insert(pkt);
            let b = pooled.insert(pkt);
            prop_assert_eq!(a, b, "innovative/redundant classification must match");
            prop_assert_eq!(fresh.rank(), pooled.rank());
        }
        prop_assert_eq!(fresh, pooled, "echelon state must be stream-determined");
        prop_assert!(fresh.rank() <= g);
    }
}
