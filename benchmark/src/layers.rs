//! Per-layer unit costs: each layer's public functions replayed from the
//! harness on inputs shaped like the workload — same population,
//! substrate, replication, availability, codec, generation size and
//! latency model — one span per batch. The set-ups follow the criterion
//! groups under `crates/bench/benches/`; what is added is that every cost
//! is taken at the *workload's* shape and lands next to the engine's call
//! count, so `count × cost` can be held against the end-to-end round time.
//!
//! Unit costs are host time (median over [`BATCHES`] batches); nothing in
//! here is asserted on.

use crate::metrics::MetricSet;
use crate::stats::median;
use crate::trace::Tracer;
use pdht_core::{LatencyConfig, OverlayKind, PartialIndex, PdhtConfig, Strategy, Ttl};
use pdht_gossip::codec::{gf_axpy, CoeffVec, Decoder};
use pdht_gossip::{GossipCodec, ReplicaGroup, VersionedValue, WavePool};
use pdht_overlay::{
    ChordOverlay, ChurnModel, HopOutcome, KademliaOverlay, Overlay, PlanScratch, TrieOverlay,
};
use pdht_sim::{
    merge_outboxes_into, EventQueue, LatencyModel, LogNormalLatency, MergeBuffers, Metrics, Outbox,
    ShardPool, Slab, UniformLatency, VisitSet, ZeroLatency,
};
use pdht_types::{mix64, Key, Liveness, MessageKind, PeerId, RngStreams, SimTime};
use pdht_unstructured::{RandomWalk, Replication, Topology, WalkWave};
use pdht_workload::QueryWorkload;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Instant;

/// Batches per replay; the reported cost is the median batch.
const BATCHES: usize = 5;

/// Lanes of the barrier-merge and pool replays (the sharded workloads'
/// shard count).
const LANES: usize = 8;

/// The workload's shape, as the replays need it.
pub struct Shape<'a> {
    /// The engine configuration the workload ran.
    pub cfg: &'a PdhtConfig,
    /// Active (structured-overlay) peers the engine sized.
    pub nap: usize,
    /// Executor threads of the workload.
    pub threads: usize,
    /// Divide every batch size by this (`--smoke`).
    pub shrink: u64,
}

/// Runs `run` on a fresh `prepare()` [`BATCHES`] times, one span per batch
/// (set-up stays outside the span), and records the median nanoseconds per
/// call under `metric` — which is also the span's name, so a cost cannot
/// land under another layer's metric. `run` returns how many calls the
/// batch made; no calls at all records the metric as absent.
fn timed<S>(
    tracer: &mut Tracer,
    costs: &mut MetricSet,
    metric: &'static str,
    mut prepare: impl FnMut() -> S,
    mut run: impl FnMut(S) -> u64,
) {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let input = prepare();
        let span = tracer.open(metric);
        let calls = run(input);
        tracer.close(span);
        tracer.count(span, "calls", calls as f64);
        if calls > 0 {
            per_call.push(tracer.duration_ns(span) as f64 / calls as f64);
        }
    }
    costs.set_opt(metric, (!per_call.is_empty()).then(|| median(&per_call)));
}

/// A liveness map over `n` peers with the workload's steady-state
/// availability.
fn liveness(n: usize, availability: f64, rng: &mut SmallRng) -> Liveness {
    let mut live = Liveness::all_online(n);
    if availability < 1.0 {
        for i in 0..n {
            if rng.random::<f64>() >= availability {
                live.set(PeerId::from_idx(i), false);
            }
        }
    }
    live
}

/// Some online peer below `bound`, by rejection (the map is mostly online).
fn online_peer(live: &Liveness, bound: usize, rng: &mut SmallRng) -> PeerId {
    loop {
        let p = PeerId::from_idx(rng.random_range(0..bound));
        if live.is_online(p) {
            return p;
        }
    }
}

/// Replays every layer at `shape` and returns the unit costs, each under
/// the name of its per-layer metric (absent = the layer has nothing to
/// replay at this shape: no overlay without active peers).
pub fn replay_all(shape: &Shape<'_>, tracer: &mut Tracer) -> MetricSet {
    let cfg = shape.cfg;
    let s = &cfg.scenario;
    let n = s.num_peers as usize;
    let repl = s.repl as usize;
    let scale = |full: u64| (full / shape.shrink).max(1);
    let streams = RngStreams::new(cfg.seed);
    let mut rng = streams.stream("benchmark-replay");
    let live = liveness(n, cfg.churn.availability(), &mut rng);
    let mut costs = MetricSet::new();

    // --- pdht_unstructured -------------------------------------------
    let t = Instant::now();
    let topo = Topology::random(n, cfg.mean_degree, &mut rng).expect("valid topology shape");
    costs.set("unstructured.topology.build_s", t.elapsed().as_secs_f64());
    let articles = (s.keys as usize).div_ceil(cfg.keys_per_article as usize);
    let content = Replication::place(articles, repl, n, &mut rng).expect("valid placement");
    let mut visited = VisitSet::new(n);
    let mut metrics = Metrics::new();
    // Walks run to completion, as the engine's do: a walk's first waves
    // (all walkers still bunched at the origin) cost three times the steady
    // step. A walk that finds its article takes a few thousand steps at
    // ~65 ns; the one in a hundred that does not walks its whole budget
    // (6 x peers) at ~18 ns and makes over half of the engine's steps. A
    // batch must hold enough of those for the engine's mix: at 32 walks a
    // batch had none, one or two and the step read 65, 22 or 18 ns.
    let walks = scale(1024);
    timed(
        tracer,
        &mut costs,
        "unstructured.walk.ns_per_step",
        || (),
        |()| {
            let before = metrics.totals()[MessageKind::WalkStep];
            for _ in 0..walks {
                let origin = online_peer(&live, n, &mut rng);
                let article = rng.random_range(0..articles);
                let holder = |p| content.is_holder(article, p);
                let Ok(mut walk) = RandomWalk::begin(
                    &topo,
                    origin,
                    cfg.walkers,
                    u64::from(cfg.walk_budget_factor) * n as u64,
                    holder,
                    &live,
                    &mut visited,
                ) else {
                    continue;
                };
                while walk.wave(&topo, holder, &live, &mut rng, &mut metrics, &mut visited)
                    == WalkWave::InProgress
                {}
            }
            metrics.totals()[MessageKind::WalkStep] - before
        },
    );

    // --- pdht_overlay ------------------------------------------------
    if shape.nap >= 2 {
        let t = Instant::now();
        let mut overlay: Box<dyn Overlay> = match cfg.overlay {
            OverlayKind::Trie => Box::new(TrieOverlay::build(shape.nap, repl, &mut rng).unwrap()),
            OverlayKind::Chord => Box::new(ChordOverlay::build(shape.nap, repl, &mut rng).unwrap()),
            OverlayKind::Kademlia => {
                Box::new(KademliaOverlay::build(shape.nap, repl, &mut rng).unwrap())
            }
        };
        costs.set("overlay.build_s", t.elapsed().as_secs_f64());

        let lookups = scale(4000);
        timed(
            tracer,
            &mut costs,
            "overlay.route.ns_per_hop",
            || (),
            |()| {
                let before = metrics.totals()[MessageKind::RouteHop];
                for _ in 0..lookups {
                    let from = online_peer(&live, shape.nap, &mut rng);
                    let key = Key::hash_bytes(&rng.random::<u64>().to_le_bytes());
                    let mut state = overlay.begin_lookup(from, key);
                    while let Ok(HopOutcome::Forwarded(_)) =
                        overlay.next_hop(key, &mut state, &live, &mut rng, &mut metrics)
                    {
                    }
                }
                metrics.totals()[MessageKind::RouteHop] - before
            },
        );

        // The engine's calibration: env·log2(nap) probes per peer-second.
        let entries: usize =
            (0..shape.nap).map(|p| overlay.routing_entries(PeerId::from_idx(p))).sum();
        let probe_rate =
            (s.env * (shape.nap as f64).log2() * shape.nap as f64 / entries.max(1) as f64).min(1.0);
        // Ticks fire in jittered-offset order, i.e. a random walk over the
        // peers' routing tables; sweeping them in allocation order would
        // flatter the cost with a prefetcher the engine never gets.
        let mut order: Vec<PeerId> = (0..shape.nap).map(PeerId::from_idx).collect();
        order.shuffle(&mut rng);
        order.truncate(scale(shape.nap as u64) as usize);
        let mut scratch = PlanScratch::new();
        let mut repairs = Vec::new();
        timed(
            tracer,
            &mut costs,
            "overlay.maint.ns_per_peer_step",
            || (),
            |()| {
                // One lane's tick is `maintenance_step` on the single-lane
                // path and plan-then-apply-at-the-barrier on the sharded one.
                if cfg.shards == 1 {
                    for &p in &order {
                        overlay.maintenance_step(p, probe_rate, &live, &mut rng, &mut metrics);
                    }
                } else {
                    repairs.clear();
                    for &p in &order {
                        overlay.maintenance_plan(
                            p,
                            probe_rate,
                            &live,
                            &mut rng,
                            &mut metrics,
                            &mut scratch,
                            &mut repairs,
                        );
                    }
                    overlay.maintenance_apply(&repairs, &live);
                }
                order.len() as u64
            },
        );
    } else {
        for absent in
            ["overlay.build_s", "overlay.route.ns_per_hop", "overlay.maint.ns_per_peer_step"]
        {
            costs.set_opt(absent, None);
        }
    }
    let rounds = scale(200);
    timed(
        tracer,
        &mut costs,
        "overlay.churn.ns_per_round",
        || (ChurnModel::new(n, cfg.churn, &mut streams.stream("benchmark-churn")), Vec::new()),
        |(mut churn, mut transitions)| {
            for _ in 0..rounds {
                transitions.clear();
                churn.step_second_into(&mut rng, &mut transitions);
            }
            rounds
        },
    );

    // --- pdht_sim ----------------------------------------------------
    // Hold model at the workload's resident population: one maintenance
    // tick per active peer, plus one TTL sweep each under Partial.
    let sweeps = if cfg.strategy == Strategy::Partial { 2 } else { 1 };
    let resident = (shape.nap as u64 * sweeps).max(1024);
    let delay = |i: u64| SimTime::from_micros(mix64(0xd15b_a7c4, i) % 2_000_000 + 1);
    let cycles = scale(200_000);
    timed(
        tracer,
        &mut costs,
        "sim.queue.ns_per_event",
        || {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..resident {
                q.schedule_in(delay(i), i);
            }
            q
        },
        |mut q| {
            let mut acc = 0u64;
            for i in 0..cycles {
                let ev = q.pop().expect("resident population");
                acc = acc.wrapping_add(ev.event);
                q.schedule_in(delay(resident + i), ev.event);
            }
            std::hint::black_box(acc);
            cycles
        },
    );
    let cycles = scale(200_000);
    timed(
        tracer,
        &mut costs,
        "sim.slab.ns_per_park_take",
        || Slab::<[u64; 8]>::with_capacity(64),
        |mut slab| {
            // The query lifecycle: reserve at issue, park per in-flight
            // hop, take on arrival, free on resolve — two park/take pairs.
            for _ in 0..cycles {
                let id = slab.reserve();
                slab.park(id, [id; 8]);
                let ctx = slab.take(id).expect("parked");
                slab.park(id, ctx);
                std::hint::black_box(slab.take(id));
                slab.free(id);
            }
            2 * cycles
        },
    );
    let model: Box<dyn LatencyModel> = match cfg.latency {
        LatencyConfig::Zero => Box::new(ZeroLatency),
        LatencyConfig::Uniform { lo_ms, hi_ms } => Box::new(UniformLatency::new(
            SimTime::from_secs_f64(lo_ms / 1e3),
            SimTime::from_secs_f64(hi_ms / 1e3),
        )),
        LatencyConfig::LogNormal { median_ms, sigma } => {
            Box::new(LogNormalLatency::new(SimTime::from_secs_f64(median_ms / 1e3), sigma))
        }
    };
    let fills = scale(200);
    let mut delays = vec![SimTime::ZERO; 1024];
    timed(
        tracer,
        &mut costs,
        "sim.latency.ns_per_sample",
        || (),
        |()| {
            for _ in 0..fills {
                model.sample_batch(&mut rng, &mut delays);
                std::hint::black_box(&delays);
            }
            fills * delays.len() as u64
        },
    );
    // Barrier merge: LANES sources of per-destination sorted runs, a tenth
    // of the messages crossing shards (queries are dealt to their key's
    // group shard, so most stay local).
    let per_lane = scale(1024);
    let mut bufs: MergeBuffers<u64> = MergeBuffers::new(LANES);
    timed(
        tracer,
        &mut costs,
        "sim.merge.ns_per_msg",
        || {
            let mut outboxes: Vec<Outbox<u64>> =
                (0..LANES).map(|src| Outbox::new(src as u32)).collect();
            for (src, outbox) in outboxes.iter_mut().enumerate() {
                for i in 0..per_lane {
                    let r = mix64(src as u64, i);
                    let dest =
                        if r.is_multiple_of(10) { (r >> 32) % LANES as u64 } else { src as u64 }
                            as u32;
                    outbox.push(dest, SimTime::from_micros(i * 977 + r % 977 + 1), r);
                }
            }
            outboxes
        },
        |mut outboxes| {
            merge_outboxes_into(outboxes.iter_mut(), &mut bufs);
            bufs.total() as u64
        },
    );
    let passes = scale(2000);
    let pool = ShardPool::new(shape.threads);
    let mut lanes = [0u64; LANES];
    timed(
        tracer,
        &mut costs,
        "sim.shard_pool.ns_per_pass",
        || (),
        |()| {
            for _ in 0..passes {
                pool.run(&mut lanes, |_, lane| *lane = lane.wrapping_add(1));
            }
            std::hint::black_box(&lanes);
            passes
        },
    );
    drop(pool);

    // --- pdht_gossip -------------------------------------------------
    let members: Vec<PeerId> = (0..repl as u32).map(PeerId).collect();
    let group = ReplicaGroup::new(members, &mut rng).expect("replica group builds");
    // The engine's waves each meet their own group in its own state: one
    // liveness map per replayed wave, not one draw for the whole run (the
    // push cost moved 2x from seed to seed with which members that draw
    // had taken offline).
    let mut live_rng = streams.stream("benchmark-group-liveness");
    let mut group_lives = |waves: u64| -> Vec<Liveness> {
        (0..waves)
            .map(|_| {
                let mut live = liveness(repl, cfg.churn.availability(), &mut live_rng);
                live.set(PeerId(0), true); // an offline origin makes the wave inert
                live
            })
            .collect()
    };
    let (codec, gen) = (cfg.gossip_codec, cfg.gossip_generation);
    let mut wave_pool = WavePool::new();
    let mut fresh = vec![false; repl];
    let waves = scale(64);
    timed(
        tracer,
        &mut costs,
        "gossip.push.ns_per_msg",
        || group_lives(waves),
        |lives| {
            let before = metrics.totals()[MessageKind::GossipPush];
            for group_live in &lives {
                fresh.fill(true);
                let mut deliver = |m: usize| std::mem::replace(&mut fresh[m], false);
                let mut wave = group.push_begin(
                    PeerId(0),
                    codec,
                    gen,
                    &mut deliver,
                    group_live,
                    &mut wave_pool,
                );
                while !group.push_wave(
                    &mut wave,
                    codec,
                    &mut deliver,
                    group_live,
                    &mut rng,
                    &mut metrics,
                    &mut wave_pool,
                ) {}
                group.pull_missing(
                    &mut wave,
                    &mut deliver,
                    group_live,
                    &mut rng,
                    &mut metrics,
                    &mut wave_pool,
                );
                wave.release(&mut wave_pool);
            }
            metrics.totals()[MessageKind::GossipPush] - before
        },
    );
    let floods = scale(512);
    timed(
        tracer,
        &mut costs,
        "gossip.flood.ns_per_msg",
        || group_lives(floods),
        |lives| {
            let mut msgs = 0;
            for group_live in &lives {
                let mut wave = group.flood_begin(PeerId(0), |_| false, group_live, &mut wave_pool);
                while !group.flood_wave(
                    &mut wave,
                    |_| false,
                    group_live,
                    &mut metrics,
                    &mut wave_pool,
                ) {}
                msgs += wave.messages();
            }
            msgs
        },
    );
    // GF(256) at the coefficient-row length the decoders actually touch.
    let src: Vec<u8> = (0..gen).map(|_| rng.random::<u8>()).collect();
    let mut dst: Vec<u8> = (0..gen).map(|_| rng.random::<u8>()).collect();
    let sweeps = scale(256);
    timed(
        tracer,
        &mut costs,
        "gossip.gf.axpy_ns_per_byte",
        || (),
        |()| {
            // Every nonzero multiplier per sweep: row elimination picks a
            // fresh one per pivot, so the per-multiplier table build is on
            // the clock.
            for _ in 0..sweeps {
                for f in 1..=255u8 {
                    gf_axpy(&mut dst, &src, f);
                }
            }
            std::hint::black_box(&dst);
            sweeps * 255 * gen as u64
        },
    );
    let fills = scale(256) as usize;
    let source = Decoder::full(gen);
    timed(
        tracer,
        &mut costs,
        "gossip.gf.decoder_ns_per_row",
        || -> Vec<CoeffVec> {
            (0..fills * 2 * gen)
                .map(|_| match codec {
                    GossipCodec::RlncSparse => source.encode_sparse(&mut rng),
                    _ => source.encode(&mut rng),
                })
                .collect()
        },
        |packets| {
            let mut rows = 0u64;
            for fill in packets.chunks(2 * gen) {
                let mut sink = Decoder::empty(gen);
                for packet in fill {
                    if sink.is_complete() {
                        break;
                    }
                    sink.insert(*packet);
                    rows += 1;
                }
                std::hint::black_box(sink.rank());
            }
            rows
        },
    );

    // --- pdht_core::PartialIndex ------------------------------------
    let stor = s.stor as usize;
    let value = |i: u64| VersionedValue { version: 1, data: i };
    let key = |i: u64| Key::hash_bytes(&i.to_le_bytes());
    let filled = |count: usize, ttl: &dyn Fn(u64) -> u64| {
        let mut index = PartialIndex::new(2 * stor);
        for i in 0..count as u64 {
            index.insert(i as u32, key(i), value(i), 0, Ttl::Rounds(ttl(i)));
        }
        index
    };
    // A query probes the store of whichever peer it was routed to, so the
    // replay hops across many full stores instead of hammering one hot one.
    let stores = scale(1024) as usize;
    let gets = scale(100_000);
    timed(
        tracer,
        &mut costs,
        "core.index.ns_per_get",
        || (0..stores).map(|_| filled(stor, &|_| 1_000_000)).collect::<Vec<_>>(),
        |mut indexes| {
            for now in 1..=gets {
                let r = mix64(0x1d3, now);
                std::hint::black_box(indexes[r as usize % stores].get_and_refresh(
                    ((r >> 32) % stor as u64) as u32,
                    now,
                    Ttl::Rounds(1_000_000),
                ));
            }
            gets
        },
    );
    timed(
        tracer,
        &mut costs,
        "core.index.ns_per_insert",
        || filled(stor, &|_| 1_000),
        |mut index| {
            // Fresh keys into a store with room: the selection algorithm's
            // insert-on-miss.
            for i in stor as u64..2 * stor as u64 {
                std::hint::black_box(index.insert(i as u32, key(i), value(i), 1, Ttl::Rounds(500)));
            }
            stor as u64
        },
    );
    let mut purged = Vec::with_capacity(2 * stor);
    timed(
        tracer,
        &mut costs,
        "core.index.ns_per_purge_entry",
        || filled(2 * stor, &|i| if i % 2 == 0 { 10 } else { 1_000 }),
        |mut index| {
            purged.clear();
            index.purge_expired_into(100, &mut purged);
            purged.len() as u64
        },
    );

    // --- pdht_workload / pdht_zipf / pdht_types ----------------------
    let workload = QueryWorkload::new(s.keys as usize, s.alpha, s.num_peers, cfg.f_qry, None)
        .expect("valid workload shape");
    let wanted = scale(50_000);
    timed(
        tracer,
        &mut costs,
        "workload.queries.ns_per_query",
        || (),
        |()| {
            let (mut made, mut round) = (0u64, 0u64);
            while made < wanted && round < 100_000 {
                made += workload.round_queries_range(round, &mut rng, 0, s.num_peers).len() as u64;
                round += 1;
            }
            made
        },
    );
    let samples = scale(200_000);
    timed(
        tracer,
        &mut costs,
        "zipf.sample.ns",
        || (),
        |()| {
            let mut acc = 0usize;
            for _ in 0..samples {
                acc = acc.wrapping_add(workload.zipf().sample(&mut rng));
            }
            std::hint::black_box(acc);
            samples
        },
    );
    // Pre-drawn probe sequence, so the word test is priced, not the RNG.
    let probes: Vec<PeerId> = (0..1024).map(|_| PeerId(rng.random_range(0..n as u32))).collect();
    let sweeps = scale(200);
    timed(
        tracer,
        &mut costs,
        "types.liveness.ns_per_probe",
        || (),
        |()| {
            let mut online = 0u32;
            for _ in 0..sweeps {
                for &p in &probes {
                    online += u32::from(live.is_online(p));
                }
            }
            std::hint::black_box(online);
            sweeps * probes.len() as u64
        },
    );
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    /// The ledger prices each layer by the name its cost was stored under,
    /// so a replay's span and its metric must be one name: every span of a
    /// replay is a declared per-layer metric, measured, and each of the
    /// gossip layer's three kernels is there under its own.
    #[test]
    fn every_replay_span_is_the_metric_its_cost_is_stored_under() {
        let cfg = crate::workloads::by_name("gossip_coded").expect("workload").config(1);
        let shape = Shape { cfg: &cfg, nap: 2000, threads: 1, shrink: 200 };
        let mut tracer = Tracer::new();
        let costs = replay_all(&shape, &mut tracer);
        let spans: std::collections::BTreeSet<&str> = tracer.names().collect();
        assert_eq!(spans.len(), 19, "{spans:?}");
        for span in &spans {
            assert!(PER_LAYER.iter().any(|d| d.name == *span), "{span} is not a per-layer metric");
            assert!(costs.get(span).is_some_and(|ns| ns > 0.0), "{span} has no cost");
        }
        for kernel in [
            "gossip.flood.ns_per_msg",
            "gossip.gf.axpy_ns_per_byte",
            "gossip.gf.decoder_ns_per_row",
        ] {
            assert!(spans.contains(kernel), "{kernel}");
        }
    }
}
