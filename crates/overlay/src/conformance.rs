//! A reusable conformance suite for [`Overlay`] implementations.
//!
//! The [`Overlay`] trait documents invariants — a disjoint replica
//! partition, hop accounting, routing termination, resumable stepping —
//! that every substrate must uphold for the engine to hold it as a
//! `Box<dyn Overlay>`. This module property-checks that contract against
//! any factory, so each invariant lives in exactly one place instead of
//! being re-asserted ad hoc per substrate.
//!
//! Usage (one line per substrate, no per-overlay assertions):
//!
//! ```
//! use pdht_overlay::{conformance_suite, TrieOverlay};
//!
//! conformance_suite!(trie, |n, g, rng| {
//!     Box::new(TrieOverlay::build(n, g, rng).expect("trie builds"))
//! });
//! # fn main() {}
//! ```
//!
//! The macro expands to one `#[test]` per invariant (named after the
//! check), so a failing substrate reports *which* contract clause broke.
//! New substrates plug in by adding one `conformance_suite!` invocation —
//! see `crates/overlay/tests/conformance.rs` for the three current ones.

use crate::traits::{HopOutcome, Overlay};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, MessageKind, PdhtError, PeerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a fresh overlay over `n` peers with target replica-group size
/// `group_size`, drawing construction randomness from `rng`. Must be
/// deterministic: the same `(n, group_size)` and rng state must yield an
/// identically-behaving overlay.
pub type Factory = fn(n: usize, group_size: usize, rng: &mut SmallRng) -> Box<dyn Overlay>;

/// The `(n, group_size, seed)` shapes every check runs over: a two-peer
/// degenerate, a group-sized single-group overlay, an uneven ratio, and an
/// experiment-sized population.
const SHAPES: [(usize, usize, u64); 4] = [(2, 2, 11), (48, 64, 12), (257, 8, 13), (600, 16, 14)];

fn build(factory: Factory, n: usize, g: usize, seed: u64) -> Box<dyn Overlay> {
    factory(n, g, &mut SmallRng::seed_from_u64(seed))
}

/// Deterministic pseudo-random keys decorrelated from build seeds.
fn keys_for(seed: u64, count: usize) -> Vec<Key> {
    let mut r = SmallRng::seed_from_u64(seed ^ 0x1357_9bdf_2468_ace0);
    (0..count).map(|_| Key(r.random::<u64>())).collect()
}

/// Groups are disjoint, non-empty, and jointly cover all active peers;
/// `group_of_peer` agrees with membership.
pub fn check_partition_disjoint_and_covering(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        assert_eq!(o.num_active(), n, "num_active must report the population");
        assert!(o.group_count() >= 1, "at least one replica group");
        let mut owner: Vec<Option<usize>> = vec![None; n];
        for group in 0..o.group_count() {
            let members = o.group_members(group);
            assert!(!members.is_empty(), "group {group} is empty (n={n}, g={g})");
            for &m in members {
                assert!(m.idx() < n, "member out of population");
                assert_eq!(
                    owner[m.idx()].replace(group),
                    None,
                    "peer {m} appears in two groups (n={n}, g={g})"
                );
                assert_eq!(
                    o.group_of_peer(m),
                    group,
                    "group_of_peer disagrees with group_members (n={n}, g={g})"
                );
            }
        }
        assert!(
            owner.iter().all(Option::is_some),
            "groups must jointly cover every peer (n={n}, g={g})"
        );
    }
}

/// Every key maps into range; `responsible_group` equals the members of
/// `group_of_key`; `is_responsible` holds exactly on that group.
pub fn check_key_responsibility(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        for key in keys_for(seed, 40) {
            let kg = o.group_of_key(key);
            assert!(kg < o.group_count(), "group_of_key out of range");
            assert_eq!(
                o.responsible_group(key),
                o.group_members(kg).to_vec(),
                "responsible_group must be group_members(group_of_key)"
            );
            for p in (0..n).map(PeerId::from_idx) {
                assert_eq!(
                    o.is_responsible(p, key),
                    o.group_of_peer(p) == kg,
                    "is_responsible must hold exactly on the key's group (peer {p})"
                );
            }
        }
    }
}

/// With everyone online, lookups from any start terminate at a responsible
/// peer, and `next_hop` at a responsible peer reports `Arrived` without
/// consuming hops, budget, or messages.
pub fn check_routing_terminates_exactly_at_responsibility(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        let live = Liveness::all_online(n);
        let mut r = SmallRng::seed_from_u64(seed ^ 0xA0);
        let mut m = Metrics::new();
        for key in keys_for(seed, 25) {
            let from = PeerId::from_idx(r.random_range(0..n));
            let out = o.lookup(from, key, &live, &mut r, &mut m).expect("all-online lookup");
            assert!(o.is_responsible(out.peer, key), "lookup must end on a responsible peer");

            // Termination is *exactly* responsibility: stepping from the
            // arrival peer is a free no-op arrival.
            let mut st = o.begin_lookup(out.peer, key);
            let before = (st.hops, st.budget, m.totals()[MessageKind::RouteHop]);
            match o.next_hop(key, &mut st, &live, &mut r, &mut m).expect("arrived step") {
                HopOutcome::Arrived(p) => assert!(o.is_responsible(p, key)),
                HopOutcome::Forwarded(_) => panic!("responsible peer must not forward"),
            }
            assert_eq!(
                (st.hops, st.budget, m.totals()[MessageKind::RouteHop]),
                before,
                "arrival detection must cost nothing"
            );
        }
    }
}

/// `lookup` is exactly `next_hop` driven to completion: same arrival peer,
/// same hop count, same message accounting, given identical rng states.
pub fn check_lookup_equals_stepping(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let o = build(factory, n, g, seed);
        let live = Liveness::all_online(n);
        let mut pick = SmallRng::seed_from_u64(seed ^ 0xB0);
        for key in keys_for(seed, 25) {
            let from = PeerId::from_idx(pick.random_range(0..n));
            let hop_seed = pick.random::<u64>();

            let mut m1 = Metrics::new();
            let one_shot = o
                .lookup(from, key, &live, &mut SmallRng::seed_from_u64(hop_seed), &mut m1)
                .expect("lookup");

            let mut r2 = SmallRng::seed_from_u64(hop_seed);
            let mut m2 = Metrics::new();
            let mut st = o.begin_lookup(from, key);
            let arrived = loop {
                match o.next_hop(key, &mut st, &live, &mut r2, &mut m2).expect("step") {
                    HopOutcome::Arrived(p) => break p,
                    HopOutcome::Forwarded(p) => {
                        assert_eq!(p, st.current, "Forwarded must report the new current peer");
                    }
                }
            };
            assert_eq!(arrived, one_shot.peer, "stepping must arrive where lookup did");
            assert_eq!(st.hops, one_shot.hops, "stepping must cost what lookup cost");
            assert_eq!(
                m1.totals()[MessageKind::RouteHop],
                m2.totals()[MessageKind::RouteHop],
                "metrics must agree between lookup and stepping"
            );
        }
    }
}

/// The churned shape: `(n, group_size, seed)` with a fifth of the peers
/// offline (see [`offline_fifth`]).
const CHURNED: (usize, usize, u64) = (600, 16, 21);

/// Liveness over `n` peers with each peer offline with probability 0.2.
fn offline_fifth(n: usize, r: &mut SmallRng) -> Liveness {
    let mut live = Liveness::all_online(n);
    for i in 0..n {
        if r.random::<f64>() < 0.2 {
            live.set(PeerId::from_idx(i), false);
        }
    }
    live
}

/// A uniformly drawn online peer.
fn online_start(n: usize, live: &Liveness, r: &mut SmallRng) -> PeerId {
    loop {
        let c = PeerId::from_idx(r.random_range(0..n));
        if live.is_online(c) {
            break c;
        }
    }
}

/// Hop accounting is monotone and message-backed: every `Forwarded` step
/// increases `state.hops` by at least one, and the metrics' `RouteHop`
/// total advances in lockstep with it after **every** `next_hop` call —
/// arrivals, forwards past stale references, and dead-ends alike (callers
/// re-price a step as `state.hops` delta, so a hop recorded without the
/// bump, or the reverse, would silently drop or invent messages). Runs
/// all-online over `SHAPES` and with a fifth of the peers offline over
/// `CHURNED`, where wasted attempts and failing steps actually occur.
pub fn check_hop_accounting_is_monotone(factory: Factory) {
    for (n, g, seed) in SHAPES.into_iter().chain([CHURNED]) {
        let churned = (n, g, seed) == CHURNED;
        let o = build(factory, n, g, seed);
        let mut r = SmallRng::seed_from_u64(seed ^ 0xC0);
        let live = if churned { offline_fifth(n, &mut r) } else { Liveness::all_online(n) };
        let mut m = Metrics::new();
        let mut wasted = 0u32;
        for key in keys_for(seed, if churned { 200 } else { 25 }) {
            let from = online_start(n, &live, &mut r);
            let mut st = o.begin_lookup(from, key);
            assert_eq!(st.hops, 0, "a fresh lookup has spent nothing");
            let base = m.totals()[MessageKind::RouteHop];
            loop {
                let before = st.hops;
                let step = o.next_hop(key, &mut st, &live, &mut r, &mut m);
                assert_eq!(
                    m.totals()[MessageKind::RouteHop] - base,
                    u64::from(st.hops),
                    "RouteHop messages must track state.hops exactly after {step:?}"
                );
                match step {
                    Ok(HopOutcome::Arrived(_)) => {
                        assert_eq!(st.hops, before, "arrival must not add hops");
                        break;
                    }
                    Ok(HopOutcome::Forwarded(_)) => {
                        assert!(st.hops > before, "every forward costs at least one hop");
                        wasted += st.hops - before - 1;
                    }
                    Err(PdhtError::LookupFailed { .. }) if churned => break,
                    Err(e) => panic!("unexpected routing failure (n={n}, g={g}): {e}"),
                }
            }
        }
        assert_eq!(wasted > 0, churned, "only stale references waste attempts (n={n}, g={g})");
    }
}

/// Identical seeds yield identical overlays and identical lookup outcomes
/// (arrival peers and hop counts) across independent builds.
pub fn check_determinism_under_fixed_seeds(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let run = || {
            let o = build(factory, n, g, seed);
            let live = Liveness::all_online(n);
            let mut r = SmallRng::seed_from_u64(seed ^ 0xD0);
            let mut m = Metrics::new();
            let mut trace = Vec::new();
            for key in keys_for(seed, 25) {
                let from = PeerId::from_idx(r.random_range(0..n));
                let out = o.lookup(from, key, &live, &mut r, &mut m).expect("lookup");
                trace.push((out.peer, out.hops));
            }
            (trace, m.totals()[MessageKind::RouteHop])
        };
        assert_eq!(run(), run(), "same seeds must reproduce routing exactly (n={n}, g={g})");
    }
}

/// Under churn, routing degrades gracefully: from online starts, most
/// lookups still succeed, every success lands on an *online* responsible
/// peer, and every failure is a clean [`PdhtError::LookupFailed`].
pub fn check_liveness_under_churn(factory: Factory) {
    let (n, g, seed) = CHURNED;
    let o = build(factory, n, g, seed);
    // Decorrelated from the build stream (a shared stream can correlate the
    // offline coin flips with construction randomness).
    let mut r = SmallRng::seed_from_u64(seed ^ 0xE0E0);
    let live = offline_fifth(n, &mut r);
    let mut m = Metrics::new();
    let trials = 200u32;
    let mut ok = 0u32;
    for key in keys_for(seed, trials as usize) {
        let from = online_start(n, &live, &mut r);
        match o.lookup(from, key, &live, &mut r, &mut m) {
            Ok(out) => {
                assert!(live.is_online(out.peer), "lookups must terminate at online peers");
                assert!(o.is_responsible(out.peer, key), "churn must not break responsibility");
                ok += 1;
            }
            Err(PdhtError::LookupFailed { .. }) => {}
            Err(e) => panic!("routing dead-ends must be LookupFailed, got {e}"),
        }
    }
    assert!(ok > trials * 7 / 10, "most lookups should survive 20% churn, ok={ok}/{trials}");

    // Maintenance keeps the overlay usable: after heavy probing, routing
    // still works and probes were actually charged.
    let mut o = build(factory, n, g, seed);
    for _ in 0..10 {
        o.maintenance_round(0.3, &live, &mut r, &mut m);
    }
    assert!(m.totals()[MessageKind::Probe] > 0, "maintenance must charge probe messages");
    let mut ok_after = 0u32;
    for key in keys_for(seed ^ 1, 50) {
        let from = online_start(n, &live, &mut r);
        if let Ok(out) = o.lookup(from, key, &live, &mut r, &mut m) {
            assert!(o.is_responsible(out.peer, key));
            ok_after += 1;
        }
    }
    assert!(ok_after > 35, "repair must not degrade routing, ok={ok_after}/50");
}

/// `maintenance_round` is exactly `maintenance_step` swept in peer order:
/// with identically seeded rngs, two same-seed builds — one running the
/// whole-round sweep, one stepping peers individually — must charge the same
/// probe messages and leave identically-behaving routing tables. This is the
/// contract that lets event-driven engines schedule one `PeerMaintenance`
/// event per peer and still reproduce the sweep's accounting bit-for-bit.
pub fn check_maintenance_step_matches_round(factory: Factory) {
    for (n, g, seed) in SHAPES {
        let mut swept = build(factory, n, g, seed);
        let mut stepped = build(factory, n, g, seed);
        let mut live = Liveness::all_online(n);
        let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xF0F0);
        for i in 1..n {
            if churn_rng.random::<f64>() < 0.25 {
                live.set(PeerId::from_idx(i), false);
            }
        }
        // Peer 0 stays online so the lookup-source sampling below always
        // has a candidate (a fully-offline shape would spin forever).
        assert!(live.is_online(PeerId(0)));
        let maint_seed = seed ^ 0xF1;
        let mut m_swept = Metrics::new();
        let mut m_stepped = Metrics::new();
        let mut rng_swept = SmallRng::seed_from_u64(maint_seed);
        let mut rng_stepped = SmallRng::seed_from_u64(maint_seed);
        for _ in 0..5 {
            swept.maintenance_round(0.3, &live, &mut rng_swept, &mut m_swept);
            for p in 0..n {
                stepped.maintenance_step(
                    PeerId::from_idx(p),
                    0.3,
                    &live,
                    &mut rng_stepped,
                    &mut m_stepped,
                );
            }
        }
        assert_eq!(
            m_swept.totals()[MessageKind::Probe],
            m_stepped.totals()[MessageKind::Probe],
            "stepping must charge exactly the sweep's probes (n={n}, g={g})"
        );
        // The repaired tables must behave identically: same lookup traces
        // from identical rng states.
        let mut r1 = SmallRng::seed_from_u64(seed ^ 0xF2);
        let mut r2 = SmallRng::seed_from_u64(seed ^ 0xF2);
        for key in keys_for(seed ^ 2, 25) {
            let from = loop {
                let c = PeerId::from_idx(r1.random_range(0..n));
                let c2 = PeerId::from_idx(r2.random_range(0..n));
                assert_eq!(c, c2);
                if live.is_online(c) {
                    break c;
                }
            };
            let a = swept.lookup(from, key, &live, &mut r1, &mut m_swept);
            let b = stepped.lookup(from, key, &live, &mut r2, &mut m_stepped);
            match (a, b) {
                (Ok(oa), Ok(ob)) => {
                    assert_eq!((oa.peer, oa.hops), (ob.peer, ob.hops), "repaired tables diverged");
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("repaired tables diverged: {a:?} vs {b:?} (n={n}, g={g})"),
            }
        }
    }
}

/// `maintenance_plan` + `maintenance_apply` is exactly `maintenance_step`:
/// with identically seeded rngs, planning **every** peer first and replaying
/// the batched repairs afterwards must charge the same probes, leave the rng
/// in the same state (draw-for-draw parity), and produce identically-behaving
/// routing tables as stepping each peer in turn. This is the contract that
/// lets shard lanes plan their peers on worker threads and apply repairs at
/// the serial pass barrier without perturbing the stepping path's results.
pub fn check_maintenance_plan_apply_matches_step(factory: Factory) {
    use crate::traits::PlanScratch;
    for (n, g, seed) in SHAPES {
        let mut stepped = build(factory, n, g, seed);
        let mut planned = build(factory, n, g, seed);
        let mut live = Liveness::all_online(n);
        let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xF0F0);
        for i in 1..n {
            if churn_rng.random::<f64>() < 0.25 {
                live.set(PeerId::from_idx(i), false);
            }
        }
        assert!(live.is_online(PeerId(0)));
        let maint_seed = seed ^ 0xF3;
        let mut m_stepped = Metrics::new();
        let mut m_planned = Metrics::new();
        let mut rng_stepped = SmallRng::seed_from_u64(maint_seed);
        let mut rng_planned = SmallRng::seed_from_u64(maint_seed);
        let mut scratch = PlanScratch::new();
        let mut repairs = Vec::new();
        for _ in 0..5 {
            for p in 0..n {
                stepped.maintenance_step(
                    PeerId::from_idx(p),
                    0.3,
                    &live,
                    &mut rng_stepped,
                    &mut m_stepped,
                );
            }
            // Plan ALL peers before applying ANY repair — the batched shape
            // shard lanes use (plans collected on workers, applied at the
            // barrier).
            repairs.clear();
            for p in 0..n {
                planned.maintenance_plan(
                    PeerId::from_idx(p),
                    0.3,
                    &live,
                    &mut rng_planned,
                    &mut m_planned,
                    &mut scratch,
                    &mut repairs,
                );
            }
            planned.maintenance_apply(&repairs, &live);
            // Draw-for-draw parity, checked every round so a divergence is
            // caught at the pass that introduced it.
            assert_eq!(
                rng_planned.random::<u64>(),
                rng_stepped.random::<u64>(),
                "plan must consume rng exactly like step (n={n}, g={g})"
            );
        }
        assert_eq!(
            m_planned.totals()[MessageKind::Probe],
            m_stepped.totals()[MessageKind::Probe],
            "planning must charge exactly the stepping probes (n={n}, g={g})"
        );
        // Structural equality of the repaired tables, peer by peer.
        for p in (0..n).map(PeerId::from_idx) {
            assert_eq!(
                planned.routing_entries(p),
                stepped.routing_entries(p),
                "table sizes diverged at peer {p} (n={n}, g={g})"
            );
        }
        // And behavioural equality: identical lookup traces from identical
        // rng states.
        let mut r1 = SmallRng::seed_from_u64(seed ^ 0xF4);
        let mut r2 = SmallRng::seed_from_u64(seed ^ 0xF4);
        for key in keys_for(seed ^ 3, 25) {
            let from = loop {
                let c = PeerId::from_idx(r1.random_range(0..n));
                let c2 = PeerId::from_idx(r2.random_range(0..n));
                assert_eq!(c, c2);
                if live.is_online(c) {
                    break c;
                }
            };
            let a = stepped.lookup(from, key, &live, &mut r1, &mut m_stepped);
            let b = planned.lookup(from, key, &live, &mut r2, &mut m_planned);
            match (a, b) {
                (Ok(oa), Ok(ob)) => {
                    assert_eq!((oa.peer, oa.hops), (ob.peer, ob.hops), "repaired tables diverged");
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("repaired tables diverged: {a:?} vs {b:?} (n={n}, g={g})"),
            }
        }
    }
}

/// Expands to a module of `#[test]`s — one per conformance invariant — for
/// the given overlay factory. See the module docs for usage.
#[macro_export]
macro_rules! conformance_suite {
    ($name:ident, $factory:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            const FACTORY: $crate::conformance::Factory = $factory;

            #[test]
            fn partition_disjoint_and_covering() {
                $crate::conformance::check_partition_disjoint_and_covering(FACTORY);
            }

            #[test]
            fn key_responsibility() {
                $crate::conformance::check_key_responsibility(FACTORY);
            }

            #[test]
            fn routing_terminates_exactly_at_responsibility() {
                $crate::conformance::check_routing_terminates_exactly_at_responsibility(FACTORY);
            }

            #[test]
            fn lookup_equals_stepping() {
                $crate::conformance::check_lookup_equals_stepping(FACTORY);
            }

            #[test]
            fn hop_accounting_is_monotone() {
                $crate::conformance::check_hop_accounting_is_monotone(FACTORY);
            }

            #[test]
            fn determinism_under_fixed_seeds() {
                $crate::conformance::check_determinism_under_fixed_seeds(FACTORY);
            }

            #[test]
            fn liveness_under_churn() {
                $crate::conformance::check_liveness_under_churn(FACTORY);
            }

            #[test]
            fn maintenance_step_matches_round() {
                $crate::conformance::check_maintenance_step_matches_round(FACTORY);
            }

            #[test]
            fn maintenance_plan_apply_matches_step() {
                $crate::conformance::check_maintenance_plan_apply_matches_step(FACTORY);
            }
        }
    };
}
