//! Integration tests for the message-granular engine: latency models,
//! in-flight queries, timeouts, and the event hook.

use pdht_core::{
    HookAction, HookPoint, LatencyConfig, OverlayKind, PdhtConfig, PdhtNetwork, RoundPhase,
    SimReport, Strategy,
};
use pdht_model::Scenario;
use proptest::prelude::*;

fn cfg(strategy: Strategy, latency: LatencyConfig) -> PdhtConfig {
    let mut c = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 30.0, strategy);
    c.latency = latency;
    c
}

fn cfg_on(kind: OverlayKind, strategy: Strategy, latency: LatencyConfig) -> PdhtConfig {
    let mut c = cfg(strategy, latency);
    c.overlay = kind;
    c
}

fn fingerprint(r: &SimReport) -> (u64, String, u64, u64, u64) {
    let hops = r.query_hops.expect("hops histogram populated");
    let lat = r.query_latency_us.expect("latency histogram populated");
    (
        hops.count,
        format!("{:.6}|{:.6}", r.msgs_per_round, r.p_indexed),
        hops.p50 + hops.p95 * 1_000 + hops.p99 * 1_000_000,
        lat.p50,
        lat.p95 + lat.p99,
    )
}

fn run(c: PdhtConfig, rounds: u64) -> (SimReport, usize) {
    let mut net = PdhtNetwork::new(c).expect("network builds");
    net.run(rounds);
    let inflight = net.queries_in_flight();
    (net.report(0, rounds - 1), inflight)
}

#[test]
fn nonzero_latency_populates_deterministic_histograms() {
    let model = LatencyConfig::LogNormal { median_ms: 40.0, sigma: 0.6 };
    let (a, _) = run(cfg(Strategy::Partial, model), 25);
    let (b, _) = run(cfg(Strategy::Partial, model), 25);

    let hops = a.query_hops.expect("hops populated");
    let lat = a.query_latency_us.expect("latency populated");
    assert!(hops.count > 0, "queries must be measured");
    assert!(hops.p99 >= hops.p95 && hops.p95 >= hops.p50);
    assert!(lat.p50 > 0, "non-zero model must produce non-zero latency");
    assert!(lat.p99 >= lat.p95 && lat.p95 >= lat.p50);

    assert_eq!(fingerprint(&a), fingerprint(&b), "same seed + model must reproduce exactly");
}

#[test]
fn zero_latency_histograms_report_hops_but_no_delay() {
    let (r, inflight) = run(cfg(Strategy::Partial, LatencyConfig::Zero), 25);
    let hops = r.query_hops.expect("hops populated");
    let lat = r.query_latency_us.expect("latency populated");
    assert!(hops.count > 0);
    assert_eq!(hops.count, lat.count);
    assert!(hops.p95 > 0, "multi-stage queries take steps even at zero delay");
    assert_eq!(lat.max, 0, "zero latency means zero virtual delay");
    assert_eq!(inflight, 0, "zero-delay queries resolve inline");
}

#[test]
fn slow_networks_leave_queries_in_flight_across_rounds() {
    // Hop delays comparable to the round length: some queries must still be
    // unresolved when their round ends, and resolve in later rounds — on
    // every overlay substrate.
    for kind in OverlayKind::ALL {
        let model = LatencyConfig::Uniform { lo_ms: 300.0, hi_ms: 900.0 };
        let mut net = PdhtNetwork::new(cfg_on(kind, Strategy::Partial, model)).expect("builds");
        let mut saw_inflight = false;
        for _ in 0..30 {
            net.step_round();
            saw_inflight |= net.queries_in_flight() > 0;
        }
        assert!(saw_inflight, "{kind:?}: sub-second hops at 1s rounds must span rounds");
        let r = net.report(0, 29);
        let lat = r.query_latency_us.expect("latency populated");
        assert!(
            lat.max >= 1_000_000,
            "{kind:?}: multi-hop queries at ~600ms/hop must exceed one round, got {} us",
            lat.max
        );
        assert!(r.p_indexed > 0.0, "{kind:?}: pipeline still answers queries");
    }
}

#[test]
fn timeouts_abandon_slow_queries() {
    for kind in OverlayKind::ALL {
        let mut c =
            cfg_on(kind, Strategy::Partial, LatencyConfig::Uniform { lo_ms: 200.0, hi_ms: 400.0 });
        c.query_timeout_secs = Some(0.5);
        let (r, _) = run(c, 30);
        assert!(r.query_timeouts > 0, "{kind:?}: sub-second budget at ~300ms/hop must time out");

        // Without a timeout nothing is abandoned.
        let (r2, _) = run(cfg_on(kind, Strategy::Partial, LatencyConfig::Zero), 30);
        assert_eq!(r2.query_timeouts, 0, "{kind:?}");
    }
}

#[test]
fn hook_injects_blackout_between_churn_and_queries() {
    // The hook fires before every phase; returning a blackout action before
    // round 10's Queries phase (i.e. after its Churn ran) must knock peers
    // out exactly then — visible as a skipped-query spike in that round.
    let mut net = PdhtNetwork::new(cfg(Strategy::Partial, LatencyConfig::Zero)).expect("builds");
    net.set_event_hook(Box::new(|point| match point {
        HookPoint::BeforePhase { round: 10, phase: RoundPhase::Queries } => {
            vec![HookAction::Blackout { fraction: 0.8 }]
        }
        _ => Vec::new(),
    }));
    net.run(12);
    let before = net.report(0, 9);
    let at = net.report(10, 10);
    assert_eq!(before.skipped_offline, 0, "no churn configured before the blackout");
    assert!(
        at.skipped_offline > 0,
        "80% blackout right before the query phase must skip offline origins"
    );
    assert!(at.availability < 0.5, "availability gauge must see the blackout");
}

#[test]
fn hook_fires_before_the_phase_its_background_events_follow() {
    // BeforePhase{OverlayMaintenance} must observe the instant *before*
    // that round's per-peer maintenance ticks dispatch: a total blackout
    // injected there silences that round's probes entirely.
    let mut net = PdhtNetwork::new(cfg(Strategy::IndexAll, LatencyConfig::Zero)).expect("builds");
    net.set_event_hook(Box::new(|point| match point {
        HookPoint::BeforePhase { round: 5, phase: RoundPhase::OverlayMaintenance } => {
            vec![HookAction::Blackout { fraction: 1.0 }]
        }
        _ => Vec::new(),
    }));
    net.run(6);
    let probes = |r: &pdht_core::SimReport| -> f64 {
        r.by_kind
            .iter()
            .filter(|(k, _)| *k == pdht_types::MessageKind::Probe)
            .map(|&(_, v)| v)
            .sum()
    };
    assert!(probes(&net.report(4, 4)) > 0.0, "maintenance must probe before the blackout");
    assert_eq!(
        probes(&net.report(5, 5)),
        0.0,
        "a blackout at BeforePhase(OverlayMaintenance) must silence that round's probes"
    );
}

#[test]
fn hook_observes_message_events_under_latency() {
    use std::cell::RefCell;
    use std::rc::Rc;
    for shards in [1u32, 4] {
        let seen = Rc::new(RefCell::new((0u64, 0u64)));
        let seen_hook = Rc::clone(&seen);
        let mut c = cfg(Strategy::Partial, LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 });
        c.shards = shards;
        let mut net = PdhtNetwork::new(c).expect("builds");
        net.set_event_hook(Box::new(move |point| {
            let mut s = seen_hook.borrow_mut();
            match point {
                HookPoint::BeforePhase { .. } => s.0 += 1,
                HookPoint::MessageDispatched { lane, .. } => {
                    assert!(lane < shards as usize);
                    s.1 += 1;
                }
            }
            Vec::new()
        }));
        net.run(5);
        let (phases, messages) = *seen.borrow();
        assert_eq!(phases, 5 * 6, "shards={shards}: six phases per round");
        assert!(messages > 0, "shards={shards}: per-hop events must be observable");
    }
}

#[test]
fn blackout_from_a_message_observation_is_thread_invariant() {
    // A fault injected from a message observation lands at the serial
    // barrier ending the pass, in (lane, time) replay order — so the run
    // stays a function of the shard count alone.
    let run_at = |threads: usize| {
        let mut c = cfg(Strategy::Partial, LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 });
        c.shards = 4;
        let mut net = PdhtNetwork::new(c).expect("builds");
        net.set_threads(threads);
        let mut fired = false;
        net.set_event_hook(Box::new(move |point| match point {
            HookPoint::MessageDispatched { round: 6, .. } if !fired => {
                fired = true;
                vec![HookAction::Blackout { fraction: 0.7 }]
            }
            _ => Vec::new(),
        }));
        net.run(10);
        assert_eq!(net.report(0, 5).skipped_offline, 0, "no churn before the blackout");
        (net.report(0, 9), net.events_dispatched(), net.indexed_keys())
    };
    let baseline = run_at(1);
    assert!(baseline.0.skipped_offline > 0, "the blackout must take origins offline");
    for threads in [2, 4] {
        assert_eq!(run_at(threads), baseline, "threads={threads} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any latency model preserves seeded determinism, for every strategy,
    /// on every overlay substrate.
    #[test]
    fn any_latency_model_preserves_seeded_determinism(
        seed in any::<u32>(),
        model_idx in 0usize..3,
        strat_idx in 0usize..3,
        overlay_idx in 0usize..3,
    ) {
        let model = [
            LatencyConfig::Zero,
            LatencyConfig::Uniform { lo_ms: 0.0, hi_ms: 30.0 },
            LatencyConfig::LogNormal { median_ms: 25.0, sigma: 0.8 },
        ][model_idx];
        let strategy = [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex][strat_idx];
        let overlay = OverlayKind::ALL[overlay_idx];
        let mk = || {
            let mut c = cfg_on(overlay, strategy, model);
            c.seed = u64::from(seed);
            c
        };
        let (a, a_inflight) = run(mk(), 12);
        let (b, b_inflight) = run(mk(), 12);
        prop_assert_eq!(a.msgs_per_round, b.msgs_per_round);
        prop_assert_eq!(a.by_kind, b.by_kind);
        prop_assert_eq!(a.p_indexed, b.p_indexed);
        prop_assert_eq!(a.query_timeouts, b.query_timeouts);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(a_inflight, b_inflight);
    }

    /// Zero latency reproduces the synchronous accounting for all three
    /// strategies: the whole-run totals match a run of the same seed on the
    /// other overlay order of events — i.e. the engine never leaves queries
    /// in flight and round reports close over every message.
    #[test]
    fn zero_latency_resolves_everything_in_round(
        seed in any::<u32>(),
        strat_idx in 0usize..3,
        overlay_idx in 0usize..3,
    ) {
        let strategy = [Strategy::Partial, Strategy::IndexAll, Strategy::NoIndex][strat_idx];
        let mut c = cfg_on(OverlayKind::ALL[overlay_idx], strategy, LatencyConfig::Zero);
        c.seed = u64::from(seed);
        let mut net = PdhtNetwork::new(c).expect("builds");
        for _ in 0..10 {
            net.step_round();
            prop_assert_eq!(net.queries_in_flight(), 0);
        }
    }
}

#[test]
fn phase_timers_account_lane_passes_at_one_shard() {
    // Every lane pass is timed at any shard count: a single-lane run must
    // charge its query pass to `queries` and the maintenance/TTL/tail
    // passes to `background`, not report them as free.
    let mut net = PdhtNetwork::new(cfg(
        Strategy::Partial,
        LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 },
    ))
    .expect("builds");
    assert_eq!(net.shards(), 1);
    assert!(net.phase_breakdown().is_none(), "timers are opt-in");
    net.enable_phase_timers();
    net.run(20);
    let t = net.phase_breakdown().expect("timers enabled");
    assert!(!t.queries.is_zero(), "query passes must be timed: {t:?}");
    assert!(!t.background.is_zero(), "background passes must be timed: {t:?}");
    assert!(t.serial_fraction() > 0.0 && t.serial_fraction() < 1.0, "{t:?}");
}
