//! Pooled-scratch regression guard: the query hot path must not allocate
//! per wave.
//!
//! The wave pool exposes two counters: `slots` is the arena high-water
//! mark (how many distinct scratch buffers were ever created) and
//! `acquires` counts slot checkouts. A zero-allocation steady state shows
//! up as `acquires` growing with every round while `slots` freezes after
//! the first few waves — if a flood or rumor wave ever started allocating
//! fresh scratch again, `slots` would track `acquires` instead and this
//! test would see the arena grow between measurement windows.

use pdht_core::{LatencyConfig, OverlayKind, PdhtConfig, PdhtNetwork, Strategy};
use pdht_model::Scenario;

fn flood_heavy_net(threads: usize) -> PdhtNetwork {
    // Same flood-heavy shape as the golden vectors: Partial strategy at
    // fQry = 1/10 runs a replica flood on every index miss, a rumor push
    // on every insert, and a random walk on every broadcast.
    let mut cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 10.0, Strategy::Partial);
    cfg.overlay = OverlayKind::Trie;
    cfg.seed = 0x5c4a7c4;
    cfg.latency = LatencyConfig::Zero;
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    net.set_threads(threads);
    net
}

#[test]
fn wave_scratch_is_reused_not_reallocated() {
    for threads in [1usize, 4] {
        let mut net = flood_heavy_net(threads);
        // Warm-up: let every lane reach its concurrency high-water mark.
        net.run(10);
        let (slots_warm, acquires_warm) = net.wave_pool_stats();
        assert!(acquires_warm > 0, "flood-heavy run must exercise the wave pool");
        assert!(
            slots_warm <= 64,
            "arena high-water {slots_warm} is far above any plausible \
             concurrent-wave count ({threads} threads)"
        );

        // Steady state: three more measurement windows, each three times
        // the warm-up. Acquires must keep climbing; the arena must not.
        let mut acquires_prev = acquires_warm;
        for window in 0..3 {
            net.run(30);
            let (slots_now, acquires_now) = net.wave_pool_stats();
            assert_eq!(
                slots_now, slots_warm,
                "window {window}: scratch arena grew after warm-up — \
                 a wave path is allocating per query again ({threads} threads)"
            );
            assert!(
                acquires_now > acquires_prev,
                "window {window}: pool stopped being acquired — \
                 the hot path no longer runs through it ({threads} threads)"
            );
            acquires_prev = acquires_now;
        }
    }
}

#[test]
fn pool_reuse_holds_under_latency() {
    // Non-zero latency parks waves across events, so several slots can be
    // live at once — the high-water mark may be higher, but it must still
    // freeze while acquires keeps growing.
    let mut cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 10.0, Strategy::Partial);
    cfg.overlay = OverlayKind::Trie;
    cfg.seed = 0x5c4a7c5;
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    net.set_threads(4);
    net.run(20);
    let (slots_warm, acquires_warm) = net.wave_pool_stats();
    assert!(acquires_warm > 0);
    net.run(60);
    let (slots_now, acquires_now) = net.wave_pool_stats();
    assert!(
        slots_now <= slots_warm.max(64),
        "latency run grew the arena from {slots_warm} to {slots_now}"
    );
    assert!(acquires_now > acquires_warm);
}
