//! Experiment A2 — "our proposal is generic enough such that it can be used
//! for any of the DHT based systems" (Section 1).
//!
//! Compares the three structured overlays on the quantities the cost model
//! actually consumes: lookup hop counts (→ `cSIndx`), routing-table sizes
//! (→ `cRtn`), and behaviour under churn. If all stay logarithmic with
//! comparable constants, the model's conclusions transfer.

use pdht_bench::{emit, f1, f3};
use pdht_overlay::{ChordOverlay, KademliaOverlay, Overlay, TrieOverlay};
use pdht_sim::Metrics;
use pdht_types::{Key, Liveness, MessageKind, PeerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct OverlayStats {
    name: &'static str,
    n: usize,
    avg_hops_online: f64,
    avg_hops_churn: f64,
    success_churn: f64,
    avg_entries: f64,
    probes_per_round: f64,
}

fn measure(name: &'static str, overlay: &mut dyn Overlay, n: usize, seed: u64) -> OverlayStats {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut metrics = Metrics::new();
    let trials = 2_000u32;

    // All online.
    let live = Liveness::all_online(n);
    let mut hops = 0u64;
    for _ in 0..trials {
        let from = PeerId::from_idx(rng.random_range(0..n));
        let key = Key(rng.random::<u64>());
        let out = overlay.lookup(from, key, &live, &mut rng, &mut metrics).expect("online lookup");
        hops += u64::from(out.hops);
    }
    let avg_hops_online = hops as f64 / f64::from(trials);

    // 30 % offline (decorrelated seed).
    let mut live = Liveness::all_online(n);
    let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xc0ffee);
    for i in 0..n {
        if churn_rng.random::<f64>() < 0.3 {
            live.set(PeerId::from_idx(i), false);
        }
    }
    let mut hops = 0u64;
    let mut ok = 0u32;
    for _ in 0..trials {
        let from = loop {
            let c = PeerId::from_idx(rng.random_range(0..n));
            if live.is_online(c) {
                break c;
            }
        };
        let key = Key(rng.random::<u64>());
        if let Ok(out) = overlay.lookup(from, key, &live, &mut rng, &mut metrics) {
            hops += u64::from(out.hops);
            ok += 1;
        }
    }
    let avg_hops_churn = hops as f64 / f64::from(ok.max(1));
    let success_churn = f64::from(ok) / f64::from(trials);

    // Maintenance for 20 rounds at env = 1/14.
    let before = metrics.totals()[MessageKind::Probe];
    for _ in 0..20 {
        overlay.maintenance_round(1.0 / 14.0, &live, &mut rng, &mut metrics);
    }
    let probes_per_round = (metrics.totals()[MessageKind::Probe] - before) as f64 / 20.0;
    let avg_entries = (0..n).map(|p| overlay.routing_entries(PeerId::from_idx(p))).sum::<usize>()
        as f64
        / n as f64;

    OverlayStats {
        name,
        n,
        avg_hops_online,
        avg_hops_churn,
        success_churn,
        avg_entries,
        probes_per_round,
    }
}

pub fn run() {
    let mut rows: Vec<Vec<String>> = Vec::new();

    for &n in &[1_024usize, 4_096, 16_384] {
        let mut build_rng = SmallRng::seed_from_u64(42);
        let mut trie = TrieOverlay::build(n, 50, &mut build_rng).expect("trie builds");
        let mut chord = ChordOverlay::build(n, 50, &mut build_rng).expect("chord builds");
        let mut kad = KademliaOverlay::build(n, 50, &mut build_rng).expect("kademlia builds");
        for stats in [
            measure("trie (P-Grid)", &mut trie, n, 7),
            measure("chord", &mut chord, n, 7),
            measure("kademlia", &mut kad, n, 7),
        ] {
            rows.push(vec![
                stats.name.to_string(),
                format!("{}", stats.n),
                f3(stats.avg_hops_online),
                f3(stats.avg_hops_churn),
                f3(stats.success_churn),
                f1(stats.avg_entries),
                f1(stats.probes_per_round),
            ]);
        }
    }

    emit(
        "ablation_overlay",
        "A2 — traditional DHTs compared on the model's inputs (churn = 30% offline)",
        &[
            "overlay",
            "peers",
            "hops_online",
            "hops_churn",
            "success_churn",
            "entries_per_peer",
            "probes_per_round",
        ],
        &rows,
    );

    println!("\nReading: all three overlays keep hops and table sizes logarithmic in n;");
    println!("the constants differ (the trie amortizes depth across replica groups,");
    println!("Chord pays for successor lists, Kademlia's greedy XOR forwarding");
    println!("resolves several bits per hop at the price of k-wide buckets), so the");
    println!("paper's qualitative analysis applies to any of them — quantitative");
    println!("results shift with the constants, as footnote 2 anticipates.");
}
