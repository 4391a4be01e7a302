//! Experiment S5 — generation-size sweep: bytes vs redundancy across the
//! gossip codecs.
//!
//! Runs the same 64-replica update-heavy scenario at every (codec,
//! generation) point of {plain, chunked, rlnc, rlnc-sparse} × {8, 16, 32}
//! and tabulates the byte cost model against the receive-level redundancy,
//! so the coding tradeoff reads off one table: plain pays full values per
//! push, chunked pays a fragment plus an offer bitmap, dense RLNC adds a
//! coefficient vector per packet, and sparse RLNC buys the same chunked
//! payload with ⌈G/4⌉-support combinations that keep encode cheap. Plain
//! ignores the generation knob, so its three rows double as a
//! determinism check (identical accounting at every G).
//!
//! The `--gossip-codec` and `--gen-size` flags are ignored here — the grid
//! *is* the experiment. `--smoke` shrinks rounds for CI. The printed table
//! is `results/sim_gen_sweep.csv`, committed as generated by a plain
//! `--smoke` run (no other flag), the only run that writes that name: any
//! other run writes the git-ignored `results/sim_gen_sweep_run.csv`.

use pdht_bench::{emit, emit_histograms, f1, f3, reject_peers_override, SimArgs};
use pdht_core::{GossipCodec, PdhtConfig, PdhtNetwork, SimReport, Strategy};
use pdht_model::Scenario;

const GENERATIONS: [usize; 3] = [8, 16, 32];
const CODECS: [(GossipCodec, &str); 4] = [
    (GossipCodec::Plain, "plain"),
    (GossipCodec::Chunked, "chunked"),
    (GossipCodec::Rlnc, "rlnc"),
    (GossipCodec::RlncSparse, "rlnc-sparse"),
];

/// The table's name: the committed reference for the plain `--smoke` run
/// CI regenerates and diffs, a git-ignored one for every other run.
fn table_name(args: &SimArgs) -> &'static str {
    if *args == (SimArgs { smoke: true, ..SimArgs::default() }) {
        "sim_gen_sweep"
    } else {
        "sim_gen_sweep_run"
    }
}

pub fn run(args: SimArgs) {
    reject_peers_override(&args, "sim_gen_sweep");
    println!(
        "S5 configuration: {} (the codec x generation grid replaces --gossip-codec/--gen-size)",
        args.describe()
    );
    let rounds: u64 = if args.smoke { 40 } else { 120 };

    let run = |codec: GossipCodec, gen: usize| -> SimReport {
        // The repl-64 group makes rumor spreading overshoot hard, so the
        // redundancy differences between codecs are visible above noise.
        let scenario = Scenario { repl: 64, f_upd: 1.0 / 1000.0, ..Scenario::table1_scaled(20) };
        let mut cfg = PdhtConfig::new(scenario, 1.0 / 30.0, Strategy::IndexAll);
        cfg.seed = 0x9e4_2004;
        args.apply(&mut cfg);
        cfg.gossip_codec = codec;
        cfg.gossip_generation = gen;
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        args.apply_threads(&mut net);
        net.run(rounds);
        net.report(0, rounds - 1)
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut hist_reports: Vec<(String, SimReport)> = Vec::new();
    let mut plain_bytes_per_round: Option<f64> = None;
    for gen in GENERATIONS {
        for (codec, name) in CODECS {
            let rep = run(codec, gen);
            // Bytes spent per innovative (rank-raising) receive: the
            // sweep's figure of merit — how much bandwidth one unit of
            // actually-new information costs under each codec.
            let bytes_per_innovative = if rep.gossip_innovative > 0 {
                rep.gossip_bytes as f64 / rep.gossip_innovative as f64
            } else {
                f64::NAN
            };
            if codec == GossipCodec::Plain {
                // Plain ignores G: pin the first row and verify the rest.
                match plain_bytes_per_round {
                    None => plain_bytes_per_round = Some(rep.gossip_bytes_per_round),
                    Some(first) => assert!(
                        (rep.gossip_bytes_per_round - first).abs() < f64::EPSILON,
                        "plain accounting moved with --gen-size: {first} vs {}",
                        rep.gossip_bytes_per_round
                    ),
                }
            }
            rows.push(vec![
                name.to_string(),
                gen.to_string(),
                f1(rep.msgs_per_round),
                rep.gossip_innovative.to_string(),
                rep.gossip_redundant.to_string(),
                f3(rep.wasted_bandwidth),
                rep.gossip_bytes.to_string(),
                f1(rep.gossip_bytes_per_round),
                f1(bytes_per_innovative),
            ]);
            hist_reports.push((format!("{name}@g{gen}"), rep));
        }
    }
    let name = table_name(&args);
    emit(
        name,
        &format!(
            "S5 generation-size sweep — repl 64, {rounds} rounds, seed pinned \
             (bytes_per_innovative = gossip bytes per rank-raising receive)"
        ),
        &[
            "codec",
            "gen_size",
            "msgs_per_round",
            "gossip_innovative",
            "gossip_redundant",
            "wasted_bandwidth",
            "gossip_bytes",
            "gossip_bytes_per_round",
            "bytes_per_innovative",
        ],
        &rows,
    );
    if name != "sim_gen_sweep" {
        println!("(not the committed results/sim_gen_sweep.csv: only a plain --smoke run writes it)");
    }
    emit_histograms(&format!("{name}_hist"), &hist_reports);
}

#[cfg(test)]
mod tests {
    use super::{table_name, SimArgs};

    #[test]
    fn only_the_plain_smoke_run_writes_the_committed_table() {
        let smoke = SimArgs { smoke: true, ..SimArgs::default() };
        assert_eq!(table_name(&smoke), "sim_gen_sweep");
        for other in [
            SimArgs::default(),
            SimArgs { shards: 4, threads: 2, ..smoke },
            SimArgs { threads: 2, ..smoke },
            SimArgs { overlay: pdht_core::OverlayKind::Chord, ..smoke },
        ] {
            assert_eq!(table_name(&other), "sim_gen_sweep_run", "{other:?}");
        }
    }
}
