//! Experiment S2 — §5.2: the discrete-event simulator vs the analytical
//! model.
//!
//! Runs the full network (trie DHT + unstructured overlay + replica
//! flooding + TTL selection) on a 1/10-scale Table 1 scenario and compares
//! measured message rates, index size and hit probability against the
//! model's Eq. 11/12/17 predictions for the same (scaled) scenario.
//!
//! Absolute agreement is not expected — the simulator's trie amortizes
//! routing across replica groups (≈ ½·log2(nap/repl) hops instead of the
//! model's ½·log2(nap)) and floods the replica subnetwork only on local
//! misses where Eq. 16 charges every query — but the *ordering* of the
//! strategies and the adaptive index size must reproduce.
//!
//! One table, `results/sim_vs_model.csv`: one row per (frequency,
//! strategy). `sim_msgs` is the model's view of the run (entry messages
//! excluded); `msgs_per_round` and the other shared report columns are the
//! whole run.

use pdht_bench::{
    emit, emit_histograms, f1, f3, freq_label, reject_peers_override, report_cells, SimArgs,
    REPORT_HEADER,
};
use pdht_core::{LatencyConfig, PdhtConfig, PdhtNetwork, SimReport, Strategy, TtlPolicy};
use pdht_model::{Scenario, SelectionModel, StrategyCosts};

/// Runs one strategy for `rounds` and reports the second half. `ttl`
/// overrides the selection algorithm's keyTtl with a fixed one.
fn run_strategy(
    scenario: &Scenario,
    f_qry: f64,
    strategy: Strategy,
    rounds: u64,
    ttl: Option<u64>,
    args: &SimArgs,
) -> SimReport {
    let mut cfg = PdhtConfig::new(scenario.clone(), f_qry, strategy);
    cfg.seed = 0x51_2004;
    if let Some(ttl) = ttl {
        cfg.ttl_policy = TtlPolicy::Fixed(ttl);
    }
    args.apply(&mut cfg);
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    args.apply_threads(&mut net);
    net.run(rounds);
    let rep = net.report(rounds / 2, rounds - 1);
    if args.latency != LatencyConfig::Zero {
        if let Some(lat) = rep.query_latency_us {
            println!(
                "  {strategy:?}: query latency p50/p95/p99 = {:.1}/{:.1}/{:.1} ms over {} queries",
                lat.p50 as f64 / 1e3,
                lat.p95 as f64 / 1e3,
                lat.p99 as f64 / 1e3,
                lat.count
            );
        }
    }
    rep
}

pub fn run(args: SimArgs) {
    reject_peers_override(&args, "sim_vs_model");
    println!("S2 configuration: {}", args.describe());
    let (scale, freqs): (u32, &[f64]) = if args.smoke {
        (20, &[1.0 / 30.0])
    } else {
        (10, &[1.0 / 30.0, 1.0 / 120.0, 1.0 / 600.0])
    };
    let scenario = Scenario::table1_scaled(scale);

    // (f_qry cell, run tag, scenario, fQry, rounds, fixed keyTtl)
    let mut cases: Vec<(String, String, Scenario, f64, u64, Option<u64>)> = freqs
        .iter()
        .map(|&f_qry| {
            // Steady state needs ~keyTtl rounds for the TTL index; bound the
            // runtime while letting the index reach equilibrium.
            let key_ttl = SelectionModel::evaluate(&scenario, f_qry).expect("model").key_ttl;
            let ttl = key_ttl.min(400.0) as u64;
            let rounds = if args.smoke { 60 } else { (2 * ttl + 200).min(900) };
            (format!("{f_qry:.8}"), freq_label(f_qry), scenario.clone(), f_qry, rounds, None)
        })
        .collect();
    if !args.smoke {
        // Full Table-1 scale, the headline ordering: at 20 000 peers the
        // broadcast cost (720 msg) dwarfs index search, so the model
        // predicts the selection algorithm beats BOTH baselines at
        // fQry = 1/300 (Fig. 4). A fixed keyTtl of 400 rounds (instead of
        // the paper's 1/fMin ≈ 1 800) keeps the steady state reachable in a
        // bounded run; the model reference uses the same TTL, so the
        // comparison stays exact.
        let tag = "full_scale_1_300".to_string();
        cases.push((tag.clone(), tag, Scenario::table1(), 1.0 / 300.0, 1_000, Some(400)));
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    // Per-run query-hop / query-latency histograms, persisted alongside the
    // message counters.
    let mut hist_reports: Vec<(String, SimReport)> = Vec::new();
    let mut checks: Vec<String> = Vec::new();
    for (cell, tag, scenario, f_qry, rounds, ttl) in &cases {
        let sel = match ttl {
            Some(ttl) => SelectionModel::evaluate_with_ttl(scenario, *f_qry, *ttl as f64),
            None => SelectionModel::evaluate(scenario, *f_qry),
        }
        .expect("model");
        let model = StrategyCosts::evaluate(scenario, *f_qry).expect("model");
        let mut msgs: Vec<(&str, f64, f64)> = Vec::new();
        for (name, strategy, model_msgs) in [
            ("partial", Strategy::Partial, sel.total_cost),
            ("indexAll", Strategy::IndexAll, model.index_all),
            ("noIndex", Strategy::NoIndex, model.no_index),
        ] {
            let rep = run_strategy(scenario, *f_qry, strategy, *rounds, *ttl, &args);
            let sim_msgs = rep.msgs_per_round_model_view();
            let head = [cell.clone(), freq_label(*f_qry), name.to_string(), rounds.to_string()];
            let vs_model = [f1(model_msgs), f1(sim_msgs), f3(sim_msgs / model_msgs)];
            rows.push([&head[..], &vs_model, &report_cells(&rep)].concat());
            msgs.push((name, model_msgs, sim_msgs));
            hist_reports.push((format!("{name}@{tag}"), rep));
        }
        // The scaled scenario has its own crossover structure (broadcast is
        // 10× cheaper relative to maintenance than at full scale), so the
        // meaningful check is: does the simulator rank the strategies the
        // way the model ranks them *for this scenario*?
        let rank = |key: fn(&(&str, f64, f64)) -> f64| -> Vec<&str> {
            let mut v = msgs.clone();
            v.sort_by(|a, b| key(a).total_cmp(&key(b)));
            v.into_iter().map(|m| m.0).collect()
        };
        let (model_order, sim_order) = (rank(|m| m.1), rank(|m| m.2));
        checks.push(format!(
            "  {tag}: keyTtl = {:.0}, model pIndxd = {:.3}, index size = {:.0} keys; \
             ordering model {model_order:?}, sim {sim_order:?} -> {}",
            sel.key_ttl,
            sel.p_indexed,
            sel.index_size,
            if model_order == sim_order { "agreement" } else { "MISMATCH" }
        ));
        if ttl.is_some() {
            let best_baseline = msgs[1].2.min(msgs[2].2);
            checks.push(format!(
                "  headline check: partial {:.0} msg/s vs best baseline {best_baseline:.0} msg/s -> {}",
                msgs[0].2,
                if msgs[0].2 < best_baseline {
                    "partial indexing wins at full scale (paper's claim reproduced)"
                } else {
                    "partial does not win — inspect"
                }
            ));
        }
    }

    emit(
        "sim_vs_model",
        &format!("S2 sim vs model (msg/round; 1/{scale}-scale Table 1 per fQry)"),
        &[
            &[
                "f_qry",
                "f_qry_label",
                "strategy",
                "rounds",
                "model_msgs",
                "sim_msgs",
                "sim_model_ratio",
            ][..],
            &REPORT_HEADER,
        ]
        .concat(),
        &rows,
    );
    println!("{}", checks.join("\n"));
    emit_histograms("sim_vs_model_hist", &hist_reports);
}
