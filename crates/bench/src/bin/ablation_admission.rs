//! Experiment A3 — frequency-aware admission (extension of §5.1).
//!
//! The paper's selection algorithm admits every missed key, so Zipf-tail
//! one-hit wonders pay a full insert flood and squat in the index for
//! keyTtl rounds (overhead cause II). Second-chance admission — insert only
//! on a repeat miss — trades a second broadcast for repeat keys against all
//! those wasted inserts. This experiment measures both policies on the same
//! workload.

use pdht_bench::{emit, f1, f3};
use pdht_core::{AdmissionPolicy, PdhtConfig, PdhtNetwork, Strategy, TtlPolicy};
use pdht_model::Scenario;
use pdht_types::MessageKind;

struct Outcome {
    label: &'static str,
    msgs: f64,
    p_indexed: f64,
    indexed_keys: f64,
    insert_floods: f64,
    walks: f64,
}

fn run(policy: AdmissionPolicy, label: &'static str) -> Outcome {
    let scenario = Scenario::table1_scaled(10); // 2 000 peers, 4 000 keys
    let mut cfg = PdhtConfig::new(scenario, 1.0 / 60.0, Strategy::Partial);
    cfg.admission = policy;
    cfg.ttl_policy = TtlPolicy::Fixed(250);
    cfg.seed = 0xad41;
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
    let rounds = 800;
    net.run(rounds);
    let rep = net.report(rounds / 2, rounds - 1);
    let kind = |k: MessageKind| -> f64 {
        rep.by_kind.iter().filter(|(kk, _)| *kk == k).map(|&(_, v)| v).sum()
    };
    Outcome {
        label,
        msgs: rep.msgs_per_round,
        p_indexed: rep.p_indexed,
        indexed_keys: rep.indexed_keys,
        insert_floods: kind(MessageKind::IndexInsert) + kind(MessageKind::ReplicaFlood),
        walks: kind(MessageKind::WalkStep),
    }
}

fn main() {
    let outcomes = [
        run(AdmissionPolicy::Always, "always (paper)"),
        run(AdmissionPolicy::SecondChance { window_rounds: 250 }, "second-chance"),
        run(AdmissionPolicy::SecondChance { window_rounds: 50 }, "second-chance/50"),
    ];

    emit(
        "ablation_admission",
        "A3 — admission policies on the same workload (msg/round)",
        &["policy", "total_msgs", "p_indexed", "indexed_keys", "insert_flood", "walk_steps"],
        &outcomes
            .iter()
            .map(|o| {
                vec![
                    o.label.to_string(),
                    f1(o.msgs),
                    f3(o.p_indexed),
                    f1(o.indexed_keys),
                    f1(o.insert_floods),
                    f1(o.walks),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let always = &outcomes[0];
    let second = &outcomes[1];
    println!("\nReading:");
    println!(
        "  second-chance shrinks the index {:.0} -> {:.0} keys and cuts insert",
        always.indexed_keys, second.indexed_keys
    );
    println!(
        "  traffic, at the price of more broadcasts ({:.0} -> {:.0} walk steps/round)",
        always.walks, second.walks
    );
    println!(
        "  and a hit rate of {:.3} vs {:.3}. Whether it wins depends on the ratio",
        second.p_indexed, always.p_indexed
    );
    println!("  cSUnstr/(repl·dup2) — the knob the paper's Eq. 17 exposes.");
}
