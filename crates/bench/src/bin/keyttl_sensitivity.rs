//! Experiment S1 — §5.1.1: sensitivity of the selection algorithm's
//! savings to keyTtl estimation error, evaluated on the closed-form model
//! (no simulation).
//!
//! "Analytical results show that an estimation error of ±50 % of the ideal
//! keyTtl decreases the savings only slightly." One table over every
//! (fQry, TTL factor) point; writes the committed
//! `results/keyttl_sensitivity.csv`.

use pdht_bench::{emit, f1, f3};
use pdht_model::figures::freq_label;
use pdht_model::selection::ttl_sensitivity;
use pdht_model::Scenario;

fn main() {
    let s = Scenario::table1();
    let factors = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
    let freqs = [1.0 / 120.0, 1.0 / 600.0, 1.0 / 1800.0];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut verdicts: Vec<String> = Vec::new();
    for &f_qry in &freqs {
        let pts = ttl_sensitivity(&s, f_qry, &factors).expect("model evaluates");
        let perfect = pts.iter().find(|p| p.ttl_factor == 1.0).unwrap().saving_vs_no_index;
        for p in &pts {
            rows.push(vec![
                format!("{:.8}", f_qry),
                freq_label(f_qry),
                f3(p.ttl_factor),
                f1(p.total_cost),
                f3(p.saving_vs_index_all),
                f3(p.saving_vs_no_index),
                f3(perfect - p.saving_vs_no_index),
            ]);
        }
        let max_drop = pts
            .iter()
            .filter(|p| (0.5..=1.5).contains(&p.ttl_factor))
            .map(|p| (perfect - p.saving_vs_no_index).abs())
            .fold(0.0f64, f64::max);
        verdicts.push(format!(
            "  fQry = {}: max saving drop within ±50% TTL error: {:.4} ({}!)",
            freq_label(f_qry),
            max_drop,
            if max_drop < 0.1 {
                "only slightly — matches §5.1.1"
            } else {
                "LARGER than the paper claims"
            }
        ));
    }

    emit(
        "keyttl_sensitivity",
        "§5.1.1 keyTtl sensitivity (total_cost in msg/s; saving_drop vs the ideal keyTtl)",
        &[
            "f_qry",
            "f_qry_label",
            "ttl_factor",
            "total_cost",
            "vs_index_all",
            "vs_no_index",
            "saving_drop",
        ],
        &rows,
    );
    println!("\n{}", verdicts.join("\n"));
}
