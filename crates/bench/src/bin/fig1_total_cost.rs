//! Experiment F1 — Fig. 1: total sent messages per second vs query
//! frequency for `indexAll` (Eq. 11), `noIndex` (Eq. 12) and ideal
//! `partial` indexing (Eq. 13). Writes the committed
//! `results/fig1_total_cost.csv`.

use pdht_bench::{emit, f1};
use pdht_model::figures::{fig1, freq_label};
use pdht_model::Scenario;

fn main() {
    let s = Scenario::table1();
    let rows = fig1(&s).expect("model evaluates on Table 1");

    emit(
        "fig1_total_cost",
        "Fig. 1 — total msg/s vs query frequency",
        &["f_qry", "f_qry_label", "index_all", "no_index", "partial"],
        &rows
            .iter()
            .map(|r| {
                let f = r.f_qry;
                vec![
                    format!("{f:.8}"),
                    freq_label(f),
                    f1(r.index_all),
                    f1(r.no_index),
                    f1(r.partial),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nShape checks against the paper:");
    let busiest = &rows[0];
    let calmest = &rows[rows.len() - 1];
    println!(
        "  indexAll ~flat: {:.0} -> {:.0} msg/s (240x load change)",
        busiest.index_all, calmest.index_all
    );
    println!("  noIndex linear in load: {:.0} -> {:.0} msg/s", busiest.no_index, calmest.no_index);
    println!(
        "  partial wins everywhere: max(partial/min(others)) = {:.3}",
        rows.iter()
            .map(|r| r.partial / r.index_all.min(r.no_index))
            .fold(f64::NEG_INFINITY, f64::max)
    );
}
