//! Experiment F4 — Fig. 4: savings with the proposed **selection
//! algorithm** (Eq. 14–17) compared to indexing all keys and compared to
//! broadcasting all queries. Writes the committed
//! `results/fig4_savings_selection.csv`.

use pdht_bench::{emit, f1, f3};
use pdht_model::figures::{fig4, freq_label};
use pdht_model::Scenario;

fn main() {
    let s = Scenario::table1();
    let rows = fig4(&s).expect("model evaluates on Table 1");

    emit(
        "fig4_savings_selection",
        "Fig. 4 — savings with the selection algorithm",
        &["f_qry", "f_qry_label", "key_ttl", "total_cost", "vs_index_all", "vs_no_index"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.8}", r.f_qry),
                    freq_label(r.f_qry),
                    f1(r.key_ttl),
                    f1(r.total_cost),
                    f3(r.vs_index_all),
                    f3(r.vs_no_index),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nShape checks against the paper:");
    println!(
        "  substantial savings at average frequencies: vs indexAll = {:.3} at 1/600",
        rows.iter().find(|r| (r.f_qry - 1.0 / 600.0).abs() < 1e-12).unwrap().vs_index_all
    );
    println!(
        "  overhead erases savings vs indexAll only at very high loads: {:.3} at 1/30",
        rows[0].vs_index_all
    );
    println!(
        "  savings vs noIndex positive on the whole sweep: min = {:.3}",
        rows.iter().map(|r| r.vs_no_index).fold(f64::INFINITY, f64::min)
    );
}
