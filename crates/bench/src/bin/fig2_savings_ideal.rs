//! Experiment F2 — Fig. 2: savings of ideal partial indexing compared to
//! indexing all keys and compared to broadcasting all queries. Writes the
//! committed `results/fig2_savings_ideal.csv`.

use pdht_bench::{emit, f3};
use pdht_model::figures::{fig2, freq_label};
use pdht_model::Scenario;

fn main() {
    let s = Scenario::table1();
    let rows = fig2(&s).expect("model evaluates on Table 1");

    emit(
        "fig2_savings_ideal",
        "Fig. 2 — savings of ideal partial indexing",
        &["f_qry", "f_qry_label", "vs_index_all", "vs_no_index"],
        &rows
            .iter()
            .map(|r| {
                let f = r.f_qry;
                vec![format!("{f:.8}"), freq_label(f), f3(r.vs_index_all), f3(r.vs_no_index)]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nShape checks against the paper:");
    println!(
        "  vs indexAll grows as load drops: {:.3} -> {:.3}",
        rows[0].vs_index_all,
        rows[rows.len() - 1].vs_index_all
    );
    println!("  vs noIndex stays high at busy loads: {:.3} at 1/30", rows[0].vs_no_index);
    println!(
        "  all savings positive: min = {:.3}",
        rows.iter().map(|r| r.vs_index_all.min(r.vs_no_index)).fold(f64::INFINITY, f64::min)
    );
}
