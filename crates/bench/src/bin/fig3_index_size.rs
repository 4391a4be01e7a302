//! Experiment F3 — Fig. 3: percentage of indexed keys with ideal partial
//! indexing ("index size") and percentage of queries answerable from the
//! index (`pIndxd`). Writes the committed `results/fig3_index_size.csv`.

use pdht_bench::{emit, f3};
use pdht_model::figures::{fig3, freq_label};
use pdht_model::Scenario;

fn main() {
    let s = Scenario::table1();
    let rows = fig3(&s).expect("model evaluates on Table 1");

    emit(
        "fig3_index_size",
        "Fig. 3 — ideal index size and hit probability",
        &["f_qry", "f_qry_label", "index_fraction", "p_indexed"],
        &rows
            .iter()
            .map(|r| {
                let f = r.f_qry;
                vec![format!("{f:.8}"), freq_label(f), f3(r.index_fraction), f3(r.p_indexed)]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nShape checks against the paper:");
    println!(
        "  both decline with load: size {:.3} -> {:.3}, pIndxd {:.3} -> {:.3}",
        rows[0].index_fraction,
        rows[rows.len() - 1].index_fraction,
        rows[0].p_indexed,
        rows[rows.len() - 1].p_indexed
    );
    println!(
        "  \"even a small index answers a high percentage of queries\": at 1/7200 the index holds {:.1}% of keys yet answers {:.1}% of queries",
        rows[rows.len() - 1].index_fraction * 100.0,
        rows[rows.len() - 1].p_indexed * 100.0
    );
}
