//! Experiment F3 — Fig. 3: percentage of indexed keys with ideal partial
//! indexing ("index size") and percentage of queries answerable from the
//! index (`pIndxd`). Writes the committed `results/fig3_index_size.csv`.

use pdht_bench::{emit, f3, freq_label};
use pdht_model::params::QUERY_FREQ_SWEEP;
use pdht_model::{Scenario, StrategyCosts};

pub fn run() {
    let s = Scenario::table1();
    let rows = QUERY_FREQ_SWEEP
        .map(|f| StrategyCosts::evaluate(&s, f).expect("model evaluates on Table 1"));

    emit(
        "fig3_index_size",
        "Fig. 3 — ideal index size and hit probability",
        &["f_qry", "f_qry_label", "index_fraction", "p_indexed"],
        &rows
            .iter()
            .map(|r| {
                let f = r.f_qry;
                vec![
                    format!("{f:.8}"),
                    freq_label(f),
                    f3(r.ideal.index_fraction(&s)),
                    f3(r.ideal.p_indexed),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let (busiest, calmest) = (&rows[0].ideal, &rows[rows.len() - 1].ideal);
    println!("\nShape checks against the paper:");
    println!(
        "  both decline with load: size {:.3} -> {:.3}, pIndxd {:.3} -> {:.3}",
        busiest.index_fraction(&s),
        calmest.index_fraction(&s),
        busiest.p_indexed,
        calmest.p_indexed
    );
    println!(
        "  \"even a small index answers a high percentage of queries\": at 1/7200 the index holds {:.1}% of keys yet answers {:.1}% of queries",
        calmest.index_fraction(&s) * 100.0,
        calmest.p_indexed * 100.0
    );
}
