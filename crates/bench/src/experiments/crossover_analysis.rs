//! Experiment A5 — exact strategy crossovers.
//!
//! The paper reads crossings off its plots; these solvers pin them to
//! numbers, and show how the scenario's levers move them. Each crossover
//! is a raw frequency (`-1` = never) beside its `1/N` period label. Writes
//! the committed `results/crossover_analysis.csv`.

use pdht_bench::emit;
use pdht_model::crossover::{no_index_vs_index_all, selection_vs_index_all};
use pdht_model::Scenario;

fn period(f: Option<f64>) -> String {
    match f {
        Some(f) if f > 0.0 => format!("1/{:.0}", 1.0 / f),
        _ => "never".to_string(),
    }
}

pub fn run() {
    let base = Scenario::table1();

    let variants: Vec<(String, Scenario)> = vec![
        ("Table 1".into(), base.clone()),
        ("repl = 25".into(), Scenario { repl: 25, ..base.clone() }),
        ("repl = 100".into(), Scenario { repl: 100, stor: 200, ..base.clone() }),
        ("alpha = 0.8".into(), Scenario { alpha: 0.8, ..base.clone() }),
        ("alpha = 1.5".into(), Scenario { alpha: 1.5, ..base.clone() }),
        ("env = 1/7 (churnier)".into(), Scenario { env: 1.0 / 7.0, ..base.clone() }),
        ("env = 1/56 (calmer)".into(), Scenario { env: 1.0 / 56.0, ..base.clone() }),
    ];

    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(label, s)| {
            let fig1 = no_index_vs_index_all(s).expect("model evaluates");
            let fig4 = selection_vs_index_all(s).expect("model evaluates");
            let raw = |f: Option<f64>| f.map_or(-1.0, |f| f).to_string();
            vec![label.clone(), raw(fig1), period(fig1), raw(fig4), period(fig4)]
        })
        .collect();
    emit(
        "crossover_analysis",
        "A5 — strategy crossover frequencies (noIndex = indexAll: Fig. 1; selection = indexAll: Fig. 4)",
        &["scenario", "fig1_crossover_fqry", "fig1_period", "fig4_crossover_fqry", "fig4_period"],
        &rows,
    );

    println!(
        "\nReading: Table 1 pins Fig. 1's crossover at {} and Fig. 4's at {} —",
        rows[0][2], rows[0][4]
    );
    println!("inside the bands the plots show. Cheaper broadcasts (higher repl) make");
    println!("noIndex competitive up to busier loads (Fig. 1 crossing moves left).");
    println!("Flatter popularity (alpha = 0.8) hurts the selection algorithm — its");
    println!("index covers less query mass, so it beats indexAll only at calmer");
    println!("loads. Churn (env) cuts the other way: maintenance scales with index");
    println!("size, so churnier networks punish the FULL index hardest and partial");
    println!("indexing stays ahead up to busier frequencies.");
}
