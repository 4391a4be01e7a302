//! Experiment T1 — Table 1: parameters of the sample scenario.
//!
//! Prints the scenario exactly as the paper tabulates it, plus the derived
//! quantities the text quotes (20 000 peers needed for the full index, the
//! 1440/1–6/1 query/update ratio span). Writes the committed
//! `results/table1_params.csv`.

use pdht_bench::{emit, f3};
use pdht_model::{params::QUERY_FREQ_SWEEP, CostModel, Scenario};

fn main() {
    let s = Scenario::table1();
    let cost = CostModel::new(&s);

    let rows: Vec<Vec<String>> = vec![
        vec!["Total number of peers".into(), "numPeers".into(), format!("{}", s.num_peers)],
        vec![
            "Number of peers building the DHT".into(),
            "numActivePeers".into(),
            format!("{}", cost.num_active_peers(f64::from(s.keys))),
        ],
        vec!["Number of unique keys".into(), "keys".into(), format!("{}", s.keys)],
        vec!["Storage capacity per peer".into(), "stor".into(), format!("{}", s.stor)],
        vec!["Replication factor".into(), "repl".into(), format!("{}", s.repl)],
        vec!["Zipf exponent".into(), "alpha".into(), f3(s.alpha)],
        vec!["Query frequency per peer per second".into(), "fQry".into(), "1/30 .. 1/7200".into()],
        vec![
            "Avg. update frequency per key".into(),
            "fUpd".into(),
            format!("1/{}", (1.0 / s.f_upd).round()),
        ],
        vec![
            "Route maintenance constant".into(),
            "env".into(),
            format!("1/{}", (1.0 / s.env).round()),
        ],
        vec!["Message duplication (unstructured)".into(), "dup".into(), f3(s.dup)],
        vec!["Message duplication (replica net)".into(), "dup2".into(), f3(s.dup2)],
    ];
    emit(
        "table1_params",
        "Table 1 — parameters of the sample scenario",
        &["description", "param", "value"],
        &rows,
    );

    println!("\nDerived (paper text, Section 4):");
    println!("  cSUnstr = numPeers/repl * dup = {:.1} msg", cost.c_s_unstr());
    println!(
        "  full-index cSIndx = 0.5*log2(numActivePeers) = {:.2} msg",
        cost.c_s_indx(cost.num_active_peers(f64::from(s.keys)))
    );
    println!(
        "  query/update ratio spans {:.0}/1 (busy) .. {:.1}/1 (calm)",
        s.query_update_ratio(QUERY_FREQ_SWEEP[0]),
        s.query_update_ratio(QUERY_FREQ_SWEEP[7]),
    );
}
