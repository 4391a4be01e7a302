//! Histogram report — the plotting companion to S2–S5: loads every
//! `results/*_hist.csv` the simulation experiments persisted and prints
//! one p50/p95/p99 comparison table over every run, grouped by metric
//! (query hops, query latency, wave redundancy and bytes), so the
//! cross-substrate latency story (ReCord's evaluation axis in `PAPERS.md`)
//! reads off one screen instead of N CSVs. The table is
//! `results/hist_report.csv`.
//!
//! Usage: run after any of the simulation experiments, e.g.
//! `cargo run --release -p pdht-bench -- sim_vs_model --smoke` then
//! `cargo run --release -p pdht-bench -- sim_hist_report`.

use pdht_bench::{emit, parse_histogram_csv_row, results_dir};
use std::collections::BTreeMap;

/// The unit a histogram metric is observed in.
fn unit(metric: &str) -> &'static str {
    if metric.ends_with("_us") {
        "us"
    } else if metric.ends_with("_bytes") {
        "bytes/wave"
    } else if metric.starts_with("gossip_wave") {
        "receives/wave"
    } else {
        "steps"
    }
}

pub fn run() {
    let dir = results_dir();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with("_hist.csv"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    if files.is_empty() {
        println!(
            "no results/*_hist.csv found under {} — run the S2/S3/S4 experiments first \
             (e.g. `cargo run --release -p pdht-bench -- sim_vs_model --smoke`)",
            dir.display()
        );
        return;
    }

    // metric -> rows, keeping file then line order.
    let mut by_metric: BTreeMap<String, Vec<Vec<String>>> = BTreeMap::new();
    let mut malformed = 0usize;
    for path in &files {
        let source = path.file_stem().and_then(|s| s.to_str()).unwrap_or("unknown").to_string();
        let Ok(body) = std::fs::read_to_string(path) else {
            eprintln!("warning: unreadable {}", path.display());
            continue;
        };
        for line in body.lines().skip(1) {
            match parse_histogram_csv_row(line) {
                Ok((label, metric, h)) => by_metric.entry(metric.clone()).or_default().push(vec![
                    metric.clone(),
                    unit(&metric).to_string(),
                    source.clone(),
                    label,
                    h.count.to_string(),
                    h.p50.to_string(),
                    h.p95.to_string(),
                    h.p99.to_string(),
                    h.max.to_string(),
                ]),
                Err(e) => {
                    eprintln!("warning: skipping row in {}: {e}", path.display());
                    malformed += 1;
                }
            }
        }
    }

    let rows: Vec<Vec<String>> = by_metric.into_values().flatten().collect();
    emit(
        "hist_report",
        "histograms across runs",
        &["metric", "unit", "source", "run", "count", "p50", "p95", "p99", "max"],
        &rows,
    );
    println!(
        "{} series from {} file(s){}",
        rows.len(),
        files.len(),
        if malformed > 0 {
            format!(", {malformed} malformed row(s) skipped")
        } else {
            String::new()
        }
    );
}
