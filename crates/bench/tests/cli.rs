//! The `pdht-bench` command line, on its error paths only, so that nothing
//! under `results/` is written.

use std::process::{Command, Output};

fn pdht_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdht-bench")).args(args).output().expect("pdht-bench runs")
}

#[test]
fn an_unknown_experiment_exits_2_and_lists_every_experiment() {
    let out = pdht_bench(&["fig5_does_not_exist"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"fig5_does_not_exist\""), "{stderr}");
    for name in [
        "table1_params",
        "fig1_total_cost",
        "fig2_savings_ideal",
        "fig3_index_size",
        "fig4_savings_selection",
        "keyttl_sensitivity",
        "ablation_overhead",
        "sweep_kary",
        "crossover_analysis",
        "validate_csunstr",
        "ablation_overlay",
        "sim_vs_model",
        "sim_adaptivity",
        "sim_scale",
        "sim_gen_sweep",
        "ablation_admission",
        "sim_hist_report",
    ] {
        assert!(
            stderr.lines().any(|l| l.split_whitespace().nth(1) == Some(name)),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn an_experiment_without_flags_rejects_one() {
    let out = pdht_bench(&["fig1_total_cost", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig1_total_cost takes no flags, got \"--smoke\""), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}
