//! `pdht-bench`: every experiment of the paper reproduction behind one
//! binary.
//!
//! `cargo run --release -p pdht-bench -- <experiment> [flags]` runs the
//! experiment of that name (one module under `src/experiments/`), which
//! prints its table and writes `results/<experiment>.csv`. [`EXPERIMENTS`]
//! is the experiment index of `DESIGN.md` §1 as data. The simulation
//! experiments S2–S5 take the shared flags of [`pdht_bench::SimArgs`]; every
//! other experiment takes none. An unknown name, or a flag given to an
//! experiment that takes none, exits 2.

use pdht_bench::{exit_with, parse_sim_args, SimArgs};

/// How an experiment takes the command line after its name.
#[derive(Clone, Copy)]
enum Run {
    /// No flag at all.
    Fixed(fn()),
    /// The shared simulation flags.
    Sim(fn(SimArgs)),
}

/// Declares each experiment's module, `src/experiments/<name>.rs`, and its
/// row of [`EXPERIMENTS`] from one list, so a name is always its module's.
macro_rules! experiments {
    ($(($id:literal, $name:ident, $kind:literal, $run:ident),)*) => {
        mod experiments {
            $(pub mod $name;)*
        }

        /// Every experiment as `(id, name, kind, run)`, in the order of
        /// `DESIGN.md` §1.
        const EXPERIMENTS: &[(&str, &str, &str, Run)] =
            &[$(($id, stringify!($name), $kind, Run::$run(experiments::$name::run)),)*];
    };
}

experiments! {
    ("T1", table1_params, "analytical", Fixed),
    ("F1", fig1_total_cost, "analytical", Fixed),
    ("F2", fig2_savings_ideal, "analytical", Fixed),
    ("F3", fig3_index_size, "analytical", Fixed),
    ("F4", fig4_savings_selection, "analytical", Fixed),
    ("S1", keyttl_sensitivity, "analytical", Fixed),
    ("A1", ablation_overhead, "analytical", Fixed),
    ("A4", sweep_kary, "analytical", Fixed),
    ("A5", crossover_analysis, "analytical", Fixed),
    ("V1", validate_csunstr, "measured", Fixed),
    ("A2", ablation_overlay, "measured", Fixed),
    ("S2", sim_vs_model, "simulated", Sim),
    ("S3", sim_adaptivity, "simulated", Sim),
    ("S4", sim_scale, "simulated", Sim),
    ("S5", sim_gen_sweep, "simulated", Sim),
    ("A3", ablation_admission, "simulated", Fixed),
    ("—", sim_hist_report, "report", Fixed),
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(&(.., run)) = EXPERIMENTS.iter().find(|e| e.1 == name) else {
        let table: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(id, name, kind, run)| {
                let flags = if matches!(run, Run::Sim(_)) { "[flags]" } else { "" };
                format!("  {id:<3} {name:<23} {kind:<11} {flags}").trim_end().to_string()
            })
            .collect();
        let usage = "usage: pdht-bench <experiment> [flags]";
        exit_with(&format!("unknown experiment {name:?}\n{usage}\n{}", table.join("\n")));
    };
    match run {
        Run::Fixed(run) => {
            if let Some(flag) = args.next() {
                exit_with(&format!("{name} takes no flags, got {flag:?}"));
            }
            run();
        }
        Run::Sim(run) => run(parse_sim_args(args)),
    }
}
