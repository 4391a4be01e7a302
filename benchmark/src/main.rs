//! The repo's benchmark of record: four fixed-round workloads, six
//! end-to-end metrics, and (with `--trace 1`) an outside-in per-layer
//! ledger. Drives the simulator only through its public API. See
//! `README.md` next to this crate for what each workload and metric is for.
//!
//! ```text
//! pdht-benchmark --workload <walk_miss|route_event|gossip_coded|loaded_mix|all>
//!                [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! The last stdout line of a single-workload run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exit status is 0 only
//! when every check held — including, for pinned seeds, that the simulated
//! statistics are bit-identical to the committed fingerprint.

mod host;
mod json;
mod layers;
mod ledger;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::{obj, Value};
use metrics::{Decl, MetricSet};
use run::{Plan, Sim, Window};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x2004;
/// `--seconds` when not given: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 20;
/// Round counts of a `--smoke` run (every config and the trace path in
/// seconds, not minutes).
const SMOKE_WARMUP: u64 = 3;
const SMOKE_TIMED: u64 = 6;
/// Rounds per turn when the traced run alternates its two simulations.
const TRACE_BLOCK_ROUNDS: u64 = 10;
/// Rounds per block of the 1-vs-2-thread comparison, and blocks per side.
const SPEEDUP_BLOCK_ROUNDS: u64 = 50;
const SPEEDUP_BLOCKS: usize = 3;

/// Expected fingerprints per `(workload, seed, warmup, timed)`, compiled in
/// so a binary checks against the pins of the tree it was built from.
const PINS: &str = include_str!("../fingerprints.json");

const USAGE: &str = "usage: pdht-benchmark --workload <walk_miss|route_event|gossip_coded|\
loaded_mix|all> [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    /// Directory outputs go to, resolved at run time (never the directory
    /// the binary was compiled in).
    out: PathBuf,
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{flag} wants a whole number, got {text:?}"))
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_u64(&flag, &value()?)?,
            "--seconds" => {
                args.seconds = parse_u64(&flag, &value()?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(format!("--seconds must be in 1..=60, got {}", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

impl Args {
    fn plan(&self, workload: Workload) -> Plan {
        let (warmup, timed) = if self.smoke {
            (SMOKE_WARMUP, SMOKE_TIMED)
        } else {
            (workload.warmup_rounds, workload.timed_rounds(self.seconds))
        };
        Plan {
            workload,
            seed: self.seed,
            warmup,
            timed,
            threads: workload.threads,
            setup_reps: if self.smoke { 1 } else { 3 },
            steady_state: !self.smoke,
        }
    }
}

/// The committed fingerprint for this exact plan, if one is pinned.
fn pinned(plan: &Plan) -> Result<Option<String>, String> {
    let doc = json::parse(PINS).map_err(|e| format!("fingerprints.json: {e}"))?;
    let field = |pin: &Value, key: &str| pin.get(key).and_then(Value::as_u64);
    Ok(doc
        .get("pins")
        .map_or(&[][..], Value::items)
        .iter()
        .find(|pin| {
            pin.get("workload").and_then(Value::as_str) == Some(plan.workload.name)
                && field(pin, "seed") == Some(plan.seed)
                && field(pin, "warmup") == Some(plan.warmup)
                && field(pin, "timed") == Some(plan.timed)
        })
        .and_then(|pin| pin.get("fingerprint").and_then(Value::as_str))
        .map(str::to_string))
}

/// Compares a window's fingerprint with its pin; a mismatch is a violation.
fn check_pin(plan: &Plan, window: &Window, violations: &mut Vec<String>) -> Result<Value, String> {
    let got = window.fingerprint();
    let pin = pinned(plan)?;
    match &pin {
        Some(want) if *want != got => violations.push(format!(
            "sim_fingerprint {got} != pinned {want}: the simulated system changed \
             (re-pin in benchmark/fingerprints.json only if that was the point)"
        )),
        Some(_) => {}
        None => println!(
            "  note: no fingerprint is pinned for {} at seed {}, {} + {} rounds — \
             sim_fingerprint {got} is reported, not checked",
            plan.workload.name, plan.seed, plan.warmup, plan.timed
        ),
    }
    Ok(obj([("sim_fingerprint", got.into()), ("pinned", pin.map_or(Value::Null, Value::from))]))
}

/// The simulated side of a window, for the `out/` files.
fn sim_block(window: &Window) -> Value {
    obj([
        ("rounds", Value::Arr(vec![window.rounds.0.into(), window.rounds.1.into()])),
        (
            "messages_by_kind",
            Value::Obj(
                window.counts.iter().map(|(k, n)| (k.name().to_string(), n.into())).collect(),
            ),
        ),
        ("outcomes", obj(window.outcomes().map(|(k, n)| (k, n.into())))),
        ("queries_issued", window.issued().into()),
        ("events_dispatched", window.events.into()),
    ])
}

/// Header shared by both output files.
fn header(args: &Args, plan: &Plan, mode: &str) -> Value {
    let cfg = plan.workload.config(plan.seed);
    obj([
        ("benchmark", "pdht".into()),
        ("mode", mode.into()),
        ("workload", plan.workload.name.into()),
        ("seed", plan.seed.into()),
        ("seconds", args.seconds.into()),
        ("smoke", args.smoke.into()),
        ("warmup_rounds", plan.warmup.into()),
        ("timed_rounds", plan.timed.into()),
        ("peers", u64::from(cfg.scenario.num_peers).into()),
        ("shards", u64::from(cfg.shards).into()),
        ("host", host::describe(plan.threads)),
    ])
}

fn write_file(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Prints the table, writes the file, prints the contract's result line.
fn report(
    path: &Path,
    mut doc: Value,
    title: &str,
    rows: &[(Decl, Option<f64>)],
    attempted: u64,
    failed: u64,
    violations: &[String],
) -> Result<ExitCode, String> {
    metrics::print_table(title, rows);
    for v in violations {
        println!("  CHECK FAILED: {v}");
    }
    let correct = violations.is_empty();
    doc.push("metrics", metrics::metrics_object(rows, true));
    doc.push("correct", correct.into());
    doc.push("violations", Value::Arr(violations.iter().map(|v| v.as_str().into()).collect()));
    write_file(path, &doc)?;
    println!("  wrote {}", path.display());
    let line = obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics::metrics_object(rows, false)),
    ]);
    println!("{}", line.compact());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Tracing off: the six end-to-end metrics.
fn end_to_end(args: &Args, plan: &Plan) -> Result<ExitCode, String> {
    let (net, setup_secs) = run::build(plan)?;
    let mut sim = Sim::start(net, plan, None);
    sim.step(plan.timed, None);
    let (window, net) = sim.finish();
    drop(net);
    let mut violations = window.violations.clone();
    let pin = check_pin(plan, &window, &mut violations)?;

    let mut m = MetricSet::new();
    m.set("setup_s", stats::median(&setup_secs));
    m.set("round_ms_p50", window.round_ms_p50());
    m.set("sim_msgs_per_s", window.sim_msgs_per_s());
    m.set_opt("peak_rss_mb", host::peak_rss_mib());
    m.set("answered_frac", window.answered_frac());
    m.set("sim_msgs_per_query", window.sim_msgs_per_query());
    let rows = m.finish(&metrics::END_TO_END)?;

    let mut doc = header(args, plan, "end_to_end");
    let samples = |secs: &[f64]| Value::Arr(secs.iter().map(|&s| s.into()).collect());
    doc.push("round_ms_samples", samples(&window.round_ms));
    doc.push("setup_s_samples", samples(&setup_secs));
    doc.push("sim", sim_block(&window));
    doc.push("fingerprint", pin);
    let title = format!(
        "{} — end to end, seed {:#x}, {} warm-up + {} timed rounds ({} round_ms samples)",
        plan.workload.name,
        plan.seed,
        plan.warmup,
        plan.timed,
        window.round_ms.len()
    );
    report(
        &args.out.join(format!("{}.json", plan.workload.name)),
        doc,
        &title,
        &rows,
        plan.timed,
        window.failed_rounds,
        &violations,
    )
}

/// `round_ms_p50` at 1 thread ÷ at 2, on rounds of one network in
/// alternating blocks so drift in the simulated state hits both sides.
/// Each block is a span carrying the process's CPU seconds per wall second:
/// on a shared host the second thread sometimes never gets a cpu (the
/// ratio stays ≈ 1.0 and so does the "speedup"), and a reader must be able
/// to tell that apart from a pool that does not scale.
fn speedup_t2(
    net: &mut pdht_core::PdhtNetwork,
    blocks: usize,
    block_rounds: u64,
    tracer: &mut trace::Tracer,
) -> f64 {
    let mut ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for block in 0..2 * blocks {
        let side = block % 2;
        net.set_threads(side + 1);
        let span = tracer.open(["sim.shard_pool.t1", "sim.shard_pool.t2"][side]);
        let cpu_before = host::cpu_seconds();
        for _ in 0..block_rounds {
            let t = std::time::Instant::now();
            net.step_round();
            ms[side].push(t.elapsed().as_secs_f64() * 1e3);
        }
        tracer.close(span);
        if let (Some(before), Some(after)) = (cpu_before, host::cpu_seconds()) {
            let busy = (after - before) / (tracer.duration_ns(span) as f64 / 1e9);
            tracer.count(span, "cpu_per_wall", busy);
            if side == 1 && busy < 1.5 {
                println!(
                    "  note: at 2 threads the process used {busy:.2} cpus — the host gave the \
                     second thread no cpu, so speedup_t2 is not a pool measurement on this run"
                );
            }
        }
    }
    stats::median(&ms[0]) / stats::median(&ms[1])
}

/// Tracing on: the per-layer ledger. Two simulations of the same seed and
/// rounds — tracing off and on — stepped in alternating blocks, so drift
/// in host speed hits both alike and their difference is the tracing
/// overhead. Both at one executor thread, so `count × cost` (CPU time) and
/// the round time (wall clock) are in the same currency; the executor's
/// own contribution is the separate 1-vs-2-thread comparison.
fn traced(args: &Args, plan: &Plan) -> Result<ExitCode, String> {
    // Each pass gets half the window's CPU budget: a workload that runs on
    // two threads end to end would otherwise take twice as long here.
    let pass = Plan {
        timed: if args.smoke { plan.timed } else { plan.timed / (2 * plan.threads as u64) },
        threads: 1,
        setup_reps: 1,
        ..*plan
    };
    let mut tracer = trace::Tracer::new();
    let root = tracer.open("workload");

    let (net, _) = run::build(&pass)?;
    let mut plain = Sim::start(net, &pass, None);
    let span = tracer.open("core.new");
    let (net, _) = run::build(&pass)?;
    tracer.close(span);
    let mut spanned = Sim::start(net, &pass, Some(&mut tracer));
    while spanned.remaining() > 0 {
        plain.step(TRACE_BLOCK_ROUNDS, None);
        let span = tracer.open("block.traced");
        spanned.step(TRACE_BLOCK_ROUNDS, Some(&mut tracer));
        tracer.close(span);
    }
    let (untraced, net) = plain.finish();
    drop(net);
    let (window, mut net) = spanned.finish();

    let mut violations = untraced.violations.clone();
    violations.extend(window.violations.iter().cloned());
    if untraced.fingerprint() != window.fingerprint() {
        violations.push(format!(
            "tracing changed the simulation: fingerprint {} untraced vs {} traced",
            untraced.fingerprint(),
            window.fingerprint()
        ));
    }
    let pin = check_pin(&pass, &window, &mut violations)?;

    let cfg = net.config().clone();
    let nap = net.num_active_peers();
    let speedup = (cfg.shards > 1 && plan.threads > 1).then(|| {
        let span = tracer.open("sim.shard_pool.speedup_t2");
        let (blocks, rounds) =
            if args.smoke { (1, SMOKE_TIMED) } else { (SPEEDUP_BLOCKS, SPEEDUP_BLOCK_ROUNDS) };
        let speedup = speedup_t2(&mut net, blocks, rounds, &mut tracer);
        tracer.close(span);
        speedup
    });
    drop(net);

    let span = tracer.open("replay");
    let shape = layers::Shape {
        cfg: &cfg,
        nap,
        threads: plan.threads,
        shrink: if args.smoke { 50 } else { 1 },
    };
    let costs = layers::replay_all(&shape, &mut tracer);
    tracer.close(span);
    tracer.close(root);

    let run = ledger::Traced {
        cfg: &cfg,
        nap,
        untraced: &untraced,
        traced: &window,
        costs,
        speedup_t2: speedup,
    };
    let ledger_rows = ledger::rows(&run);
    let rows = ledger::per_layer(run, &ledger_rows).finish(&metrics::PER_LAYER)?;

    println!("\n{} — ledger (share of the untraced mean round)", plan.workload.name);
    for r in &ledger_rows {
        println!(
            "  {:<18} {:>12.1} calls/round x {:>10} ns = {:>6.1} %",
            r.layer,
            r.calls_per_round,
            r.ns_per_call.map_or_else(|| "null".to_string(), |ns| format!("{ns:.1}")),
            r.share * 100.0
        );
    }
    let trace_path = args.out.join(format!("trace_{}.json", plan.workload.name));
    write_file(&trace_path, &tracer.to_json())?;
    println!("  wrote {} ({} spans)", trace_path.display(), tracer.len());

    let mut doc = header(args, &pass, "traced");
    doc.push("ledger_threads", pass.threads.into());
    doc.push("workload_threads", plan.threads.into());
    doc.push("round_ms_samples", window.round_ms.len().into());
    doc.push("sim", sim_block(&window));
    doc.push("fingerprint", pin);
    doc.push("ledger", ledger::rows_json(&ledger_rows));
    let title = format!(
        "{} — per layer, seed {:#x}, {} warm-up + {} timed rounds per pass",
        plan.workload.name, pass.seed, pass.warmup, pass.timed
    );
    report(
        &args.out.join(format!("layers_{}.json", plan.workload.name)),
        doc,
        &title,
        &rows,
        2 * pass.timed,
        untraced.failed_rounds + window.failed_rounds,
        &violations,
    )
}

/// `--workload all`: one child process per workload, so `peak_rss_mb` is
/// each workload's own. Every child is waited for.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut failed = Vec::new();
    for w in workloads::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        if !status.success() {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = workloads::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let plan = args.plan(workload);
    if args.trace {
        traced(&args, &plan)
    } else {
        end_to_end(&args, &plan)
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a =
            args(&["--workload", "walk_miss", "--seed", "7", "--seconds", "15", "--trace", "1"])
                .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("walk_miss", 7, 15, true));
        assert!(!a.smoke);
        assert_eq!(a.out, PathBuf::from("benchmark/out"));
        assert_eq!(args(&["--workload", "all", "--seed", "0x2004"]).unwrap().seed, 0x2004);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "x", "--seed", "minus"],
            &["--workload", "x", "--trace", "yes"],
            &["--workload", "x", "--seconds", "0"],
            &["--workload", "x", "--seconds", "61"],
            &["--workload", "x", "--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn full_size_plans_keep_the_round_floor_and_smoke_plans_stay_tiny() {
        for w in workloads::ALL {
            let full = args(&["--workload", w.name]).unwrap().plan(w);
            assert!(full.timed >= workloads::MIN_TIMED_ROUNDS, "{}", w.name);
            assert_eq!(full.setup_reps, 3);
            let smoke = args(&["--workload", w.name, "--smoke"]).unwrap().plan(w);
            assert!(smoke.warmup + smoke.timed <= 10, "{}", w.name);
        }
    }

    #[test]
    fn pins_parse_and_name_known_workloads() {
        let doc = json::parse(PINS).expect("fingerprints.json parses");
        for pin in doc.get("pins").expect("pins array").items() {
            let name = pin.get("workload").and_then(Value::as_str).expect("workload");
            assert!(workloads::by_name(name).is_some(), "{name}");
            let fp = pin.get("fingerprint").and_then(Value::as_str).expect("fingerprint");
            assert_eq!(fp.len(), 16, "{fp}");
        }
    }
}
