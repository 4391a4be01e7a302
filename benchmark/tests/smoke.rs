//! `--smoke` end to end: all four configs and the trace path, through the
//! real binary, in seconds. Checks the contract's result line, not timing.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["walk_miss", "route_event", "gossip_coded", "loaded_mix"];

/// A per-test output directory under the build tree (tests run in
/// parallel and must not share files).
fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Stale files from an earlier run must not satisfy the assertions.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke(workload: &str, trace: &str, out: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pdht-benchmark"))
        .args(["--workload", workload, "--smoke", "--trace", trace, "--out"])
        .arg(out)
        .output()
        .expect("benchmark binary runs")
}

/// The last stdout line, which must be the result object.
fn result_line(output: &std::process::Output) -> String {
    let stdout = String::from_utf8(output.stdout.clone()).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("some output").to_string()
}

#[test]
fn every_workload_smokes_end_to_end() {
    let out = out_dir("smoke_end_to_end");
    for w in WORKLOADS {
        let line = result_line(&smoke(w, "0", &out));
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":6,"failed":0,"metrics":{"#),
            "{line}"
        );
        for metric in [
            "setup_s",
            "round_ms_p50",
            "sim_msgs_per_s",
            "peak_rss_mb",
            "answered_frac",
            "sim_msgs_per_query",
        ] {
            assert!(line.contains(&format!("\"{metric}\":{{\"value\":")), "{w}: {metric} missing");
        }
        assert!(!line.contains("null"), "{w}: the result line carries numbers only: {line}");
        assert!(out.join(format!("{w}.json")).is_file());
    }
}

#[test]
fn every_workload_smokes_through_the_trace_path() {
    let out = out_dir("smoke_traced");
    for w in WORKLOADS {
        let line = result_line(&smoke(w, "1", &out));
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"#),
            "{line}"
        );
        assert!(line.contains("\"ledger.attributed_frac\":{\"value\":"), "{w}");
        assert!(line.contains("\"trace.overhead_frac\":{\"value\":"), "{w}");
        assert!(!line.contains("null"), "{w}: the result line carries numbers only");
        let trace =
            std::fs::read_to_string(out.join(format!("trace_{w}.json"))).expect("trace file");
        assert!(
            trace.contains("\"core.step_round\"")
                && trace.contains("\"unstructured.walk.ns_per_step\"")
        );
        // Phase timers exist only on the sharded path: `null` in the file,
        // the -1 sentinel on the result line — never 0.
        let layers = std::fs::read_to_string(out.join(format!("layers_{w}.json"))).expect("layers");
        let sharded = matches!(w, "route_event" | "loaded_mix");
        let phase = layers.split("\"core.phase.queries_ms\": {").nth(1).expect("phase metric");
        assert_eq!(phase.trim_start().starts_with("\"value\": null"), !sharded, "{w}");
        assert_eq!(line.contains("\"core.phase.queries_ms\":{\"value\":-1,"), !sharded, "{w}");
    }
}

#[test]
fn same_seed_same_simulation_and_bad_usage_fails() {
    let out = out_dir("smoke_determinism");
    let fingerprint = |dir: &PathBuf| {
        let doc = std::fs::read_to_string(dir.join("walk_miss.json")).expect("output file");
        doc.split("\"sim_fingerprint\": \"").nth(1).expect("fingerprint")[..16].to_string()
    };
    result_line(&smoke("walk_miss", "0", &out.join("a")));
    result_line(&smoke("walk_miss", "0", &out.join("b")));
    assert_eq!(fingerprint(&out.join("a")), fingerprint(&out.join("b")));

    let bad = smoke("no_such_workload", "0", &out);
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty(), "a failed start prints no result");
}
