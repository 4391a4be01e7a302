//! Shared plumbing for the experiments of the `pdht-bench` binary: the one
//! table/CSV emitter, the [`SimReport`] column block and histogram table
//! the simulation experiments share, and their shared flags.
//!
//! Every module under `src/experiments/` regenerates one table or figure of
//! the paper, and `src/main.rs` dispatches to it by name (its table is the
//! experiment index in `DESIGN.md` §1):
//! `cargo run --release -p pdht-bench -- <experiment> [flags]`. Each table
//! goes through [`emit`] once, which prints it and writes
//! `results/<name>.csv` from the same header and the same cells: the
//! printed table *is* the CSV. The benchmark of record is the standalone
//! `benchmark/` package, not these experiments.

use pdht_core::SimReport;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The workspace `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    // crates/bench → workspace root is two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV file into `results/`, returning its path.
fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Renders a fixed-width table: title, header row, separator, data rows.
fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    fn fmt_row<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
        let padded: Vec<String> =
            cells.iter().zip(widths).map(|(c, &w)| format!("{:>w$}", c.as_ref())).collect();
        padded.join("  ") + "\n"
    }
    let mut out = format!("\n== {title} ==\n") + &fmt_row(header, &widths);
    out += &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    out += "\n";
    for row in rows {
        out += &fmt_row(row, &widths);
    }
    out
}

/// The one output path of every experiment table: prints `rows` under
/// `title` as a fixed-width table, writes the same header and cells to
/// `results/<name>.csv`, and prints the CSV's path. Exits 2 if the file
/// cannot be written.
pub fn emit(name: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, header, rows));
    match write_csv(name, header, rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => exit_with(&format!("cannot write results/{name}.csv: {e}")),
    }
}

/// Prints `error: {msg}` and exits 2, flushing what the experiment already
/// printed first (`process::exit` skips the stdout destructor).
pub fn exit_with(msg: &str) -> ! {
    let _ = std::io::stdout().flush();
    eprintln!("error: {msg}");
    let _ = std::io::stderr().flush();
    std::process::exit(2);
}

/// Formats a float with three significant decimals for tables.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with one decimal for msg/s columns.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// A human-readable label for a sweep frequency (e.g. `1/30`).
pub fn freq_label(f_qry: f64) -> String {
    if f_qry <= 0.0 {
        return "0".to_string();
    }
    let period = 1.0 / f_qry;
    if (period - period.round()).abs() < 1e-9 {
        format!("1/{}", period.round() as u64)
    } else {
        format!("{f_qry:.6}")
    }
}

/// The [`SimReport`] columns the simulation experiments (S2–S4) share, in this
/// order; [`report_cells`] formats one report into them.
pub const REPORT_HEADER: [&str; 5] =
    ["msgs_per_round", "p_indexed", "indexed_keys", "wasted_bandwidth", "gossip_bytes_per_round"];

/// One report's cells under [`REPORT_HEADER`].
pub fn report_cells(r: &SimReport) -> Vec<String> {
    vec![
        f1(r.msgs_per_round),
        f3(r.p_indexed),
        f1(r.indexed_keys),
        f3(r.wasted_bandwidth),
        f1(r.gossip_bytes_per_round),
    ]
}

/// Command-line flags shared by the simulation experiments (S2–S5): overlay
/// substrate, latency model, population override, shard and thread
/// counts, gossip codec, and a CI-friendly smoke mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimArgs {
    /// `--overlay trie|chord|kademlia` (default: trie, the paper's
    /// substrate).
    pub overlay: pdht_core::OverlayKind,
    /// `--latency zero|uniform:LO_MS,HI_MS|lognormal:MEDIAN_MS,SIGMA`
    /// (default: zero, the paper's whole-round semantics).
    pub latency: pdht_core::LatencyConfig,
    /// `--peers N`: override the scenario's total population (the S4 scale
    /// knob; `None` keeps each experiment's default).
    pub peers: Option<u32>,
    /// `--threads N`: worker threads for the engine's lane passes
    /// (default 1). A purely *executor* knob: results never depend on it.
    pub threads: u32,
    /// `--shards N`: the engine's shard count (`PdhtConfig::shards`,
    /// default 1) — the *semantic* knob: results depend on it, never on
    /// `--threads`.
    pub shards: u32,
    /// `--gossip-codec plain|chunked|rlnc|rlnc-sparse`: how update-gossip
    /// packets are encoded (`PdhtConfig::gossip_codec`; default plain, the
    /// legacy accounting).
    pub gossip_codec: pdht_core::GossipCodec,
    /// `--gen-size G`: generation size for the coded codecs
    /// (`PdhtConfig::gossip_generation`; default 8, the fixed-size
    /// behavior; max [`pdht_gossip::MAX_GENERATION`]).
    pub gen_size: u32,
    /// `--smoke`: shrink rounds/scale so CI can exercise the experiment
    /// quickly.
    pub smoke: bool,
}

impl Default for SimArgs {
    /// The values every flag takes when it is not given.
    fn default() -> Self {
        SimArgs {
            overlay: pdht_core::OverlayKind::Trie,
            latency: pdht_core::LatencyConfig::Zero,
            peers: None,
            threads: 1,
            shards: 1,
            gossip_codec: pdht_core::GossipCodec::Plain,
            gen_size: pdht_gossip::GENERATION_SIZE as u32,
            smoke: false,
        }
    }
}

impl SimArgs {
    /// Applies the semantic knobs to a configuration: overlay, latency,
    /// shard count, gossip codec and generation size. Pair with
    /// [`SimArgs::apply_threads`] on the built network.
    pub fn apply(&self, cfg: &mut pdht_core::PdhtConfig) {
        cfg.overlay = self.overlay;
        cfg.latency = self.latency;
        cfg.shards = self.shards;
        cfg.gossip_codec = self.gossip_codec;
        cfg.gossip_generation = self.gen_size as usize;
    }

    /// Applies the `--threads` knob to a built network (worker count).
    pub fn apply_threads(&self, net: &mut pdht_core::PdhtNetwork) {
        net.set_threads(self.threads.max(1) as usize);
    }

    /// The flags as the experiments' configuration line prints them.
    pub fn describe(&self) -> String {
        format!(
            "overlay = {:?}, latency = {:?}, threads = {}, shards = {}, gossip codec = {:?}, \
             gen size = {}{}",
            self.overlay,
            self.latency,
            self.threads,
            self.shards,
            self.gossip_codec,
            self.gen_size,
            if self.smoke { ", smoke mode" } else { "" }
        )
    }
}

/// Parses a `u32` flag value inside `[lo, hi]`.
///
/// # Errors
/// Returns a human-readable description of the rejected spelling.
pub fn parse_count_flag(flag: &str, value: &str, lo: u32, hi: u32) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(n) if n >= lo && n <= hi => Ok(n),
        _ if hi == u32::MAX => Err(format!("{flag} needs an integer >= {lo}, got {value:?}")),
        _ => Err(format!("{flag} needs an integer in {lo}..={hi}, got {value:?}")),
    }
}

/// Parses a gossip-codec spec (`plain`, `chunked`, `rlnc`, `rlnc-sparse`).
///
/// # Errors
/// Returns a human-readable description of the rejected spelling.
pub fn parse_gossip_codec(spec: &str) -> Result<pdht_core::GossipCodec, String> {
    use pdht_core::GossipCodec;
    match spec {
        "plain" => Ok(GossipCodec::Plain),
        "chunked" => Ok(GossipCodec::Chunked),
        "rlnc" => Ok(GossipCodec::Rlnc),
        "rlnc-sparse" => Ok(GossipCodec::RlncSparse),
        other => {
            Err(format!("unknown gossip codec {other:?} (want plain|chunked|rlnc|rlnc-sparse)"))
        }
    }
}

/// Parses the shared simulation flags (the command line after the
/// experiment's name), exiting 2 with a usage message on anything
/// unrecognized (output already printed is flushed first, so it is never
/// lost).
pub fn parse_sim_args(flags: impl IntoIterator<Item = String>) -> SimArgs {
    use pdht_core::OverlayKind;
    let usage = |msg: &str| -> ! {
        exit_with(&format!(
            "{msg}\nusage: pdht-bench <experiment> [--overlay trie|chord|kademlia] \
             [--latency zero|uniform:LO_MS,HI_MS|lognormal:MEDIAN_MS,SIGMA] \
             [--peers N] [--threads N] [--shards N] \
             [--gossip-codec plain|chunked|rlnc|rlnc-sparse] [--gen-size G] [--smoke]"
        ))
    };
    let count = |flag: &str, v: &str, lo: u32, hi: u32| {
        parse_count_flag(flag, v, lo, hi).unwrap_or_else(|e| usage(&e))
    };
    let mut args = SimArgs::default();
    let mut it = flags.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--overlay" => {
                args.overlay = match value().as_str() {
                    "trie" => OverlayKind::Trie,
                    "chord" => OverlayKind::Chord,
                    "kademlia" => OverlayKind::Kademlia,
                    other => usage(&format!("unknown overlay {other:?}")),
                };
            }
            "--latency" => args.latency = parse_latency(&value()).unwrap_or_else(|e| usage(&e)),
            "--peers" => args.peers = Some(count("--peers", &value(), 2, u32::MAX)),
            "--threads" => args.threads = count("--threads", &value(), 1, 256),
            "--shards" => args.shards = count("--shards", &value(), 1, 256),
            "--gossip-codec" => {
                args.gossip_codec = parse_gossip_codec(&value()).unwrap_or_else(|e| usage(&e));
            }
            "--gen-size" => {
                let hi = pdht_gossip::MAX_GENERATION as u32;
                args.gen_size = count("--gen-size", &value(), 1, hi);
            }
            "--smoke" => args.smoke = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// Exits with an error if `--peers` was passed to an experiment whose
/// scenario is fixed (only S4 honors the override) — silently ignoring the
/// flag would mislabel the results.
pub fn reject_peers_override(args: &SimArgs, name: &str) {
    if let Some(n) = args.peers {
        exit_with(&format!(
            "{name} runs a fixed scenario and does not support --peers {n} \
             (the population override is the S4 knob — use the sim_scale experiment)"
        ));
    }
}

/// Parses a latency-model spec (`zero`, `uniform:LO_MS,HI_MS`,
/// `lognormal:MEDIAN_MS,SIGMA`).
///
/// # Errors
/// Returns a human-readable description of the malformed spec.
pub fn parse_latency(spec: &str) -> Result<pdht_core::LatencyConfig, String> {
    use pdht_core::LatencyConfig;
    if spec == "zero" {
        return Ok(LatencyConfig::Zero);
    }
    let two = |body: &str, what: &str| -> Result<(f64, f64), String> {
        let (a, b) = body
            .split_once(',')
            .ok_or_else(|| format!("{what} needs two comma-separated numbers, got {body:?}"))?;
        let a = a.trim().parse::<f64>().map_err(|e| format!("bad {what} number {a:?}: {e}"))?;
        let b = b.trim().parse::<f64>().map_err(|e| format!("bad {what} number {b:?}: {e}"))?;
        Ok((a, b))
    };
    if let Some(body) = spec.strip_prefix("uniform:") {
        let (lo_ms, hi_ms) = two(body, "uniform")?;
        return Ok(LatencyConfig::Uniform { lo_ms, hi_ms });
    }
    if let Some(body) = spec.strip_prefix("lognormal:") {
        let (median_ms, sigma) = two(body, "lognormal")?;
        return Ok(LatencyConfig::LogNormal { median_ms, sigma });
    }
    Err(format!("unknown latency model {spec:?}"))
}

/// The header of every histogram table ([`emit_histograms`]): one row per
/// `(label, metric)` pair carrying the full
/// [`HistogramSummary`](pdht_sim::HistogramSummary).
pub const HISTOGRAM_CSV_HEADER: [&str; 8] =
    ["label", "metric", "count", "mean", "p50", "p95", "p99", "max"];

/// Emits the per-query hop/latency and per-wave wasted-bandwidth
/// histograms of labelled [`SimReport`]s as the table `results/<name>.csv`
/// (one row per populated histogram). Reports without histograms (e.g. a
/// run that answered no queries, or ran no update gossip) contribute no
/// rows. The mean is formatted with `Display`, the shortest representation
/// that parses back exactly.
pub fn emit_histograms(name: &str, reports: &[(String, SimReport)]) {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, r) in reports {
        for (metric, h) in [
            ("query_hops", &r.query_hops),
            ("query_latency_us", &r.query_latency_us),
            ("gossip_wave_redundant", &r.gossip_wave_redundant),
            ("gossip_wave_bytes", &r.gossip_wave_bytes),
        ] {
            let Some(h) = h else { continue };
            rows.push(vec![
                label.clone(),
                metric.to_string(),
                h.count.to_string(),
                h.mean.to_string(),
                h.p50.to_string(),
                h.p95.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
    }
    emit(name, &format!("{name}: histograms per run"), &HISTOGRAM_CSV_HEADER, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips() {
        let header = ["policy", "msgs", "p"];
        let rows = vec![
            vec!["always (paper)".to_string(), "2730.3".into(), "0.916".into()],
            vec!["second-chance".to_string(), "2598.5".into(), "0.887".into()],
        ];
        emit("unit_test_artifact", "round trip", &header, &rows);
        let path = results_dir().join("unit_test_artifact.csv");
        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(
            body,
            "policy,msgs,p\nalways (paper),2730.3,0.916\nsecond-chance,2598.5,0.887\n"
        );
        // The printed table carries exactly the file's cells: skip the
        // blank line, title and separator, then split the right-aligned
        // columns on their two-space gutters.
        let printed = render_table("round trip", &header, &rows);
        let mut lines = printed.lines().skip(2);
        let table_header = lines.next().unwrap();
        let table_rows: Vec<&str> = lines.skip(1).collect();
        let cells = |line: &str| -> Vec<String> {
            line.split("  ").map(str::trim).filter(|c| !c.is_empty()).map(String::from).collect()
        };
        let csv: Vec<Vec<String>> =
            body.lines().map(|l| l.split(',').map(String::from).collect()).collect();
        assert_eq!(cells(table_header), csv[0]);
        assert_eq!(table_rows.iter().map(|l| cells(l)).collect::<Vec<_>>(), csv[1..]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f1(719.96), "720.0");
    }

    #[test]
    fn freq_labels_render_like_the_paper_axis() {
        assert_eq!(freq_label(1.0 / 30.0), "1/30");
        assert_eq!(freq_label(1.0 / 7200.0), "1/7200");
        assert_eq!(freq_label(0.0), "0");
    }
}

#[cfg(test)]
mod histogram_csv_tests {
    use super::*;
    use pdht_core::{LatencyConfig, PdhtConfig, PdhtNetwork, Strategy};
    use pdht_sim::HistogramSummary;

    /// A short Partial run under uniform latency, so its query histograms
    /// are populated.
    fn short_report() -> SimReport {
        let mut cfg =
            PdhtConfig::new(pdht_model::Scenario::table1_scaled(20), 1.0 / 30.0, Strategy::Partial);
        cfg.latency = LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 };
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        net.run(12);
        net.report(0, 11)
    }

    /// Emits `reports` as `results/<name>.csv`, then reads the file back as
    /// `(label, metric, summary)` rows and removes it.
    fn emit_and_read_back(
        name: &str,
        reports: &[(String, SimReport)],
    ) -> Vec<(String, String, HistogramSummary)> {
        emit_histograms(name, reports);
        let path = results_dir().join(format!("{name}.csv"));
        let body = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(path);
        let mut lines = body.lines();
        assert_eq!(lines.next().unwrap(), HISTOGRAM_CSV_HEADER.join(","));
        lines
            .map(|line| {
                let f: Vec<&str> = line.split(',').collect();
                assert_eq!(f.len(), HISTOGRAM_CSV_HEADER.len(), "{line}");
                let int = |s: &str| s.parse::<u64>().expect("integer cell");
                let h = HistogramSummary {
                    count: int(f[2]),
                    mean: f[3].parse().expect("mean cell"),
                    p50: int(f[4]),
                    p95: int(f[5]),
                    p99: int(f[6]),
                    max: int(f[7]),
                };
                (f[0].to_string(), f[1].to_string(), h)
            })
            .collect()
    }

    #[test]
    fn histogram_rows_round_trip() {
        // A mean with a non-terminating binary expansion must survive the
        // format → parse cycle bit-for-bit (f64 Display is shortest-exact),
        // and every histogram a report carries gets its own row.
        let summary = HistogramSummary {
            count: 12_345,
            mean: 7.0 / 3.0,
            p50: 4,
            p95: 17,
            p99: 128,
            max: 100_000,
        };
        let mut report = short_report();
        report.query_hops = Some(summary);
        report.query_latency_us = Some(summary);
        report.gossip_wave_redundant = Some(summary);
        report.gossip_wave_bytes = Some(summary);
        let rows = emit_and_read_back("unit_test_histogram_rows", &[("p@1/30".into(), report)]);
        let metrics: Vec<&str> = rows.iter().map(|r| r.1.as_str()).collect();
        assert_eq!(
            metrics,
            ["query_hops", "query_latency_us", "gossip_wave_redundant", "gossip_wave_bytes"]
        );
        for (label, metric, parsed) in rows {
            assert_eq!(label, "p@1/30");
            assert_eq!(parsed, summary, "{metric} must round-trip the summary exactly");
        }
    }

    #[test]
    fn histogram_csv_file_round_trips_simreport_values() {
        // End-to-end: run a short simulation, emit its SimReport
        // histograms, read the file back, and compare against the report.
        let report = short_report();
        assert!(report.query_hops.is_some() && report.query_latency_us.is_some());
        let rows =
            emit_and_read_back("unit_test_histograms", &[("partial".to_string(), report.clone())]);
        let mut seen = 0;
        for (label, metric, parsed) in rows {
            assert_eq!(label, "partial");
            let original = match metric.as_str() {
                "query_hops" => report.query_hops.expect("hops populated"),
                "query_latency_us" => report.query_latency_us.expect("latency populated"),
                other => panic!("unexpected metric {other}"),
            };
            assert_eq!(parsed, original, "{metric} must round-trip through the CSV");
            seen += 1;
        }
        assert_eq!(seen, 2, "both histograms must be persisted");
    }
}

#[cfg(test)]
mod latency_spec_tests {
    use super::parse_latency;
    use pdht_core::LatencyConfig;

    #[test]
    fn parses_all_model_specs() {
        assert_eq!(parse_latency("zero").unwrap(), LatencyConfig::Zero);
        assert_eq!(
            parse_latency("uniform:5,20").unwrap(),
            LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 }
        );
        assert_eq!(
            parse_latency("lognormal:30,0.5").unwrap(),
            LatencyConfig::LogNormal { median_ms: 30.0, sigma: 0.5 }
        );
        assert!(parse_latency("gaussian:1,2").is_err());
        assert!(parse_latency("uniform:5").is_err());
        assert!(parse_latency("lognormal:a,b").is_err());
    }
}

#[cfg(test)]
mod flag_spec_tests {
    use super::{parse_count_flag, parse_gossip_codec};
    use pdht_core::GossipCodec;

    #[test]
    fn count_flags_accept_their_domains() {
        assert_eq!(parse_count_flag("--peers", "2", 2, u32::MAX), Ok(2));
        assert_eq!(parse_count_flag("--peers", "1000000", 2, u32::MAX), Ok(1_000_000));
        assert_eq!(parse_count_flag("--threads", "1", 1, 256), Ok(1));
        assert_eq!(parse_count_flag("--threads", "256", 1, 256), Ok(256));
        assert_eq!(parse_count_flag("--shards", "8", 1, 256), Ok(8));
    }

    #[test]
    fn peers_rejections_name_the_spelling() {
        for bad in ["1", "0", "abc", "-3", "2.5", ""] {
            let err = parse_count_flag("--peers", bad, 2, u32::MAX).unwrap_err();
            assert!(err.contains("--peers") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn threads_rejections_name_the_spelling() {
        for bad in ["0", "257", "x", "-1", "1e2", ""] {
            let err = parse_count_flag("--threads", bad, 1, 256).unwrap_err();
            assert!(err.contains("--threads") && err.contains("1..=256"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn shards_rejections_name_the_spelling() {
        for bad in ["0", "1000", "four", ""] {
            let err = parse_count_flag("--shards", bad, 1, 256).unwrap_err();
            assert!(err.contains("--shards") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn gossip_codec_specs_parse_and_reject() {
        assert_eq!(parse_gossip_codec("plain"), Ok(GossipCodec::Plain));
        assert_eq!(parse_gossip_codec("chunked"), Ok(GossipCodec::Chunked));
        assert_eq!(parse_gossip_codec("rlnc"), Ok(GossipCodec::Rlnc));
        assert_eq!(parse_gossip_codec("rlnc-sparse"), Ok(GossipCodec::RlncSparse));
        for bad in [
            "Plain",
            "RLNC",
            "rlnC",
            "fountain",
            "raptor",
            "rlncsparse",
            "sparse",
            "RLNC-SPARSE",
            "",
        ] {
            let err = parse_gossip_codec(bad).unwrap_err();
            assert!(err.contains("plain|chunked|rlnc|rlnc-sparse"), "{err}");
        }
    }

    #[test]
    fn gen_size_rejections_name_the_spelling() {
        let hi = pdht_gossip::MAX_GENERATION as u32;
        assert_eq!(parse_count_flag("--gen-size", "1", 1, hi), Ok(1));
        assert_eq!(parse_count_flag("--gen-size", "8", 1, hi), Ok(8));
        assert_eq!(parse_count_flag("--gen-size", "32", 1, hi), Ok(32));
        for bad in ["0", "33", "64", "eight", "-8", "8.0", ""] {
            let err = parse_count_flag("--gen-size", bad, 1, hi).unwrap_err();
            assert!(err.contains("--gen-size") && err.contains("1..=32"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn threads_alone_leave_one_shard_explicit_shards_win() {
        use super::SimArgs;
        use pdht_core::{LatencyConfig, OverlayKind, PdhtConfig, Strategy};
        let fresh = || {
            PdhtConfig::new(pdht_model::Scenario::table1_scaled(20), 1.0 / 30.0, Strategy::Partial)
        };
        // `--threads` is an executor knob: it never reaches the config.
        let mut args = SimArgs { threads: 4, ..SimArgs::default() };
        let mut cfg = fresh();
        args.apply(&mut cfg);
        assert_eq!(cfg.shards, 1, "--threads alone keeps one shard");
        args = SimArgs {
            overlay: OverlayKind::Chord,
            latency: LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 20.0 },
            shards: 8,
            gossip_codec: GossipCodec::Rlnc,
            gen_size: 32,
            ..args
        };
        let mut cfg = fresh();
        args.apply(&mut cfg);
        assert_eq!(cfg.shards, 8, "--shards sets the semantic knob");
        assert_eq!(cfg.overlay, OverlayKind::Chord);
        assert_eq!(cfg.latency, args.latency);
        assert_eq!(cfg.gossip_codec, GossipCodec::Rlnc);
        assert_eq!(cfg.gossip_generation, 32, "apply carries --gen-size");
    }
}
