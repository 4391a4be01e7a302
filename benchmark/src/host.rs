//! Where a number was taken: recorded in every output, never asserted on.

use crate::json::{obj, Value};
use std::process::Command;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// First line of `program args…`'s stdout, or `"unknown"` when the tool is
/// missing or fails (a benchmark checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `key: value` from a `/proc` text file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB. `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used so far.
/// `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of those, in clock ticks, which /proc reports at 100 Hz.
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// The host block every output file carries.
pub fn describe(threads: usize) -> Value {
    let nproc = nproc();
    obj([
        ("nproc", nproc.into()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()).into(),
        ),
        ("rustc", first_line_of("rustc", &["-V"]).into()),
        ("commit", first_line_of("git", &["rev-parse", "HEAD"]).into()),
        ("threads", threads.into()),
        // More executor threads than cpus means the timing rows are
        // timesharing noise; flagged here, judged by the reader.
        ("threads_exceed_nproc", (threads > nproc).into()),
    ])
}
