//! Every metric the harness may emit, declared once. `BENCHMARK.json`
//! lists the same names (a unit test holds the two together), and
//! [`MetricSet::finish`] refuses to emit a name that is not declared here
//! or to omit one that is — so "every emitted name is declared and vice
//! versa" holds by construction.
//!
//! Naming keeps host time and simulated statistics apart: `sim_*` and
//! `answered_frac` are simulated (they repeat *exactly* for a fixed seed
//! and round count); everything else end to end is host time or memory.
//! Per-layer names start with the crate the layer lives in.

use crate::json::{obj, Value};
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: Better::Lower }
}
const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: Better::Higher }
}

/// What a user of the simulator pays and gets, per workload, tracing off.
pub const END_TO_END: [Decl; 6] = [
    lower("setup_s", "s"),
    lower("round_ms_p50", "ms"),
    higher("sim_msgs_per_s", "msgs/s"),
    lower("peak_rss_mb", "MiB"),
    higher("answered_frac", "ratio"),
    lower("sim_msgs_per_query", "msgs"),
];

/// The outside-in ledger, from the traced run. `better` is the direction
/// an optimisation of that layer should move the number; plain counts and
/// simulated ratios a perf change must leave alone are marked by the
/// direction that is *cheaper for the host*.
pub const PER_LAYER: [Decl; 55] = [
    // pdht_unstructured — random-walk search and the graph it walks.
    lower("unstructured.walk.steps_per_round", "count"),
    lower("unstructured.walk.ns_per_step", "ns"),
    lower("unstructured.walk.share", "ratio"),
    higher("unstructured.walk.found_frac", "ratio"),
    lower("unstructured.topology.build_s", "s"),
    // pdht_overlay — routing, maintenance, churn.
    lower("overlay.route.hops_per_round", "count"),
    lower("overlay.route.ns_per_hop", "ns"),
    lower("overlay.route.share", "ratio"),
    lower("overlay.maint.probes_per_round", "count"),
    lower("overlay.maint.ns_per_peer_step", "ns"),
    lower("overlay.maint.share", "ratio"),
    lower("overlay.churn.ns_per_round", "ns"),
    lower("overlay.build_s", "s"),
    // pdht_sim — scheduler, slab, latency, barrier merge, executor.
    lower("sim.queue.events_per_round", "count"),
    lower("sim.queue.ns_per_event", "ns"),
    lower("sim.queue.share", "ratio"),
    lower("sim.slab.ns_per_park_take", "ns"),
    lower("sim.latency.ns_per_sample", "ns"),
    lower("sim.merge.ns_per_msg", "ns"),
    lower("sim.shard_pool.ns_per_pass", "ns"),
    higher("sim.shard_pool.speedup_t2", "ratio"),
    // pdht_gossip — the write side (push/pull, GF(256)) and the read side
    // (replica flood) of ReplicaGroup.
    lower("gossip.push.msgs_per_round", "count"),
    lower("gossip.push.ns_per_msg", "ns"),
    lower("gossip.push.share", "ratio"),
    higher("gossip.push.innovative_frac", "ratio"),
    lower("gossip.push.bytes_per_innovative", "bytes"),
    lower("gossip.pull.msgs_per_round", "count"),
    lower("gossip.gf.axpy_ns_per_byte", "ns"),
    lower("gossip.gf.decoder_ns_per_row", "ns"),
    lower("gossip.flood.msgs_per_round", "count"),
    lower("gossip.flood.ns_per_msg", "ns"),
    lower("gossip.flood.share", "ratio"),
    // pdht_core — the index and the engine's own round accounting.
    higher("core.index.hit_frac", "ratio"),
    lower("core.index.keys_resident", "count"),
    lower("core.index.ns_per_get", "ns"),
    lower("core.index.ns_per_insert", "ns"),
    lower("core.index.ns_per_purge_entry", "ns"),
    lower("core.query.issued_per_round", "count"),
    lower("core.inflight.queries_max", "count"),
    lower("core.inflight.updates_max", "count"),
    lower("core.round.ms_mean", "ms"),
    lower("core.round.ms_p90", "ms"),
    lower("core.round.ms_max", "ms"),
    lower("core.phase.churn_ms", "ms"),
    lower("core.phase.queries_ms", "ms"),
    lower("core.phase.background_ms", "ms"),
    lower("core.phase.barriers_ms", "ms"),
    lower("core.phase.serial_frac", "ratio"),
    // pdht_workload / pdht_zipf / pdht_types — expected under 2 % anywhere;
    // listed so a surprise is visible.
    lower("workload.queries.ns_per_query", "ns"),
    lower("zipf.sample.ns", "ns"),
    lower("types.liveness.ns_per_probe", "ns"),
    // The reconciliation itself.
    higher("ledger.attributed_frac", "ratio"),
    lower("ledger.unattributed_ms", "ms"),
    lower("trace.overhead_frac", "ratio"),
    lower("model.cost_ratio", "ratio"),
];

/// What the contract's result line carries for a metric that does not
/// exist on this workload (a phase the engine does not time at
/// `shards = 1`, a ratio over zero events). That line admits only
/// numbers, so the human table and the `out/` files say `null` and the
/// result line says `-1` — never `0`, which would read as "free".
pub const NOT_MEASURED: f64 = -1.0;

/// Is `name` made only of letters, digits, `_`, `.` and `-`, starting
/// with a letter or digit, at most 64 long?
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Values collected for one declared table. `None` = not measured on this
/// workload.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, Option<f64>>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Some(value));
    }

    /// Records a value that may not exist on this workload.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.values.insert(name, value.filter(|v| v.is_finite()));
    }

    /// A recorded value (`None` when absent on this workload or never set).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied().flatten()
    }

    /// Pairs every declaration with its value, in declaration order.
    ///
    /// # Errors
    /// Names what was recorded but not declared, or declared but not
    /// recorded — either is a harness bug the run must not paper over.
    pub fn finish(&self, decls: &[Decl]) -> Result<Vec<(Decl, Option<f64>)>, String> {
        let undeclared: Vec<&str> = self
            .values
            .keys()
            .copied()
            .filter(|name| !decls.iter().any(|d| d.name == *name))
            .collect();
        if !undeclared.is_empty() {
            return Err(format!("recorded but not declared: {}", undeclared.join(", ")));
        }
        if let Some(bad) = decls.iter().find(|d| !valid_name(d.name)) {
            return Err(format!("metric name {:?} is outside [A-Za-z0-9_.-]", bad.name));
        }
        decls
            .iter()
            .map(|d| {
                self.values
                    .get(d.name)
                    .map(|v| (*d, *v))
                    .ok_or_else(|| format!("declared but not recorded: {}", d.name))
            })
            .collect()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for the contract's result line
/// (numbers only, [`NOT_MEASURED`] for absent values) or, with
/// `nulls = true`, for the `out/` files.
pub fn metrics_object(rows: &[(Decl, Option<f64>)], nulls: bool) -> Value {
    Value::Obj(
        rows.iter()
            .map(|(d, v)| {
                let value = match v {
                    Some(x) => Value::Num(*x),
                    None if nulls => Value::Null,
                    None => Value::Num(NOT_MEASURED),
                };
                (d.name.to_string(), obj([("value", value), ("unit", d.unit.into())]))
            })
            .collect(),
    )
}

/// The aligned `name value unit` table printed for people.
pub fn print_table(title: &str, rows: &[(Decl, Option<f64>)]) {
    println!("\n{title}");
    let width = rows.iter().map(|(d, _)| d.name.len()).max().unwrap_or(0);
    for (d, v) in rows {
        let value = v.map_or_else(|| "null".to_string(), |x| format!("{x:.6}"));
        println!(
            "  {:<width$}  {value:>18}  {:<6} ({} is better)",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn name_validator_accepts_the_contract_alphabet_only() {
        for good in ["setup_s", "core.phase.serial_frac", "a-b", "9lives", "A.b_c-d"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "slash/y", "ünï", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
    }

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same unit and direction, in both directions.
    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_emits() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, decls) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).expect("section present").items();
            let names: Vec<&str> =
                listed.iter().map(|m| m.get("name").and_then(Value::as_str).unwrap()).collect();
            let ours: Vec<&str> = decls.iter().map(|d| d.name).collect();
            assert_eq!(names, ours, "{key} names differ from the harness tables");
            for (m, d) in listed.iter().zip(decls) {
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit), "{}", d.name);
                assert_eq!(
                    m.get("better").and_then(Value::as_str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads present")
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn finish_rejects_undeclared_and_missing_names() {
        let decls = [lower("a", "ms"), higher("b", "count")];
        let mut set = MetricSet::new();
        set.set("a", 1.5);
        assert!(set.finish(&decls).unwrap_err().contains("not recorded: b"));
        set.set_opt("b", None);
        let rows = set.finish(&decls).unwrap();
        assert_eq!(rows[0].1, Some(1.5));
        assert_eq!(rows[1].1, None);
        set.set("c", 2.0);
        assert!(set.finish(&decls).unwrap_err().contains("not declared: c"));
    }

    #[test]
    fn result_line_is_numbers_only_and_files_keep_null() {
        let rows = [(lower("a", "ms"), Some(0.25)), (lower("b", "ms"), None)];
        assert_eq!(
            metrics_object(&rows, false).compact(),
            r#"{"a":{"value":0.25,"unit":"ms"},"b":{"value":-1,"unit":"ms"}}"#
        );
        assert_eq!(
            metrics_object(&rows, true).compact(),
            r#"{"a":{"value":0.25,"unit":"ms"},"b":{"value":null,"unit":"ms"}}"#
        );
    }
}
