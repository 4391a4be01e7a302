//! The outside-in ledger: the engine's exact per-round call counts times
//! the replayed unit costs, held against the untraced round time.
//!
//! `share = calls_per_round × ns_per_call ÷ round_ms_mean`. Counts are
//! exact (they come from the traced window's message accounting); unit
//! costs are host time. The denominator is the *mean* round, not the
//! median: counts are per-round means, and rounds are heavy-tailed (on
//! `walk_miss` the mean round is a fifth longer than the median one), so
//! only the mean makes `Σ count × cost` and the wall clock comparable.
//! Whatever the rows do not explain is printed as "unattributed", not
//! spread over the layers.

use crate::json::{obj, Value};
use crate::metrics::MetricSet;
use crate::run::Window;
use pdht_core::{model_key_ttl, PdhtConfig, Strategy, TtlPolicy};
use pdht_model::{SelectionModel, StrategyCosts};
use pdht_types::MessageKind;

/// Everything one traced run produced.
pub struct Traced<'a> {
    /// The configuration both passes ran.
    pub cfg: &'a PdhtConfig,
    /// Active peers the engine sized.
    pub nap: usize,
    /// The pass with tracing off (same seed, same rounds).
    pub untraced: &'a Window,
    /// The pass with phase timers and per-round spans on.
    pub traced: &'a Window,
    /// Replayed unit costs, under their per-layer metric names.
    pub costs: MetricSet,
    /// `round_ms_p50` at 1 thread ÷ at 2 threads (sharded, multi-threaded
    /// workloads only).
    pub speedup_t2: Option<f64>,
}

/// One attributed row: a layer with an exact count and a unit cost.
pub struct Row {
    /// Layer name (the prefix of its per-layer metrics).
    pub layer: &'static str,
    /// Calls per simulated round, exact.
    pub calls_per_round: f64,
    /// Host nanoseconds per call, replayed.
    pub ns_per_call: Option<f64>,
    /// Fraction of the untraced mean round this explains.
    pub share: f64,
}

/// The ledger rows, in the order the README's table lists them.
pub fn rows(t: &Traced<'_>) -> Vec<Row> {
    let rounds = t.traced.round_ms.len() as f64;
    let per_round = |kinds: &[MessageKind]| t.traced.counts.sum_of(kinds) as f64 / rounds;
    let (w, o) = (t.traced, &t.traced.report);
    let mean_ns = t.untraced.round_ms_mean() * 1e6;
    let row = |layer, calls_per_round: f64, ns_per_call: Option<f64>| Row {
        layer,
        calls_per_round,
        ns_per_call,
        share: calls_per_round * ns_per_call.unwrap_or(0.0) / mean_ns,
    };
    let c = &t.costs;
    vec![
        row(
            "unstructured.walk",
            per_round(&[MessageKind::WalkStep]),
            c.get("unstructured.walk.ns_per_step"),
        ),
        row(
            "overlay.route",
            per_round(&[MessageKind::RouteHop, MessageKind::IndexInsert]),
            c.get("overlay.route.ns_per_hop"),
        ),
        // Every active peer ticks once per round, online or not.
        row("overlay.maint", t.nap as f64, c.get("overlay.maint.ns_per_peer_step")),
        row("overlay.churn", 1.0, c.get("overlay.churn.ns_per_round")),
        row("sim.queue", t.traced.events as f64 / rounds, c.get("sim.queue.ns_per_event")),
        row("gossip.push", per_round(&[MessageKind::GossipPush]), c.get("gossip.push.ns_per_msg")),
        row(
            "gossip.flood",
            per_round(&[MessageKind::ReplicaFlood]),
            c.get("gossip.flood.ns_per_msg"),
        ),
        // One store probe per query that reached the index.
        row("core.index", (w.hits + w.misses) as f64 / rounds, c.get("core.index.ns_per_get")),
        // The generator also draws the queries whose origin turns out offline.
        row(
            "workload.queries",
            (w.issued() + o.skipped_offline) as f64 / rounds,
            c.get("workload.queries.ns_per_query"),
        ),
    ]
}

/// Model cost per round for the workload's strategy (Eq. 11/12/17).
fn model_cost(cfg: &PdhtConfig) -> Option<f64> {
    let s = &cfg.scenario;
    let reference = StrategyCosts::evaluate(s, cfg.f_qry).ok()?;
    match cfg.strategy {
        Strategy::IndexAll => Some(reference.index_all),
        Strategy::NoIndex => Some(reference.no_index),
        Strategy::Partial => {
            let ttl = match cfg.ttl_policy {
                TtlPolicy::Fixed(t) => t as f64,
                TtlPolicy::FromModel { factor } => model_key_ttl(s, cfg.f_qry).ok()? * factor,
                TtlPolicy::Adaptive { .. } => model_key_ttl(s, cfg.f_qry).ok()?,
            };
            SelectionModel::evaluate_with_ttl(s, cfg.f_qry, ttl).ok().map(|m| m.total_cost)
        }
    }
}

/// `num ÷ den`, absent over an empty denominator.
fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Adds every count, ratio and share to the replayed unit costs: all the
/// per-layer metrics of one traced run.
pub fn per_layer(t: Traced<'_>, rows: &[Row]) -> MetricSet {
    let rounds = t.traced.round_ms.len() as f64;
    let (w, o) = (t.traced, &t.traced.report);
    let find = |layer: &str| rows.iter().find(|r| r.layer == layer).expect("ledger row exists");
    let mut m = t.costs;

    let walk = find("unstructured.walk");
    m.set("unstructured.walk.steps_per_round", walk.calls_per_round);
    m.set("unstructured.walk.share", walk.share);
    m.set_opt(
        "unstructured.walk.found_frac",
        ratio(o.search_failures, w.misses).map(|failed| 1.0 - failed),
    );

    let route = find("overlay.route");
    m.set("overlay.route.hops_per_round", route.calls_per_round);
    m.set("overlay.route.share", route.share);
    m.set("overlay.maint.probes_per_round", t.traced.counts[MessageKind::Probe] as f64 / rounds);
    m.set("overlay.maint.share", find("overlay.maint").share);

    let queue = find("sim.queue");
    m.set("sim.queue.events_per_round", queue.calls_per_round);
    m.set("sim.queue.share", queue.share);
    m.set_opt("sim.shard_pool.speedup_t2", t.speedup_t2);

    let push = find("gossip.push");
    m.set("gossip.push.msgs_per_round", push.calls_per_round);
    m.set("gossip.push.share", push.share);
    m.set_opt(
        "gossip.push.innovative_frac",
        ratio(o.gossip_innovative, o.gossip_innovative + o.gossip_redundant),
    );
    m.set_opt("gossip.push.bytes_per_innovative", ratio(o.gossip_bytes, o.gossip_innovative));
    m.set("gossip.pull.msgs_per_round", t.traced.counts[MessageKind::GossipPull] as f64 / rounds);
    let flood = find("gossip.flood");
    m.set("gossip.flood.msgs_per_round", flood.calls_per_round);
    m.set("gossip.flood.share", flood.share);

    m.set("core.index.hit_frac", t.traced.report.p_indexed);
    m.set("core.index.keys_resident", t.traced.report.indexed_keys);
    m.set("core.query.issued_per_round", w.issued() as f64 / rounds);
    m.set("core.inflight.queries_max", t.traced.inflight_max.0 as f64);
    m.set("core.inflight.updates_max", t.traced.inflight_max.1 as f64);
    // Tail of the round time, tracing off. Too noisy run to run to gate on
    // (35 vs 41 ms across identical runs while sizing the benchmark), so it
    // lives here and not among the end-to-end metrics.
    m.set("core.round.ms_mean", t.untraced.round_ms_mean());
    m.set("core.round.ms_p90", t.untraced.round_ms_percentile(0.9));
    m.set("core.round.ms_max", t.untraced.round_ms_percentile(1.0));
    // At `shards = 1` the engine leaves the queries/background buckets at
    // 0 ns (only slices of the legacy path are instrumented): absent, not 0.
    let phases = t.traced.phases.filter(|_| t.cfg.shards > 1);
    let ms = |pick: fn(&pdht_core::PhaseBreakdown) -> std::time::Duration| {
        phases.map(|p| pick(&p).as_secs_f64() * 1e3 / rounds)
    };
    m.set_opt("core.phase.churn_ms", ms(|p| p.churn));
    m.set_opt("core.phase.queries_ms", ms(|p| p.queries));
    m.set_opt("core.phase.background_ms", ms(|p| p.background));
    m.set_opt("core.phase.barriers_ms", ms(|p| p.barriers));
    m.set_opt("core.phase.serial_frac", phases.map(|p| p.serial_fraction()));

    let attributed: f64 = rows.iter().map(|r| r.share).sum();
    let (untraced_p50, traced_p50) = (t.untraced.round_ms_p50(), t.traced.round_ms_p50());
    m.set("ledger.attributed_frac", attributed);
    m.set("ledger.unattributed_ms", t.untraced.round_ms_mean() * (1.0 - attributed));
    m.set("trace.overhead_frac", (traced_p50 - untraced_p50) / untraced_p50);
    // Deviations under churn and latency are DESIGN §7's; reported, not gated.
    m.set_opt(
        "model.cost_ratio",
        model_cost(t.cfg).map(|model| t.traced.report.msgs_per_round_model_view() / model),
    );
    m
}

/// The ledger rows for the `out/` file.
pub fn rows_json(rows: &[Row]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|r| {
                obj([
                    ("layer", r.layer.into()),
                    ("calls_per_round", r.calls_per_round.into()),
                    ("ns_per_call", r.ns_per_call.into()),
                    ("share", r.share.into()),
                ])
            })
            .collect(),
    )
}
