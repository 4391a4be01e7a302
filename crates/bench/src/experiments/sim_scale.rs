//! Experiment S4 — scale: the event-driven engine at 100k+ peers.
//!
//! The background-event refactor turned maintenance, TTL eviction and
//! update propagation from O(n) phase sweeps into per-peer events on the
//! virtual-time queue; the O(active-work) refactor finished the job with a
//! timing-wheel scheduler (amortized O(1) per event), calendar-bucketed
//! churn (O(transitions) per round) and allocation-free walk state; the
//! shard-parallel refactor split each round's passes into `--shards` lanes
//! run on `--threads` workers (deterministic outbox barriers). This
//! experiment is the scale smoke: it builds a Table-1-shaped network with
//! the population overridden (default 100 000 peers; CI runs `--peers
//! 1000000 --smoke` under a 75 s wall-clock budget) under Gnutella-like
//! churn, runs the selection algorithm with fully jittered background
//! schedules, and reports wall-clock per round alongside the usual message
//! accounting. It then asserts the O(active-work) invariant — per-round
//! dispatched events must track the active-peer/background population, not
//! the total population — and that the accounting is thread-invariant at
//! scale. A population too small to do work in the window exits 2 instead.
//! Timing numbers of record come from `benchmark/`, not from here. The
//! table (shared report columns plus event and wall-clock columns) is
//! `results/sim_scale.csv`.

use pdht_bench::{emit, exit_with, f1, report_cells, write_histograms_csv, SimArgs, REPORT_HEADER};
use pdht_core::{
    BackgroundSchedule, PdhtConfig, PdhtNetwork, PhaseBreakdown, SimReport, Strategy, TtlPolicy,
};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;
use std::time::Instant;

/// Shard count of the thread-invariance check: `shards` is the semantic
/// knob, `threads` the executor knob, so the check holds the workload at 8
/// shards and varies only the worker count.
const INVARIANCE_SHARDS: u32 = 8;
/// Worker counts the invariance check compares.
const INVARIANCE_THREADS: [usize; 2] = [1, 4];
/// Rounds per invariance run.
const INVARIANCE_ROUNDS: u64 = 5;

/// The S4 configuration at a given population under the shared flags:
/// Table-1 shape with the population overridden (key universe and
/// replication at full scale, so per-peer load is realistic), one query
/// per peer per 10 minutes, bounded TTL, Gnutella-like session churn, and
/// every peer's maintenance/TTL tick jittered to its own instant.
///
/// # Errors
/// Fails when the population cannot hold the configuration (e.g. fewer
/// peers than the replication factor).
fn scale_cfg(num_peers: u32, args: &SimArgs) -> pdht_types::Result<PdhtConfig> {
    let scenario = Scenario { num_peers, ..Scenario::table1() };
    let mut cfg = PdhtConfig::new(scenario, 1.0 / 600.0, Strategy::Partial);
    cfg.seed = 0x54_2004;
    cfg.ttl_policy = TtlPolicy::Fixed(200);
    cfg.purge_stride = 8;
    cfg.churn = ChurnConfig::gnutella_like();
    cfg.background = BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
    args.apply(&mut cfg);
    cfg.validate()?;
    Ok(cfg)
}

/// Whether the run did the work the asserts below measure: it sent
/// messages and its queries populated the index. A population far below S4
/// scale can issue no query and send no message in a short window — a
/// setting to reject, not an engine failure.
///
/// # Errors
/// Names the population, the window and what the run observed.
fn check_did_work(report: &SimReport, num_peers: u32) -> Result<(), String> {
    if report.msgs_per_round > 0.0 && report.indexed_keys > 0.0 {
        return Ok(());
    }
    let (from, to) = report.rounds;
    let issued = report.query_hops.map_or(0, |h| h.count) + report.skipped_offline;
    Err(format!(
        "{num_peers} peers did no measurable work in rounds {from}..={to}: {issued} queries \
         issued, {:.1} msg/round, {:.1} indexed keys — S4 needs a larger --peers",
        report.msgs_per_round, report.indexed_keys
    ))
}

/// `breakdown` as per-round milliseconds `(churn, queries, background,
/// barriers)`.
fn phase_ms(tm: &PhaseBreakdown, rounds: u64) -> (f64, f64, f64, f64) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / rounds as f64;
    (ms(tm.churn), ms(tm.queries), ms(tm.background), ms(tm.barriers))
}

pub fn run(args: SimArgs) {
    let num_peers = args.peers.unwrap_or(100_000);
    let rounds: u64 = if args.smoke { 5 } else { 30 };
    let build = |peers: u32, args: &SimArgs| {
        scale_cfg(peers, args)
            .and_then(PdhtNetwork::new)
            .unwrap_or_else(|e| exit_with(&e.to_string()))
    };
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("S4 configuration: {num_peers} peers, {} ({host_cpus} host cpus)", args.describe());

    let t0 = Instant::now();
    let mut net = build(num_peers, &args);
    args.apply_threads(&mut net);
    net.enable_phase_timers();
    let build_secs = t0.elapsed().as_secs_f64();
    let nap = net.num_active_peers();
    println!(
        "built in {build_secs:.2}s: {num_peers} peers, {nap} active (structured), \
         {} background events resident, {} shard(s) x {} thread(s)",
        2 * nap,
        net.shards(),
        net.threads()
    );

    let t1 = Instant::now();
    net.run(rounds);
    let run_secs = t1.elapsed().as_secs_f64();
    let per_round_ms = run_secs * 1e3 / rounds as f64;
    let report = net.report(0, rounds - 1);
    let events_per_round = net.events_dispatched() as f64 / rounds as f64;
    let breakdown = net.phase_breakdown().expect("phase timers enabled");
    let (churn_ms, queries_ms, background_ms, barriers_ms) = phase_ms(&breakdown, rounds);

    // Persist the artifacts before any check can fire.
    let head =
        [num_peers.to_string(), nap.to_string(), args.threads.to_string(), rounds.to_string()];
    let tail = [f1(events_per_round), format!("{build_secs:.2}"), format!("{per_round_ms:.1}")];
    emit(
        "sim_scale",
        "S4 scale — event-driven engine, jittered background schedules",
        &[
            &["peers", "active", "threads", "rounds"][..],
            &REPORT_HEADER,
            &["events_per_round", "build_secs", "ms_per_round"],
        ]
        .concat(),
        &[[&head[..], &report_cells(&report), &tail].concat()],
    );
    println!(
        "phase breakdown (ms/round): churn {churn_ms:.2}, queries {queries_ms:.2}, \
         background {background_ms:.2}, barriers {barriers_ms:.2} — serial fraction {:.3}",
        breakdown.serial_fraction()
    );
    let hist = write_histograms_csv(
        "sim_scale_hist",
        &[(
            format!("partial@{num_peers}p/{:?}", net.config().overlay).to_lowercase(),
            report.clone(),
        )],
    )
    .expect("write histogram CSV");
    println!("wrote {}", hist.display());

    check_did_work(&report, num_peers).unwrap_or_else(|e| exit_with(&e));

    // O(active-work) regression gate: per-round queue dispatch must track
    // the background-event population (maintenance + staggered TTL sweeps
    // per *active* peer), phases, and in-flight message waves — never the
    // total population. The bound below is generous (4× the background
    // population plus room for phases/messages) yet orders of magnitude
    // under num_peers at scale, so an accidental O(population) event
    // source trips it immediately.
    let background_per_round = nap as f64 * (1.0 + 1.0 / net.config().purge_stride as f64);
    let bound = 4.0 * background_per_round + 512.0;
    assert!(
        events_per_round <= bound,
        "dispatched events/round ({events_per_round:.0}) must scale with active work \
         (bound {bound:.0}), not population ({num_peers})"
    );
    if num_peers as usize >= 20 * nap {
        assert!(
            events_per_round < num_peers as f64 / 4.0,
            "dispatched events/round ({events_per_round:.0}) approaches the population \
             ({num_peers}) — the O(active-work) invariant regressed"
        );
    }
    drop(net);

    // Thread invariance at scale: the identical INVARIANCE_SHARDS-shard
    // workload at min(peers, 100k) on 1 and on 4 workers may not move the
    // accounting by a single message. Inherits overlay, latency, codec and
    // generation size, so a coded run proves the coded waves invariant too.
    let check_peers = num_peers.min(100_000);
    let check_args = SimArgs { shards: INVARIANCE_SHARDS, ..args };
    let msgs_per_round = INVARIANCE_THREADS.map(|threads| {
        let mut net = build(check_peers, &check_args);
        net.set_threads(threads);
        net.run(INVARIANCE_ROUNDS);
        net.report(0, INVARIANCE_ROUNDS - 1).msgs_per_round
    });
    println!(
        "thread invariance @ {check_peers} peers, {INVARIANCE_SHARDS} shards: \
         msg/round {} at threads {INVARIANCE_THREADS:?}",
        f1(msgs_per_round[0])
    );
    assert!(
        msgs_per_round[1] == msgs_per_round[0],
        "threads {INVARIANCE_THREADS:?} disagree on msg/round at {check_peers} peers: \
         {msgs_per_round:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::{check_did_work, scale_cfg, SimArgs};
    use pdht_core::PdhtNetwork;

    #[test]
    fn scale_cfg_rejects_populations_below_the_replication_factor() {
        assert!(scale_cfg(2, &SimArgs::default()).is_err(), "2 peers cannot hold repl = 50");
        assert!(scale_cfg(100_000, &SimArgs { shards: 8, ..SimArgs::default() }).is_ok());
    }

    #[test]
    fn an_idle_run_is_an_error_a_working_run_is_not() {
        let run = |peers: u32| {
            let mut net = PdhtNetwork::new(scale_cfg(peers, &SimArgs::default()).unwrap()).unwrap();
            net.run(5);
            check_did_work(&net.report(0, 4), peers)
        };
        let err = run(60).expect_err("60 peers issue no query and send no message in 5 rounds");
        assert!(err.contains("60 peers") && err.contains("rounds 0..=4"), "{err}");
        assert_eq!(run(1_000), Ok(()));
    }
}
