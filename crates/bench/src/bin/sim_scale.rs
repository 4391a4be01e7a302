//! Experiment S4 — scale: the event-driven engine at 100k+ peers.
//!
//! The background-event refactor turned maintenance, TTL eviction and
//! update propagation from O(n) phase sweeps into per-peer events on the
//! virtual-time queue; the O(active-work) refactor finished the job with a
//! timing-wheel scheduler (amortized O(1) per event), calendar-bucketed
//! churn (O(transitions) per round) and allocation-free walk state; the
//! shard-parallel refactor split each round's passes across `--threads`
//! worker threads (deterministic outbox barriers). This bin is the scale
//! smoke: it builds a Table-1-shaped network with the population
//! overridden (default 100 000 peers; CI runs `--peers 1000000 --smoke`
//! under a 75 s wall-clock budget) under Gnutella-like churn, runs the
//! selection algorithm with fully jittered background schedules, and
//! reports wall-clock per round alongside the usual message accounting.
//! It then asserts the O(active-work) invariant — per-round dispatched
//! events must track the active-peer/background population, not the total
//! population — and that the accounting is thread-invariant at scale.
//! Timing numbers of record come from `benchmark/`, not from here.

use pdht_bench::{f1, f3, parse_sim_args, print_table, write_csv, write_histograms_csv};
use pdht_core::{BackgroundSchedule, PdhtConfig, PdhtNetwork, PhaseBreakdown, Strategy, TtlPolicy};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;
use pdht_types::{PdhtError, Result};
use std::io::Write as _;
use std::time::Instant;

/// Shard count of the thread-invariance check: `shards` is the semantic
/// knob, `threads` the executor knob, so the check holds the workload at 8
/// shards and varies only the worker count.
const INVARIANCE_SHARDS: u32 = 8;
/// Worker counts the invariance check compares.
const INVARIANCE_THREADS: [usize; 2] = [1, 4];
/// Rounds per invariance run.
const INVARIANCE_ROUNDS: u64 = 5;

/// The S4 configuration at a given population and shard count: Table-1
/// shape with the population overridden (key universe and replication at
/// full scale, so per-peer load is realistic), one query per peer per 10
/// minutes, bounded TTL, Gnutella-like session churn, and every peer's
/// maintenance/TTL tick jittered to its own instant.
///
/// # Errors
/// Fails when the population cannot hold the configuration (e.g. fewer
/// peers than the replication factor).
fn scale_cfg(num_peers: u32, shards: u32) -> Result<PdhtConfig> {
    let scenario = Scenario { num_peers, ..Scenario::table1() };
    let mut cfg = PdhtConfig::new(scenario, 1.0 / 600.0, Strategy::Partial);
    cfg.seed = 0x54_2004;
    cfg.ttl_policy = TtlPolicy::Fixed(200);
    cfg.purge_stride = 8;
    cfg.churn = ChurnConfig::gnutella_like();
    cfg.background = BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
    cfg.shards = shards;
    cfg.validate()?;
    Ok(cfg)
}

/// Exits 2 on a configuration the population cannot hold, the way
/// `parse_sim_args` rejects a bad flag.
fn reject(e: PdhtError) -> ! {
    let _ = std::io::stdout().flush();
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// `breakdown` as per-round milliseconds `(churn, queries, background,
/// barriers)`.
fn phase_ms(tm: &PhaseBreakdown, rounds: u64) -> (f64, f64, f64, f64) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / rounds as f64;
    (ms(tm.churn), ms(tm.queries), ms(tm.background), ms(tm.barriers))
}

fn main() {
    let args = parse_sim_args();
    let num_peers = args.peers.unwrap_or(100_000);
    let rounds: u64 = if args.smoke { 5 } else { 30 };
    // `effective_shards()` (not `args.threads`): the shard count is the
    // semantic knob and only *defaults* to the thread count — an explicit
    // `--shards` decouples the workload from the executor width.
    let cfg_at = |peers: u32, shards: u32| {
        let mut cfg = scale_cfg(peers, shards).unwrap_or_else(|e| reject(e));
        cfg.overlay = args.overlay;
        cfg.latency = args.latency;
        cfg.gossip_codec = args.gossip_codec;
        cfg.gossip_generation = args.gen_size as usize;
        cfg
    };
    let build = |cfg: PdhtConfig| PdhtNetwork::new(cfg).unwrap_or_else(|e| reject(e));
    let cfg = cfg_at(num_peers, args.effective_shards());
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "S4 configuration: {num_peers} peers, overlay = {:?}, latency = {:?}, \
         threads = {}, shards = {}, gossip codec = {:?}, gen size = {} \
         ({host_cpus} host cpus){}",
        args.overlay,
        args.latency,
        args.threads,
        args.effective_shards(),
        args.gossip_codec,
        args.gen_size,
        if args.smoke { ", smoke mode" } else { "" }
    );

    let t0 = Instant::now();
    let mut net = build(cfg);
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

    let rows = vec![vec![
        num_peers.to_string(),
        nap.to_string(),
        args.threads.to_string(),
        rounds.to_string(),
        f1(report.msgs_per_round),
        f3(report.p_indexed),
        f1(report.indexed_keys),
        f3(report.wasted_bandwidth),
        f1(report.gossip_bytes_per_round),
        f1(events_per_round),
        format!("{build_secs:.2}"),
        format!("{per_round_ms:.1}"),
    ]];
    print_table(
        "S4 scale — event-driven engine, jittered background schedules",
        &[
            "peers",
            "active",
            "threads",
            "rounds",
            "msg/round",
            "pIndxd",
            "keys",
            "wasted",
            "bytes/rnd",
            "ev/round",
            "build s",
            "ms/round",
        ],
        &rows,
    );
    println!(
        "phase breakdown (ms/round): churn {churn_ms:.2}, queries {queries_ms:.2}, \
         background {background_ms:.2}, barriers {barriers_ms:.2} — serial fraction {:.3}",
        breakdown.serial_fraction()
    );

    // Persist the artifacts before any assert can fire.
    let csv = write_csv(
        "sim_scale",
        &[
            "peers",
            "active",
            "threads",
            "rounds",
            "msgs_per_round",
            "p_indexed",
            "indexed_keys",
            "wasted_bandwidth",
            "gossip_bytes_per_round",
            "events_per_round",
            "build_secs",
            "ms_per_round",
        ],
        &rows,
    )
    .expect("write results CSV");
    let hist = write_histograms_csv(
        "sim_scale_hist",
        &[(
            format!("partial@{num_peers}p/{:?}", net.config().overlay).to_lowercase(),
            report.clone(),
        )],
    )
    .expect("write histogram CSV");
    println!("\nwrote {} and {}", csv.display(), hist.display());

    assert!(report.msgs_per_round > 0.0, "the network must do work at scale");
    assert!(net.indexed_keys() > 0, "queries must populate the index at scale");

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
    let msgs_per_round = INVARIANCE_THREADS.map(|threads| {
        let mut net = build(cfg_at(check_peers, INVARIANCE_SHARDS));
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
    use super::scale_cfg;

    #[test]
    fn scale_cfg_rejects_populations_below_the_replication_factor() {
        assert!(scale_cfg(2, 1).is_err(), "2 peers cannot hold repl = 50");
        assert!(scale_cfg(100_000, 8).is_ok());
    }
}
