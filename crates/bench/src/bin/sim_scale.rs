//! Experiment S4 — scale: the event-driven engine at 100k+ peers.
//!
//! The background-event refactor turned maintenance, TTL eviction and
//! update propagation from O(n) phase sweeps into per-peer events on the
//! virtual-time queue; the O(active-work) refactor finished the job with a
//! timing-wheel scheduler (amortized O(1) per event), calendar-bucketed
//! churn (O(transitions) per round) and allocation-free walk state; the
//! shard-parallel refactor split the query phase across `--threads` worker
//! threads (one shard per worker, deterministic outbox barriers). This bin
//! is the scale proof: it builds a Table-1-shaped network with the
//! population overridden (default 100 000 peers — the ROADMAP's ">100k-peer
//! scenarios" line; `--peers 1000000` is the millionth-peer headline) under
//! Gnutella-like churn, runs the selection algorithm with fully jittered
//! background schedules, and reports wall-clock per round alongside the
//! usual message accounting. It then sweeps the shard-parallel engine over
//! thread counts {1, 2, 4, 8} for a threads-vs-throughput table, asserts
//! the O(active-work) invariant — per-round dispatched events must track
//! the active-peer/background population, not the total population — and
//! re-measures the wheel-vs-heap scheduler throughput, persisting
//! everything to `results/BENCH_sim_scale.json` (committed as the baseline
//! and uploaded as a CI artifact; every artifact is written *before* any
//! performance assert can fire, so a perf regression still leaves the
//! numbers on disk). CI runs `--peers 100000 --smoke` under a wall-clock
//! budget across `--threads {1, 4}`, so scale regressions fail the build.

use pdht_bench::sched_delay;
use pdht_bench::{
    f1, f3, parse_sim_args, print_table, read_json_number, write_csv, write_histograms_csv,
    write_json,
};
use pdht_core::{BackgroundSchedule, PdhtConfig, PdhtNetwork, PhaseBreakdown, Strategy, TtlPolicy};
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;
use pdht_sim::{EventQueue, HeapEventQueue};
use std::time::Instant;

/// In-flight population of the scheduler microbenchmark (the acceptance
/// gate of the timing-wheel refactor is measured at this scale).
const SCHED_INFLIGHT: u64 = 100_000;
/// Pop-reschedule cycles measured per backend.
const SCHED_CYCLES: u64 = 1_000_000;
/// Thread counts measured by the threads-vs-throughput sweep.
const SWEEP_THREADS: [u32; 4] = [1, 2, 4, 8];
/// Shard count of the sweep, fixed across every row: `shards` is the
/// semantic knob (it changes which queries fire), `threads` the executor
/// knob, so an honest executor speedup varies ONLY the thread count and
/// runs the identical workload in every row (`sharded_determinism.rs`
/// guarantees bit-identical results). 8 shards divide evenly over 1, 2, 4
/// or 8 workers.
const SWEEP_SHARDS: u32 = 8;
/// Rounds per sweep point (enough to amortize the per-round barriers
/// without dominating the bin's wall clock).
const SWEEP_ROUNDS: u64 = 5;

/// Events/second under the hold model (steady resident population, every
/// pop immediately rescheduled) for one queue backend, via the shared
/// schedule/pop closures.
macro_rules! sched_throughput {
    ($queue:expr) => {{
        let mut q = $queue;
        for i in 0..SCHED_INFLIGHT {
            q.schedule_in(sched_delay(i), i);
        }
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..SCHED_CYCLES {
            let ev = q.pop().expect("resident population");
            acc = acc.wrapping_add(ev.event);
            q.schedule_in(sched_delay(SCHED_INFLIGHT + i), ev.event);
        }
        std::hint::black_box(acc);
        SCHED_CYCLES as f64 / t.elapsed().as_secs_f64()
    }};
}

/// The S4 configuration at a given population and shard count: Table-1
/// shape with the population overridden (key universe and replication at
/// full scale, so per-peer load is realistic), one query per peer per 10
/// minutes, bounded TTL, Gnutella-like session churn, and every peer's
/// maintenance/TTL tick jittered to its own instant.
fn scale_cfg(num_peers: u32, shards: u32) -> PdhtConfig {
    let scenario = Scenario { num_peers, ..Scenario::table1() };
    scenario.validate().expect("valid scale scenario");
    let mut cfg = PdhtConfig::new(scenario, 1.0 / 600.0, Strategy::Partial);
    cfg.seed = 0x54_2004;
    cfg.ttl_policy = TtlPolicy::Fixed(200);
    cfg.purge_stride = 8;
    cfg.churn = ChurnConfig::gnutella_like();
    cfg.background = BackgroundSchedule { maintenance_jitter_us: 900_000, ttl_jitter_us: 900_000 };
    cfg.shards = shards;
    cfg
}

/// One point of the threads-vs-throughput sweep.
struct SweepPoint {
    threads: u32,
    build_secs: f64,
    ms_per_round: f64,
    msgs_per_round: f64,
    speedup: f64,
    phases: PhaseBreakdown,
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

    // The committed baseline (if any) — read before this run overwrites it.
    let baseline_ms = read_json_number("BENCH_sim_scale", "ms_per_round");
    let baseline_peers = read_json_number("BENCH_sim_scale", "peers");

    // `effective_shards()` (not `args.threads`): the shard count is the
    // semantic knob and only *defaults* to the thread count — an explicit
    // `--shards` decouples the workload from the executor width.
    let mut cfg = scale_cfg(num_peers, args.effective_shards());
    cfg.overlay = args.overlay;
    cfg.latency = args.latency;
    cfg.gossip_codec = args.gossip_codec;
    cfg.gossip_generation = args.gen_size as usize;

    let t0 = Instant::now();
    let mut net = PdhtNetwork::new(cfg).expect("network builds");
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
    let events_dispatched = net.events_dispatched();
    let events_per_round = events_dispatched as f64 / rounds as f64;
    let events_per_sec = events_dispatched as f64 / run_secs;
    let breakdown = net.phase_breakdown().expect("phase timers enabled");
    let (churn_ms, queries_ms, background_ms, barriers_ms) = phase_ms(&breakdown, rounds);
    let serial_fraction = breakdown.serial_fraction();

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
    match (baseline_ms, baseline_peers) {
        (Some(base), Some(bp)) if bp as u32 == num_peers => {
            let delta = (per_round_ms - base) / base * 100.0;
            println!(
                "vs committed baseline: {per_round_ms:.1} ms/round against {base:.1} \
                 ({delta:+.1}%)"
            );
        }
        (Some(base), bp) => println!(
            "committed baseline is {base:.1} ms/round at {} peers — different scale, no delta",
            bp.map_or_else(|| "?".into(), |p| format!("{}", p as u64))
        ),
        _ => println!("no committed baseline found (first run on this checkout)"),
    }
    // Per-phase wall clock of the timed run (every lane pass is timed at
    // any shard count; the sweep below times every row at 8 shards).
    println!(
        "phase breakdown (ms/round): churn {churn_ms:.2}, queries {queries_ms:.2}, \
         background {background_ms:.2}, barriers {barriers_ms:.2} — serial fraction \
         {serial_fraction:.3}"
    );

    // --- Threads vs throughput: the shard-parallel query phase ----------
    // Measured at min(peers, 100k) so the sweep stays inside the CI budget
    // even on a millionth-peer headline run. Every row runs the identical
    // SWEEP_SHARDS-shard workload — only the worker count varies, so the
    // speedup column is a pure executor measurement (and the msg/round
    // column must not move across rows).
    let sweep_peers = num_peers.min(100_000);
    // One untimed warm-up run so the first timed row doesn't absorb the
    // process's cold-start costs (page faults on fresh slabs, allocator
    // growth) that later rows inherit for free.
    {
        let mut cfg = scale_cfg(sweep_peers, SWEEP_SHARDS);
        cfg.overlay = args.overlay;
        cfg.latency = args.latency;
        cfg.gossip_codec = args.gossip_codec;
        cfg.gossip_generation = args.gen_size as usize;
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        net.run(1);
    }
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for threads in SWEEP_THREADS {
        let mut cfg = scale_cfg(sweep_peers, SWEEP_SHARDS);
        cfg.overlay = args.overlay;
        cfg.latency = args.latency;
        // The sweep inherits the codec and generation size so a
        // `--gossip-codec rlnc --gen-size 32` run also proves the coded
        // waves thread-invariant (the msg/round equality gate below would
        // trip on any divergence).
        cfg.gossip_codec = args.gossip_codec;
        cfg.gossip_generation = args.gen_size as usize;
        let t0 = Instant::now();
        let mut net = PdhtNetwork::new(cfg).expect("network builds");
        net.set_threads(threads as usize);
        net.enable_phase_timers();
        let build_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        net.run(SWEEP_ROUNDS);
        let ms_per_round = t1.elapsed().as_secs_f64() * 1e3 / SWEEP_ROUNDS as f64;
        let rep = net.report(0, SWEEP_ROUNDS - 1);
        let speedup = sweep.first().map_or(1.0, |base| base.ms_per_round / ms_per_round);
        sweep.push(SweepPoint {
            threads,
            build_secs,
            ms_per_round,
            msgs_per_round: rep.msgs_per_round,
            speedup,
            phases: net.phase_breakdown().expect("phase timers enabled"),
        });
    }
    // The sweep times SWEEP_SHARDS-shard rounds at up to SWEEP_SHARDS
    // worker threads; on hosts with fewer hardware cpus the workers
    // timeshare and every timing row is oversubscription noise. The verdict
    // is recorded in the artifact (`sweep_valid`) and announced on stderr
    // so a human scanning the log doesn't mistake timeshared rows for a
    // real speedup curve.
    let sweep_valid = host_cpus >= SWEEP_SHARDS as usize;
    if !sweep_valid {
        eprintln!(
            "note: threads_sweep rows are timing noise on this host ({host_cpus} cpus < \
             {SWEEP_SHARDS} sweep threads) — recorded with sweep_valid=false"
        );
    }
    print_table(
        &format!(
            "S4 threads vs throughput — {sweep_peers} peers, {SWEEP_SHARDS} shards, \
             {SWEEP_ROUNDS} rounds ({host_cpus} host cpus)"
        ),
        &["threads", "build s", "ms/round", "msg/round", "speedup", "serial"],
        &sweep
            .iter()
            .map(|p| {
                vec![
                    p.threads.to_string(),
                    format!("{:.2}", p.build_secs),
                    format!("{:.1}", p.ms_per_round),
                    f1(p.msgs_per_round),
                    format!("{:.2}x", p.speedup),
                    format!("{:.0}%", p.phases.serial_fraction() * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Scheduler throughput: the timing wheel against the BinaryHeap
    // reference backend at 100k resident events (same hold model as
    // `bench event_dispatch`, rerun here so CI records it per commit).
    let heap_eps = sched_throughput!(HeapEventQueue::<u64>::new());
    let wheel_eps = sched_throughput!(EventQueue::<u64>::new());
    let sched_speedup = wheel_eps / heap_eps;
    println!(
        "\nscheduler hold model @ {SCHED_INFLIGHT} in-flight: \
         wheel {:.2} Mev/s vs heap {:.2} Mev/s ({sched_speedup:.2}x)",
        wheel_eps / 1e6,
        heap_eps / 1e6
    );

    // --- Persist every artifact BEFORE any performance gate -------------
    // A regression must fail CI *with* the numbers that show it on disk.
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

    let sweep_rows = sweep
        .iter()
        .map(|p| {
            let (churn, queries, background, barriers) = phase_ms(&p.phases, SWEEP_ROUNDS);
            format!(
                "      {{ \"threads\": {}, \"build_secs\": {:.4}, \"ms_per_round\": {:.3}, \
                 \"msgs_per_round\": {:.1}, \"speedup\": {:.3}, \
                 \"churn_ms\": {churn:.3}, \"queries_ms\": {queries:.3}, \
                 \"background_ms\": {background:.3}, \"barriers_ms\": {barriers:.3}, \
                 \"serial_fraction\": {:.4} }}",
                p.threads,
                p.build_secs,
                p.ms_per_round,
                p.msgs_per_round,
                p.speedup,
                p.phases.serial_fraction()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let engine_shards = net.shards();
    let codec_label = format!("{:?}", args.gossip_codec).to_lowercase();
    let gossip_innovative = report.gossip_innovative;
    let gossip_redundant = report.gossip_redundant;
    let wasted_bandwidth = report.wasted_bandwidth;
    let gossip_bytes = report.gossip_bytes;
    let gossip_bytes_per_round = report.gossip_bytes_per_round;
    let gen_size = args.gen_size;
    let json = write_json(
        "BENCH_sim_scale",
        &format!(
            "{{\n  \"bench\": \"sim_scale\",\n  \"peers\": {num_peers},\n  \
             \"active_peers\": {nap},\n  \"rounds\": {rounds},\n  \
             \"threads\": {},\n  \"shards\": {engine_shards},\n  \
             \"host_cpus\": {host_cpus},\n  \
             \"gossip_codec\": \"{codec_label}\",\n  \
             \"gen_size\": {gen_size},\n  \
             \"gossip_innovative\": {gossip_innovative},\n  \
             \"gossip_redundant\": {gossip_redundant},\n  \
             \"wasted_bandwidth\": {wasted_bandwidth:.6},\n  \
             \"gossip_bytes\": {gossip_bytes},\n  \
             \"gossip_bytes_per_round\": {gossip_bytes_per_round:.1},\n  \
             \"build_secs\": {build_secs:.4},\n  \"wall_clock_secs\": {run_secs:.4},\n  \
             \"ms_per_round\": {per_round_ms:.3},\n  \
             \"events_dispatched\": {events_dispatched},\n  \
             \"events_per_round\": {events_per_round:.1},\n  \
             \"events_per_sec\": {events_per_sec:.0},\n  \
             \"phase_breakdown\": {{\n    \"churn_ms\": {churn_ms:.3},\n    \
             \"queries_ms\": {queries_ms:.3},\n    \
             \"background_ms\": {background_ms:.3},\n    \
             \"barriers_ms\": {barriers_ms:.3},\n    \
             \"serial_fraction\": {serial_fraction:.4},\n    \
             \"note\": \"per-round ms of the timed run; at shards = 1 only \
             the serial churn/content slices are instrumented — the \
             threads_sweep rows time every bucket at 8 shards\"\n  }},\n  \
             \"threads_sweep\": {{\n    \"peers\": {sweep_peers},\n    \
             \"shards\": {SWEEP_SHARDS},\n    \
             \"rounds\": {SWEEP_ROUNDS},\n    \
             \"sweep_valid\": {sweep_valid},\n    \"rows\": [\n{sweep_rows}\n    ]\n  }},\n  \
             \"scheduler\": {{\n    \"inflight_events\": {SCHED_INFLIGHT},\n    \
             \"cycles\": {SCHED_CYCLES},\n    \
             \"heap_events_per_sec\": {heap_eps:.0},\n    \
             \"wheel_events_per_sec\": {wheel_eps:.0},\n    \
             \"wheel_speedup\": {sched_speedup:.3}\n  }},\n  \
             \"pr4_baseline\": {{\n    \"ms_per_round\": 32.6,\n    \
             \"note\": \"heap scheduler + full-scan churn + per-query walk \
             allocations, 100k peers/5 smoke rounds, reference host, \
             churn-free config (the O(active-work) engine measured 20.6 \
             ms/round on the identical config before churn was enabled \
             here)\"\n  }}\n}}\n",
            args.threads
        ),
    )
    .expect("write benchmark JSON");
    println!("\nwrote {}, {} and {}", csv.display(), hist.display(), json.display());

    // --- Gates (artifacts above are already on disk) --------------------
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

    assert!(
        sched_speedup > 1.2,
        "timing wheel must beat the heap at {SCHED_INFLIGHT} in-flight events, \
         got {sched_speedup:.2}x"
    );

    // Thread-invariance at scale: every sweep row ran the identical
    // 8-shard workload, so the accounting may not move by a single message.
    for p in &sweep[1..] {
        assert!(
            p.msgs_per_round == sweep[0].msgs_per_round,
            "threads={} changed msg/round at {sweep_peers} peers: {} vs {}",
            p.threads,
            p.msgs_per_round,
            sweep[0].msgs_per_round
        );
    }

    // Shard-parallel gate: 4 workers must beat 1 by >1.8x at 100k+ peers —
    // but only where 4 hardware threads exist; on smaller hosts the sweep
    // is recorded in the artifact without gating.
    let four = sweep.iter().find(|p| p.threads == 4).expect("sweep covers 4 threads");
    if host_cpus >= 4 && sweep_peers >= 100_000 {
        assert!(
            four.speedup > 1.8,
            "4 worker threads must speed the query phase >1.8x over 1 at \
             {sweep_peers} peers, got {:.2}x",
            four.speedup
        );
    } else {
        println!(
            "threads gate skipped ({host_cpus} host cpus, {sweep_peers} sweep peers): \
             4-thread speedup recorded as {:.2}x",
            four.speedup
        );
    }
}
