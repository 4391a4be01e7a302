//! One timed simulation: build, warm up, step a fixed window of rounds,
//! and check from outside that the simulation timed was the right one.
//!
//! Host timing is reported, never asserted: nothing in here fails a run
//! for being slow. What *can* fail a run is a broken invariant or a
//! simulated statistic that moved (see [`Window::fingerprint`]).

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::Workload;
use pdht_core::{LatencyConfig, PdhtNetwork, PhaseBreakdown, SimReport};
use pdht_types::{MessageKind, MsgCounts, Round};
use std::time::Instant;

/// What to run: a workload at a seed over explicit round counts.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Harness seed (`--seed`).
    pub seed: u64,
    /// Untimed rounds before the window.
    pub warmup: u64,
    /// Timed rounds.
    pub timed: u64,
    /// Executor threads.
    pub threads: usize,
    /// Network builds timed for `setup_s` (the last one is the one run).
    pub setup_reps: usize,
    /// Hold the window to the steady-state checks (under 1 % of queries
    /// fail; the wave arena has stopped growing). Off for `--smoke`, whose
    /// handful of rounds starts on an empty index and cold pools.
    pub steady_state: bool,
}

/// Segments the window is cut into for `sim_msgs_per_s`: the metric is the
/// median segment rate, so one host stall cannot drag the whole figure.
const RATE_SEGMENTS: usize = 5;

/// Everything observed over one timed window.
pub struct Window {
    /// First and last timed round.
    pub rounds: (u64, u64),
    /// Host milliseconds of each `step_round()` call, in round order.
    pub round_ms: Vec<f64>,
    /// Simulated messages of each round.
    pub round_msgs: Vec<u64>,
    /// Messages by kind over the window.
    pub counts: MsgCounts,
    /// Queries answered from the index / by broadcast search over the
    /// window (cumulative engine gauges, differenced at the window's edges;
    /// every other outcome counter is in `report`).
    pub hits: u64,
    pub misses: u64,
    /// Events dispatched over the window.
    pub events: u64,
    /// The engine's own report over the window: the remaining outcome and
    /// gossip counters, already differenced.
    pub report: SimReport,
    /// Phase wall clock over the window (traced passes only).
    pub phases: Option<PhaseBreakdown>,
    /// High-water marks of the in-flight gauges, sampled after each round.
    pub inflight_max: (usize, usize),
    /// Timed rounds on which a per-round invariant failed.
    pub failed_rounds: u64,
    /// Every violated check, in words.
    pub violations: Vec<String>,
}

impl Window {
    /// Median host time of one round.
    pub fn round_ms_p50(&self) -> f64 {
        median(&self.round_ms)
    }

    /// Mean host time of one round: what `count × cost` must add up to
    /// (rounds are heavy-tailed, so the median round is not the mean one).
    pub fn round_ms_mean(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / self.round_ms.len() as f64
    }

    /// A higher percentile of the per-round host time.
    pub fn round_ms_percentile(&self, q: f64) -> f64 {
        percentile(&self.round_ms, q)
    }

    /// Simulated messages per host second: the median over
    /// [`RATE_SEGMENTS`] equal cuts of the window.
    pub fn sim_msgs_per_s(&self) -> f64 {
        let n = self.round_ms.len();
        let segments = RATE_SEGMENTS.min(n);
        let rates: Vec<f64> = (0..segments)
            .map(|s| {
                let (lo, hi) = (s * n / segments, (s + 1) * n / segments);
                let msgs: u64 = self.round_msgs[lo..hi].iter().sum();
                let secs: f64 = self.round_ms[lo..hi].iter().sum::<f64>() / 1e3;
                msgs as f64 / secs
            })
            .collect();
        median(&rates)
    }

    /// `(name, window delta)` of every outcome counter, in fingerprint
    /// order.
    pub fn outcomes(&self) -> [(&'static str, u64); 10] {
        let r = &self.report;
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("stale_hits", r.stale_hits),
            ("search_failures", r.search_failures),
            ("lookup_failures", r.lookup_failures),
            ("skipped_offline", r.skipped_offline),
            ("query_timeouts", r.query_timeouts),
            ("gossip_innovative", r.gossip_innovative),
            ("gossip_redundant", r.gossip_redundant),
            ("gossip_bytes", r.gossip_bytes),
        ]
    }

    /// Queries that entered the pipeline: every one ends as a hit, a miss
    /// or a timeout.
    pub fn issued(&self) -> u64 {
        self.hits + self.misses + self.report.query_timeouts
    }

    /// Queries that got no answer.
    pub fn failed(&self) -> u64 {
        self.report.search_failures + self.report.lookup_failures + self.report.query_timeouts
    }

    /// Fraction of issued queries that were answered.
    pub fn answered_frac(&self) -> f64 {
        1.0 - self.failed() as f64 / self.issued() as f64
    }

    /// Simulated messages per issued query — the paper's total cost per
    /// answer.
    pub fn sim_msgs_per_query(&self) -> f64 {
        self.counts.total() as f64 / self.issued() as f64
    }

    /// Hash of everything a perf-only change must leave identical: per-kind
    /// message totals, outcome counters and events dispatched over the
    /// window. FNV-1a over the little-endian words, as 16 hex digits.
    pub fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = MessageKind::ALL
            .iter()
            .map(|&k| self.counts[k])
            .chain(self.outcomes().map(|(_, n)| n))
            .chain([self.events]);
        for word in words {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
}

/// Builds the plan's network `setup_reps` times, timing each build
/// (`PdhtNetwork::new` + `set_threads`), and returns the last one with the
/// per-build seconds. Earlier builds are dropped before the next starts,
/// so peak memory stays that of one network.
///
/// # Errors
/// Propagates a configuration the engine rejects.
pub fn build(plan: &Plan) -> Result<(PdhtNetwork, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(plan.setup_reps);
    let mut last = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let mut net = PdhtNetwork::new(plan.workload.config(plan.seed))
            .map_err(|e| format!("{}: engine rejected the config: {e}", plan.workload.name))?;
        net.set_threads(plan.threads);
        secs.push(t.elapsed().as_secs_f64());
        last = Some(net);
    }
    Ok((last.expect("at least one build"), secs))
}

/// Value of cumulative gauge `name` at the end of `round` (0 before the
/// first reading).
fn gauge_at(net: &PdhtNetwork, name: &str, round: Option<u64>) -> u64 {
    let Some(round) = round else { return 0 };
    let series = net.metrics().gauge_series(name);
    match series.binary_search_by_key(&Round(round), |&(r, _)| r) {
        Ok(i) => series[i].1 as u64,
        Err(0) => 0,
        Err(i) => series[i - 1].1 as u64,
    }
}

/// A simulation in progress: warmed up, stepping its timed window in as
/// many slices as the caller likes (the traced run interleaves two of
/// these so host-speed drift hits both alike).
pub struct Sim {
    net: PdhtNetwork,
    plan: Plan,
    zero_latency: bool,
    /// Wave-pool `(slots, acquires)` and events dispatched after warm-up.
    pool_warm: (usize, u64),
    events_warm: u64,
    /// Events dispatched up to the last traced round (span count deltas).
    events_seen: u64,
    round_ms: Vec<f64>,
    inflight_max: (usize, usize),
    failed_rounds: u64,
    violations: Vec<String>,
}

impl Sim {
    /// Runs the warm-up rounds on a freshly built network. With a
    /// `tracer`, phase timers are switched on for the window that follows.
    pub fn start(mut net: PdhtNetwork, plan: &Plan, tracer: Option<&mut Tracer>) -> Sim {
        assert_eq!(net.next_round(), 0, "a simulation starts on a freshly built network");
        let span = tracer.map(|t| (t.open("warmup"), t));
        for _ in 0..plan.warmup {
            net.step_round();
        }
        if let Some((span, t)) = span {
            t.close(span);
            t.count(span, "rounds", plan.warmup as f64);
            net.enable_phase_timers();
        }
        let events_warm = net.events_dispatched();
        Sim {
            zero_latency: net.config().latency == LatencyConfig::Zero,
            pool_warm: net.wave_pool_stats(),
            events_warm,
            events_seen: events_warm,
            round_ms: Vec::with_capacity(plan.timed as usize),
            inflight_max: (0, 0),
            failed_rounds: 0,
            violations: Vec::new(),
            plan: *plan,
            net,
        }
    }

    /// Timed rounds still to run.
    pub fn remaining(&self) -> u64 {
        self.plan.timed - self.round_ms.len() as u64
    }

    /// Steps up to `rounds` timed rounds. With a `tracer`, every
    /// `step_round()` gets a span carrying the round's public counts.
    pub fn step(&mut self, rounds: u64, mut tracer: Option<&mut Tracer>) {
        for _ in 0..rounds.min(self.remaining()) {
            let round = self.net.next_round();
            let span = tracer.as_deref_mut().map(|t| t.open("core.step_round"));
            let t0 = Instant::now();
            self.net.step_round();
            self.round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let (q, u) = (self.net.queries_in_flight(), self.net.updates_in_flight());
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.close(span);
                let delta = self.net.metrics().round_delta(Round(round)).unwrap_or_default();
                t.count(span, "round", round as f64);
                for (kind, n) in delta.iter().filter(|&(_, n)| n > 0) {
                    t.count(span, kind.name(), n as f64);
                }
                let events = self.net.events_dispatched();
                t.count(span, "events", (events - self.events_seen) as f64);
                self.events_seen = events;
                t.count(span, "queries_in_flight", q as f64);
                t.count(span, "updates_in_flight", u as f64);
            }
            self.inflight_max = (self.inflight_max.0.max(q), self.inflight_max.1.max(u));
            if self.zero_latency && (q, u) != (0, 0) {
                self.failed_rounds += 1;
                if self.violations.len() < 8 {
                    self.violations.push(format!(
                        "round {round}: {q} queries / {u} updates still in flight under zero \
                         latency"
                    ));
                }
            }
        }
    }

    /// Closes the window: differences the engine's counters over it and
    /// runs the checks a reader could make from the public API alone.
    /// Hands the network back for whatever the caller runs next.
    pub fn finish(self) -> (Window, PdhtNetwork) {
        assert_eq!(self.remaining(), 0, "the window is a fixed round count");
        let Sim {
            net,
            plan,
            pool_warm,
            events_warm,
            round_ms,
            inflight_max,
            failed_rounds,
            mut violations,
            ..
        } = self;
        let (from, to) = (plan.warmup, plan.warmup + plan.timed - 1);
        let metrics = net.metrics();
        let round_msgs: Vec<u64> = (from..=to)
            .map(|r| metrics.round_delta(Round(r)).expect("timed rounds are marked").total())
            .collect();
        let counts =
            metrics.counts_between(Round(from), Round(to)).expect("timed rounds are marked");
        let delta =
            |name: &str| gauge_at(&net, name, Some(to)) - gauge_at(&net, name, from.checked_sub(1));
        let (hits, misses) = (delta("hits"), delta("misses"));
        let report = net.report(from, to);

        let by_kind: f64 = report.by_kind.iter().map(|&(_, v)| v).sum();
        if (by_kind - report.msgs_per_round).abs() > 1e-6 * report.msgs_per_round.max(1.0) {
            violations.push(format!(
                "sum of by_kind ({by_kind}) != msgs_per_round ({})",
                report.msgs_per_round
            ));
        }
        if round_msgs.iter().sum::<u64>() != counts.total() {
            violations.push("per-round message deltas do not add up to the window total".into());
        }
        // The wave arena must stay O(concurrent waves) while acquires keep
        // growing: a slot per wave would mean per-query allocation is back.
        // Under latency a new high-water mark of waves in flight still adds
        // a slot now and then, so "frozen" is held to a tenth of the acquires.
        let (slots_end, acquires_end) = net.wave_pool_stats();
        let (grown, acquired) = (slots_end - pool_warm.0, acquires_end - pool_warm.1);
        if plan.steady_state && grown as u64 > 8 + acquired / 10 {
            violations.push(format!(
                "wave pool grew by {grown} slots over {acquired} acquires after warm-up"
            ));
        }

        let mut window = Window {
            rounds: (from, to),
            round_ms,
            round_msgs,
            counts,
            hits,
            misses,
            events: net.events_dispatched() - events_warm,
            report,
            phases: net.phase_breakdown(),
            inflight_max,
            failed_rounds,
            violations,
        };
        let (issued, failed) = (window.issued(), window.failed());
        if issued == 0 {
            window.violations.push("no query was issued in the window".into());
        } else if plan.steady_state && failed as f64 >= 0.01 * issued as f64 {
            window.violations.push(format!("{failed} of {issued} queries failed (>= 1%)"));
        }
        (window, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(round_ms: Vec<f64>, round_msgs: Vec<u64>) -> Window {
        let mut counts = MsgCounts::new();
        counts.add(MessageKind::WalkStep, round_msgs.iter().sum());
        Window {
            rounds: (0, round_ms.len() as u64 - 1),
            round_ms,
            round_msgs,
            counts,
            hits: 6,
            misses: 3,
            events: 7,
            report: SimReport { query_timeouts: 1, ..empty_report() },
            phases: None,
            inflight_max: (0, 0),
            failed_rounds: 0,
            violations: Vec::new(),
        }
    }

    fn empty_report() -> SimReport {
        SimReport {
            rounds: (0, 0),
            msgs_per_round: 0.0,
            by_kind: Vec::new(),
            p_indexed: 0.0,
            indexed_keys: 0.0,
            availability: 1.0,
            search_failures: 0,
            lookup_failures: 0,
            stale_hits: 0,
            skipped_offline: 0,
            query_timeouts: 0,
            gossip_innovative: 0,
            gossip_redundant: 0,
            wasted_bandwidth: 0.0,
            gossip_bytes: 0,
            gossip_bytes_per_round: 0.0,
            gossip_wave_redundant: None,
            gossip_wave_bytes: None,
            query_hops: None,
            query_latency_us: None,
        }
    }

    #[test]
    fn rate_is_the_median_segment_so_one_stall_does_not_move_it() {
        // Ten rounds of 1000 msgs in 1 ms each = 1e6 msgs/s...
        let steady = window(vec![1.0; 10], vec![1000; 10]);
        assert_eq!(steady.sim_msgs_per_s(), 1e6);
        // ...and a 100 ms stall in one round leaves the median segment alone.
        let mut ms = vec![1.0; 10];
        ms[3] = 100.0;
        let stalled = window(ms, vec![1000; 10]);
        assert_eq!(stalled.sim_msgs_per_s(), 1e6);
    }

    #[test]
    fn simulated_ratios_come_from_the_outcome_counters() {
        let w = window(vec![1.0; 4], vec![250; 4]);
        assert_eq!(w.issued(), 10);
        assert_eq!(w.answered_frac(), 0.9);
        assert_eq!(w.sim_msgs_per_query(), 100.0);
    }

    #[test]
    fn fingerprint_moves_with_any_counter() {
        let base = window(vec![1.0; 4], vec![250; 4]);
        let mut other = window(vec![9.0; 4], vec![250; 4]);
        assert_eq!(base.fingerprint(), other.fingerprint(), "host time is not simulated state");
        other.events += 1;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut third = window(vec![1.0; 4], vec![250; 4]);
        third.report.stale_hits += 1;
        assert_ne!(base.fingerprint(), third.fingerprint());
        assert_eq!(base.fingerprint().len(), 16);
    }
}
