//! Peer churn: exponential on/off sessions.
//!
//! "P2P clients are extremely transient in nature" (Section 1, citing
//! \[ChRa03\]). We model each peer as an alternating renewal process with
//! exponentially distributed online sessions (mean `mean_online_secs`) and
//! offline periods (mean `mean_offline_secs`). Steady-state availability is
//! `on/(on+off)`.
//!
//! The \[MaCa03\] route-maintenance constant `env` in the analytical model is
//! an *input*; churn here determines how often probes actually find stale
//! entries, which the simulator reports alongside the model's prediction.

use pdht_sim::random::exponential;
use pdht_types::{Liveness, PeerId};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;

/// Churn configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Mean online session length in seconds.
    pub mean_online_secs: f64,
    /// Mean offline period in seconds.
    pub mean_offline_secs: f64,
}

impl ChurnConfig {
    /// Gnutella-like default: sessions of ~60 min, absences of ~40 min
    /// (availability 0.6), in the range observed by the traces the paper
    /// cites.
    pub fn gnutella_like() -> ChurnConfig {
        ChurnConfig { mean_online_secs: 3600.0, mean_offline_secs: 2400.0 }
    }

    /// No churn: peers stay online forever (used by model-faithful
    /// experiments that inject `env` directly).
    pub fn none() -> ChurnConfig {
        ChurnConfig { mean_online_secs: f64::INFINITY, mean_offline_secs: f64::INFINITY }
    }

    /// Steady-state availability `on/(on+off)`; 1.0 for [`ChurnConfig::none`].
    pub fn availability(&self) -> f64 {
        if self.mean_online_secs.is_infinite() {
            return 1.0;
        }
        self.mean_online_secs / (self.mean_online_secs + self.mean_offline_secs)
    }

    fn is_static(&self) -> bool {
        self.mean_online_secs.is_infinite()
    }
}

/// Per-peer alternating on/off renewal process over a dense population.
///
/// Session toggles are *event-driven*: every peer is filed in a calendar
/// bucket keyed by the round its next toggle falls in, and
/// [`ChurnModel::step_second_into`] processes only the current round's bucket —
/// O(transitions) per round instead of scanning every peer's `next_toggle`.
/// Within a round, filed peers are processed in ascending index order and
/// each drains all its toggles in the window before the next peer, which
/// is exactly the draw order of the old full scan (draws only happen on
/// toggles), so seeded runs stay bit-for-bit identical.
///
/// # Sharding
///
/// For the shard-parallel engine the calendar can be split per shard
/// ([`ChurnModel::new_sharded`]): every peer belongs to a fixed shard, each
/// shard keeps its own calendar, and both the initial steady-state draws
/// and every subsequent toggle draw come from that shard's dedicated RNG
/// stream. Shards are visited in ascending shard order (peers ascending
/// within each shard), so the transition sequence is deterministic and —
/// because no stream is shared — independent of how many threads the engine
/// uses elsewhere. The unsharded constructor is the single-shard special
/// case and reproduces the historical draw order bit-for-bit.
pub struct ChurnModel {
    cfg: ChurnConfig,
    liveness: Liveness,
    /// Absolute second at which each peer next toggles (`f64::INFINITY` for
    /// static configurations).
    next_toggle: Vec<f64>,
    /// Per-shard: round → peers filed to toggle in that round. Entries are
    /// lazy-deleted: re-filing a peer (e.g. [`ChurnModel::force_blackout`])
    /// just updates `bucket_of`, and stale calendar entries are skipped
    /// when their round is processed.
    calendars: Vec<BTreeMap<u64, Vec<u32>>>,
    /// The shard each peer's toggles are filed (and drawn) under.
    shard_of: Vec<u16>,
    /// The calendar round each peer is currently (validly) filed under.
    bucket_of: Vec<u64>,
    now_secs: f64,
    /// The round [`ChurnModel::step_second_into`] will process next.
    round: u64,
}

impl ChurnModel {
    /// Creates the model for `n` peers. Initial state is drawn from the
    /// steady-state distribution so experiments start in equilibrium rather
    /// than with everyone online.
    pub fn new(n: usize, cfg: ChurnConfig, rng: &mut SmallRng) -> ChurnModel {
        Self::new_sharded(n, cfg, vec![0; n], std::slice::from_mut(rng))
    }

    /// Creates the model with per-shard calendars and RNG streams:
    /// `shard_of[i]` names the shard whose stream peer `i` draws from, and
    /// `rngs[s]` is shard `s`'s stream. Initial draws happen shard by shard
    /// (ascending), peers ascending within each shard.
    ///
    /// # Panics
    /// Panics if `shard_of` is not `n` long or names a shard `>= rngs.len()`.
    pub fn new_sharded(
        n: usize,
        cfg: ChurnConfig,
        shard_of: Vec<u16>,
        rngs: &mut [SmallRng],
    ) -> ChurnModel {
        assert_eq!(shard_of.len(), n, "shard_of must cover the population");
        let num_shards = rngs.len();
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
        for (i, &s) in shard_of.iter().enumerate() {
            by_shard[s as usize].push(i as u32);
        }
        let mut liveness = Liveness::all_online(n);
        let mut next_toggle = vec![f64::INFINITY; n];
        if !cfg.is_static() {
            let p_online = cfg.availability();
            for (s, members) in by_shard.iter().enumerate() {
                let rng = &mut rngs[s];
                for &p in members {
                    let i = p as usize;
                    let online = rand::Rng::random::<f64>(rng) < p_online;
                    liveness.set(PeerId::from_idx(i), online);
                    let mean = if online { cfg.mean_online_secs } else { cfg.mean_offline_secs };
                    // Exponential residual life (memorylessness makes the
                    // residual the same distribution as a full session).
                    next_toggle[i] = exponential(rng, 1.0 / mean);
                }
            }
        }
        let mut model = ChurnModel {
            cfg,
            liveness,
            next_toggle,
            calendars: vec![BTreeMap::new(); num_shards],
            shard_of,
            bucket_of: vec![u64::MAX; n],
            now_secs: 0.0,
            round: 0,
        };
        if !model.cfg.is_static() {
            // Static populations never toggle: no calendar to maintain.
            for i in 0..n {
                model.file(i);
            }
        }
        model
    }

    /// Files peer `i` in its shard's calendar bucket of the round its next
    /// toggle falls in, superseding any previous (now stale) filing.
    fn file(&mut self, i: usize) {
        // `as` saturates, so enormous draws file in a never-reached round.
        let bucket = self.next_toggle[i].floor() as u64;
        self.bucket_of[i] = bucket;
        self.calendars[self.shard_of[i] as usize].entry(bucket).or_default().push(i as u32);
    }

    /// Number of calendar shards (1 for [`ChurnModel::new`]).
    pub fn num_shards(&self) -> usize {
        self.calendars.len()
    }

    /// Current liveness view.
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// The configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Advances the process by one second, toggling any peers whose session
    /// ends in that window. Appends the transitions as `(peer, now_online)`
    /// pairs to a caller-owned buffer (not cleared first), so per-round
    /// drivers reuse one allocation — rejoining peers trigger anti-entropy
    /// pulls in the engine.
    ///
    /// Only the current round's calendar bucket is visited (sorted to
    /// ascending peer index, the old full scan's order), so the cost is
    /// O(transitions log transitions), not O(population).
    pub fn step_second_into(&mut self, rng: &mut SmallRng, out: &mut Vec<(PeerId, bool)>) {
        self.step_second_sharded_into(std::slice::from_mut(rng), out);
    }

    /// The sharded form of [`ChurnModel::step_second_into`]: shard `s`'s
    /// due bucket is drained with `rngs[s]`, shards visited in ascending
    /// order, transitions appended to the caller's buffer (not cleared
    /// first). The drain itself is serial (churn is far off the hot path);
    /// splitting the calendars exists to keep each shard's toggle draws on
    /// its own stream, so the rest of the engine can consume those streams
    /// from worker threads without perturbing churn.
    ///
    /// # Panics
    /// Panics if `rngs.len()` differs from the shard count the model was
    /// built with.
    pub fn step_second_sharded_into(
        &mut self,
        rngs: &mut [SmallRng],
        transitions: &mut Vec<(PeerId, bool)>,
    ) {
        assert_eq!(rngs.len(), self.calendars.len(), "one rng stream per churn shard");
        if self.cfg.is_static() {
            self.now_secs += 1.0;
            self.round += 1;
            return;
        }
        let end = self.now_secs + 1.0;
        for s in 0..self.calendars.len() {
            let Some(mut due) = self.calendars[s].remove(&self.round) else {
                continue;
            };
            let rng = &mut rngs[s];
            // Filing order is arbitrary (and re-filed peers can appear
            // twice); the RNG draw order must match the old ascending
            // full scan exactly.
            due.sort_unstable();
            due.dedup();
            for &p in &due {
                let i = p as usize;
                if self.bucket_of[i] != self.round {
                    continue; // stale entry: the peer was re-filed
                }
                // A peer may toggle multiple times within a second if
                // sessions are very short; loop until its next toggle
                // leaves the window.
                while self.next_toggle[i] < end {
                    let id = PeerId::from_idx(i);
                    let was_online = self.liveness.is_online(id);
                    self.liveness.set(id, !was_online);
                    transitions.push((id, !was_online));
                    let mean = if was_online {
                        self.cfg.mean_offline_secs
                    } else {
                        self.cfg.mean_online_secs
                    };
                    self.next_toggle[i] += exponential(rng, 1.0 / mean);
                }
                self.file(i);
            }
        }
        self.now_secs = end;
        self.round += 1;
    }

    /// Failure injection: instantly knocks a uniform `fraction` of peers
    /// offline. Their return is rescheduled from the offline-period
    /// distribution (and re-filed in the calendar — the superseded entry
    /// is lazy-deleted), so recovery follows the configured churn
    /// dynamics. No-op fractions ≤ 0; for static configs the peers stay
    /// down forever.
    pub fn force_blackout(&mut self, fraction: f64, rng: &mut SmallRng) {
        let fraction = fraction.clamp(0.0, 1.0);
        for i in 0..self.next_toggle.len() {
            if rand::Rng::random::<f64>(rng) < fraction {
                let id = PeerId::from_idx(i);
                self.liveness.set(id, false);
                if !self.cfg.is_static() {
                    self.next_toggle[i] =
                        self.now_secs + exponential(rng, 1.0 / self.cfg.mean_offline_secs);
                    self.file(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    type Transitions = Vec<(PeerId, bool)>;

    /// One second of `c` into the reused `buf` (cleared first).
    fn step<'b>(c: &mut ChurnModel, r: &mut SmallRng, buf: &'b mut Transitions) -> &'b Transitions {
        buf.clear();
        c.step_second_into(r, buf);
        buf
    }

    /// One sharded second of `c` into the reused `buf` (cleared first).
    fn step_sharded<'b>(
        c: &mut ChurnModel,
        rngs: &mut [SmallRng],
        buf: &'b mut Transitions,
    ) -> &'b Transitions {
        buf.clear();
        c.step_second_sharded_into(rngs, buf);
        buf
    }

    #[test]
    fn static_config_never_toggles() {
        let mut r = rng();
        let mut c = ChurnModel::new(100, ChurnConfig::none(), &mut r);
        assert_eq!(c.liveness().online_count(), 100);
        let mut buf = Vec::new();
        for _ in 0..50 {
            assert!(step(&mut c, &mut r, &mut buf).is_empty());
        }
        assert_eq!(c.liveness().online_count(), 100);
    }

    #[test]
    fn starts_near_steady_state() {
        let mut r = rng();
        let cfg = ChurnConfig { mean_online_secs: 300.0, mean_offline_secs: 700.0 };
        let c = ChurnModel::new(10_000, cfg, &mut r);
        let avail = c.liveness().availability();
        assert!((avail - 0.3).abs() < 0.02, "initial availability {avail} should be ~0.3");
    }

    #[test]
    fn long_run_availability_matches_config() {
        let mut r = rng();
        let cfg = ChurnConfig { mean_online_secs: 60.0, mean_offline_secs: 40.0 };
        let mut c = ChurnModel::new(2_000, cfg, &mut r);
        let mut sum = 0.0;
        let rounds = 2_000;
        let mut buf = Vec::new();
        for _ in 0..rounds {
            step(&mut c, &mut r, &mut buf);
            sum += c.liveness().availability();
        }
        let avg = sum / f64::from(rounds);
        assert!((avg - 0.6).abs() < 0.03, "time-average availability {avg} should be ~0.6");
    }

    #[test]
    fn toggles_happen_at_expected_rate() {
        let mut r = rng();
        // Mean session 50 s either way → each peer toggles about once per
        // 50 s → 1000 peers ≈ 20 toggles/s.
        let cfg = ChurnConfig { mean_online_secs: 50.0, mean_offline_secs: 50.0 };
        let mut c = ChurnModel::new(1_000, cfg, &mut r);
        let mut toggles = 0usize;
        let mut buf = Vec::new();
        for _ in 0..500 {
            toggles += step(&mut c, &mut r, &mut buf).len();
        }
        let per_sec = toggles as f64 / 500.0;
        assert!((per_sec - 20.0).abs() < 2.0, "toggle rate {per_sec}/s should be ~20");
    }

    #[test]
    fn determinism_from_seed() {
        let cfg = ChurnConfig::gnutella_like();
        let run = |seed: u64| {
            let mut r = SmallRng::seed_from_u64(seed);
            let mut c = ChurnModel::new(500, cfg, &mut r);
            let mut buf = Vec::new();
            for _ in 0..100 {
                step(&mut c, &mut r, &mut buf);
            }
            (0..500).map(|i| c.liveness().is_online(PeerId(i))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// The old full-scan `step_second`, kept verbatim as the reference: the
    /// calendar must reproduce its transition sequence (and hence its RNG
    /// draw order) exactly — this is what keeps the churn golden vectors
    /// bit-for-bit valid.
    struct FullScanChurn {
        cfg: ChurnConfig,
        liveness: Liveness,
        next_toggle: Vec<f64>,
        now_secs: f64,
    }

    impl FullScanChurn {
        fn new(n: usize, cfg: ChurnConfig, rng: &mut SmallRng) -> FullScanChurn {
            let mut liveness = Liveness::all_online(n);
            let mut next_toggle = vec![f64::INFINITY; n];
            let p_online = cfg.availability();
            for (i, toggle) in next_toggle.iter_mut().enumerate() {
                let online = rand::Rng::random::<f64>(rng) < p_online;
                liveness.set(PeerId::from_idx(i), online);
                let mean = if online { cfg.mean_online_secs } else { cfg.mean_offline_secs };
                *toggle = exponential(rng, 1.0 / mean);
            }
            FullScanChurn { cfg, liveness, next_toggle, now_secs: 0.0 }
        }

        fn step_second(&mut self, rng: &mut SmallRng) -> Vec<(PeerId, bool)> {
            let end = self.now_secs + 1.0;
            let mut transitions = Vec::new();
            for i in 0..self.next_toggle.len() {
                while self.next_toggle[i] < end {
                    let id = PeerId::from_idx(i);
                    let was_online = self.liveness.is_online(id);
                    self.liveness.set(id, !was_online);
                    transitions.push((id, !was_online));
                    let mean = if was_online {
                        self.cfg.mean_offline_secs
                    } else {
                        self.cfg.mean_online_secs
                    };
                    self.next_toggle[i] += exponential(rng, 1.0 / mean);
                }
            }
            self.now_secs = end;
            transitions
        }

        fn force_blackout(&mut self, fraction: f64, rng: &mut SmallRng) {
            for i in 0..self.next_toggle.len() {
                if rand::Rng::random::<f64>(rng) < fraction {
                    let id = PeerId::from_idx(i);
                    self.liveness.set(id, false);
                    self.next_toggle[i] =
                        self.now_secs + exponential(rng, 1.0 / self.cfg.mean_offline_secs);
                }
            }
        }
    }

    #[test]
    fn calendar_matches_full_scan_transition_sequence() {
        // Short sessions force multi-toggle windows; a blackout mid-run
        // forces re-filing of already-filed peers.
        for (on, off) in [(0.4, 0.6), (50.0, 50.0), (3600.0, 2400.0)] {
            let cfg = ChurnConfig { mean_online_secs: on, mean_offline_secs: off };
            let mut r_cal = SmallRng::seed_from_u64(0xc0ffee);
            let mut r_ref = SmallRng::seed_from_u64(0xc0ffee);
            let mut cal = ChurnModel::new(800, cfg, &mut r_cal);
            let mut refm = FullScanChurn::new(800, cfg, &mut r_ref);
            let mut buf = Vec::new();
            for round in 0..120 {
                if round == 40 {
                    cal.force_blackout(0.3, &mut r_cal);
                    refm.force_blackout(0.3, &mut r_ref);
                }
                assert_eq!(
                    step(&mut cal, &mut r_cal, &mut buf),
                    &refm.step_second(&mut r_ref),
                    "transition sequences diverged in round {round} (on={on}, off={off})"
                );
            }
            for i in 0..800 {
                assert_eq!(cal.liveness().is_online(PeerId(i)), refm.liveness.is_online(PeerId(i)));
            }
        }
    }

    #[test]
    fn single_shard_constructor_is_the_legacy_model() {
        let cfg = ChurnConfig::gnutella_like();
        let mut r_a = SmallRng::seed_from_u64(99);
        let mut r_b = SmallRng::seed_from_u64(99);
        let mut a = ChurnModel::new(300, cfg, &mut r_a);
        let mut b = ChurnModel::new_sharded(300, cfg, vec![0; 300], std::slice::from_mut(&mut r_b));
        assert_eq!(a.num_shards(), 1);
        let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
        for _ in 0..50 {
            assert_eq!(
                step(&mut a, &mut r_a, &mut buf_a),
                step_sharded(&mut b, std::slice::from_mut(&mut r_b), &mut buf_b)
            );
        }
    }

    #[test]
    fn shards_evolve_on_independent_streams() {
        // Shard 0's peers must behave exactly as a standalone model fed the
        // same stream, no matter what shard 1 does — that independence is
        // what lets the sharded engine consume other streams from worker
        // threads without perturbing churn.
        let cfg = ChurnConfig { mean_online_secs: 40.0, mean_offline_secs: 20.0 };
        let n0 = 250usize;
        let n1 = 150usize;
        let shard_of: Vec<u16> = (0..n0 + n1).map(|i| if i < n0 { 0 } else { 1 }).collect();
        let mut combined_rngs = vec![SmallRng::seed_from_u64(11), SmallRng::seed_from_u64(22)];
        let mut combined = ChurnModel::new_sharded(n0 + n1, cfg, shard_of, &mut combined_rngs);
        let mut solo_rng = SmallRng::seed_from_u64(11);
        let mut solo = ChurnModel::new(n0, cfg, &mut solo_rng);
        let (mut both, mut expect) = (Vec::new(), Vec::new());
        for round in 0..200 {
            step_sharded(&mut combined, &mut combined_rngs, &mut both);
            let shard0: Transitions =
                both.iter().copied().filter(|&(p, _)| (p.0 as usize) < n0).collect();
            step(&mut solo, &mut solo_rng, &mut expect);
            assert_eq!(shard0, expect, "shard-0 transitions diverged in round {round}");
        }
        for i in 0..n0 {
            assert_eq!(
                combined.liveness().is_online(PeerId(i as u32)),
                solo.liveness().is_online(PeerId(i as u32))
            );
        }
    }

    #[test]
    #[should_panic(expected = "one rng stream per churn shard")]
    fn sharded_step_checks_stream_count() {
        let cfg = ChurnConfig::gnutella_like();
        let mut rngs = vec![SmallRng::seed_from_u64(1), SmallRng::seed_from_u64(2)];
        let mut c = ChurnModel::new_sharded(10, cfg, vec![0; 10], &mut rngs[..1]);
        c.step_second_sharded_into(&mut rngs, &mut Vec::new());
    }

    #[test]
    fn blackout_reschedules_through_the_calendar() {
        let mut r = rng();
        let cfg = ChurnConfig { mean_online_secs: 60.0, mean_offline_secs: 10.0 };
        let mut c = ChurnModel::new(1_000, cfg, &mut r);
        c.force_blackout(1.0, &mut r);
        assert_eq!(c.liveness().online_count(), 0);
        // Mean offline period is 10 s: after 60 s nearly everyone is back.
        let mut buf = Vec::new();
        for _ in 0..60 {
            step(&mut c, &mut r, &mut buf);
        }
        assert!(
            c.liveness().availability() > 0.7,
            "peers must recover through the calendar, availability {}",
            c.liveness().availability()
        );
    }
}
