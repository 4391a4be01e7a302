//! Search in the unstructured overlay: k-random-walks.
//!
//! A walk counts **every step** it takes, including steps onto peers an
//! earlier step already visited, because those repeats are the `dup`
//! factor of the paper's Eq. 6 (`cSUnstr = numPeers/repl · dup`). Multiple
//! random walks are the search the paper assumes (\[LvCa02\]).

use crate::topology::Topology;
use pdht_sim::{Metrics, VisitSet};
use pdht_types::{Liveness, MessageKind, PeerId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Result of an unstructured search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The first holder reached, if any.
    pub found: Option<PeerId>,
    /// Total walk steps sent, repeat visits included.
    pub messages: u64,
}

/// Result of one [`RandomWalk::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkWave {
    /// A walker reached a holder; the search is over.
    Found(PeerId),
    /// Budget exhausted or every walker is stuck; the search failed.
    Exhausted,
    /// Walkers are still in flight; run another wave.
    InProgress,
}

/// A resumable k-random-walk search: the `walkers` tokens advance one step
/// each per [`RandomWalk::step`] call (walkers are parallel, so one wave is
/// one network-hop of virtual time). Message-granular engines park this
/// state between waves; [`random_walks`] drives it to completion with no
/// inter-wave delay. A walk holds its walkers' positions and its step
/// count, nothing sized by the population.
#[derive(Clone, Debug)]
pub struct RandomWalk {
    positions: Vec<PeerId>,
    messages: u64,
    max_steps: u64,
}

impl RandomWalk {
    /// Starts a walk search from `origin`. Resolves immediately
    /// (`Err(outcome)`) when the origin is offline, there are no walkers,
    /// or the origin itself holds the item.
    ///
    /// # Errors
    /// The `Err` variant *is* the immediately resolved search outcome, not
    /// a failure.
    pub fn start<F>(
        origin: PeerId,
        walkers: usize,
        max_steps: u64,
        is_holder: F,
        live: &Liveness,
    ) -> std::result::Result<RandomWalk, SearchOutcome>
    where
        F: Fn(PeerId) -> bool,
    {
        if !live.is_online(origin) || walkers == 0 {
            return Err(SearchOutcome { found: None, messages: 0 });
        }
        if is_holder(origin) {
            return Err(SearchOutcome { found: Some(origin), messages: 0 });
        }
        Ok(RandomWalk { positions: vec![origin; walkers], messages: 0, max_steps })
    }

    /// [`RandomWalk::start`] under its earlier signature, which
    /// `benchmark/src/layers.rs` replays walks through; `topo` and
    /// `scratch` are unused.
    #[doc(hidden)]
    pub fn begin<F>(
        _topo: &Topology,
        origin: PeerId,
        walkers: usize,
        max_steps: u64,
        is_holder: F,
        live: &Liveness,
        _scratch: &mut VisitSet,
    ) -> std::result::Result<RandomWalk, SearchOutcome>
    where
        F: Fn(PeerId) -> bool,
    {
        RandomWalk::start(origin, walkers, max_steps, is_holder, live)
    }

    /// One parallel wave: every walker takes one step through the online
    /// subgraph, each costing one [`MessageKind::WalkStep`].
    pub fn step<F>(
        &mut self,
        topo: &Topology,
        is_holder: F,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) -> WalkWave
    where
        F: Fn(PeerId) -> bool,
    {
        if self.messages >= self.max_steps {
            return WalkWave::Exhausted;
        }
        // Every walker's position is known up front, so the adjacency rows
        // this wave will touch can start streaming in before the serial
        // per-walker loop reaches them. Each row is a random index into the
        // CSR arrays — without the hint every step pays the full miss.
        for pos in &self.positions {
            topo.prefetch_neighbors(*pos);
        }
        let mut any_alive = false;
        for pos in &mut self.positions {
            if self.messages >= self.max_steps {
                break;
            }
            // Step to a random online neighbor (walkers pass through the
            // online subgraph only — an offline peer cannot forward).
            // Fused count-then-pick: one pass counts the online neighbors
            // while recording where the first PICK_CACHE of them sit, then
            // one uniform draw over that count picks the step — the same
            // single `random_range(0..count)` the old collect-then-choose
            // consumed, with no candidates Vec. Only a hub with more than
            // PICK_CACHE online neighbors ever needs the rescan.
            const PICK_CACHE: usize = 32;
            let neighbors = topo.neighbors(*pos);
            let mut online = 0usize;
            let mut slots = [0u32; PICK_CACHE];
            for (j, &p) in neighbors.iter().enumerate() {
                if live.is_online(p) {
                    if online < PICK_CACHE {
                        slots[online] = j as u32;
                    }
                    online += 1;
                }
            }
            if online == 0 {
                continue; // walker is stuck; others may proceed
            }
            let pick = rng.random_range(0..online);
            let next = if pick < PICK_CACHE {
                neighbors[slots[pick] as usize]
            } else {
                *neighbors
                    .iter()
                    .filter(|&&p| live.is_online(p))
                    .nth(pick)
                    .expect("pick < online count")
            };
            any_alive = true;
            self.messages += 1;
            metrics.record(MessageKind::WalkStep);
            *pos = next;
            if is_holder(next) {
                return WalkWave::Found(next);
            }
        }
        if any_alive {
            WalkWave::InProgress
        } else {
            WalkWave::Exhausted
        }
    }

    /// [`RandomWalk::step`] under its earlier signature (see
    /// [`RandomWalk::begin`]); `scratch` is unused.
    #[doc(hidden)]
    pub fn wave<F>(
        &mut self,
        topo: &Topology,
        is_holder: F,
        live: &Liveness,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        _scratch: &mut VisitSet,
    ) -> WalkWave
    where
        F: Fn(PeerId) -> bool,
    {
        self.step(topo, is_holder, live, rng, metrics)
    }

    /// The accumulated outcome, with `found` supplied by the final wave.
    pub fn outcome(&self, found: Option<PeerId>) -> SearchOutcome {
        SearchOutcome { found, messages: self.messages }
    }
}

/// k-random-walk search (\[LvCa02\]): `walkers` tokens walk the online
/// subgraph, each step costing one [`MessageKind::WalkStep`]; the search
/// stops as soon as any walker stands on a holder, or when the shared
/// `max_steps` budget is exhausted. Drives a [`RandomWalk`] with no
/// inter-wave delay.
#[allow(clippy::too_many_arguments)]
pub fn random_walks<F>(
    topo: &Topology,
    origin: PeerId,
    walkers: usize,
    max_steps: u64,
    is_holder: F,
    live: &Liveness,
    rng: &mut SmallRng,
    metrics: &mut Metrics,
) -> SearchOutcome
where
    F: Fn(PeerId) -> bool,
{
    let mut walk = match RandomWalk::start(origin, walkers, max_steps, &is_holder, live) {
        Ok(walk) => walk,
        Err(resolved) => return resolved,
    };
    loop {
        match walk.step(topo, &is_holder, live, rng, metrics) {
            WalkWave::Found(holder) => return walk.outcome(Some(holder)),
            WalkWave::Exhausted => return walk.outcome(None),
            WalkWave::InProgress => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::Replication;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(31337)
    }

    fn setup(n: usize, repl: usize) -> (Topology, Replication, Liveness) {
        let mut r = rng();
        let topo = Topology::random(n, 5, &mut r).unwrap();
        let repl = Replication::place(20, repl, n, &mut r).unwrap();
        (topo, repl, Liveness::all_online(n))
    }

    #[test]
    fn walk_cost_scales_with_inverse_replication() {
        // Eq. 6: cost ∝ numPeers/repl. Compare repl = 200 vs repl = 50 on
        // the same 2000-peer graph: the sparser item must cost roughly 4×
        // more (within stochastic slack, averaged over queries).
        let mut r = rng();
        let topo = Topology::random(2_000, 5, &mut r).unwrap();
        let live = Liveness::all_online(2_000);
        let dense = Replication::place(8, 200, 2_000, &mut r).unwrap();
        let sparse = Replication::place(8, 50, 2_000, &mut r).unwrap();
        let mut m = Metrics::new();
        let avg = |repl: &Replication, r: &mut SmallRng, m: &mut Metrics| -> f64 {
            let mut total = 0u64;
            let runs = 60;
            for i in 0..runs {
                let out = random_walks(
                    &topo,
                    PeerId((i * 31) % 2_000),
                    16,
                    200_000,
                    |p| repl.is_holder((i % 8) as usize, p),
                    &live,
                    r,
                    m,
                );
                assert!(out.found.is_some());
                total += out.messages;
            }
            total as f64 / f64::from(runs)
        };
        let cost_dense = avg(&dense, &mut r, &mut m);
        let cost_sparse = avg(&sparse, &mut r, &mut m);
        let ratio = cost_sparse / cost_dense;
        assert!(
            (2.0..8.0).contains(&ratio),
            "4× sparser replication should cost ~4× more, got {ratio:.2} ({cost_dense:.0} vs {cost_sparse:.0})"
        );
    }

    #[test]
    fn walks_give_up_on_missing_items() {
        let (topo, _, live) = setup(500, 5);
        let mut r = rng();
        let mut m = Metrics::new();
        let out = random_walks(&topo, PeerId(0), 8, 5_000, |_| false, &live, &mut r, &mut m);
        assert!(out.found.is_none());
        assert_eq!(out.messages, 5_000, "budget must be fully consumed");
    }

    #[test]
    fn walkers_survive_offline_patches() {
        let (topo, repl, mut live) = setup(1_000, 50);
        let mut r = SmallRng::seed_from_u64(0xabc);
        for i in 0..1_000 {
            if rand::Rng::random::<f64>(&mut r) < 0.3 {
                live.set(PeerId(i), false);
            }
        }
        // Ensure origin online.
        live.set(PeerId(0), true);
        let mut m = Metrics::new();
        let mut found = 0;
        for item in 0..20 {
            let holder_online = repl.holders(item).iter().any(|&h| live.is_online(h));
            if !holder_online {
                continue;
            }
            let out = random_walks(
                &topo,
                PeerId(0),
                16,
                100_000,
                |p| repl.is_holder(item, p) && live.is_online(p),
                &live,
                &mut r,
                &mut m,
            );
            if out.found.is_some() {
                found += 1;
            }
        }
        assert!(found >= 18, "search should find online items under churn, found {found}");
    }

    #[test]
    fn zero_walkers_do_nothing() {
        let (topo, _, live) = setup(100, 5);
        let mut r = rng();
        let mut m = Metrics::new();
        let out = random_walks(&topo, PeerId(0), 0, 1_000, |_| true, &live, &mut r, &mut m);
        assert!(out.found.is_none());
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn origin_holding_item_is_free() {
        let (topo, _, live) = setup(100, 5);
        let mut r = rng();
        let mut m = Metrics::new();
        let out = random_walks(&topo, PeerId(7), 4, 100, |p| p == PeerId(7), &live, &mut r, &mut m);
        assert_eq!(out.found, Some(PeerId(7)));
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn begin_and_wave_replay_start_and_step() {
        // The two shims must walk exactly as the entry points they wrap:
        // same waves, same outcome, same step count, same RNG position.
        let (topo, repl, live) = setup(1_000, 5);
        let holder = |p| repl.is_holder(3, p);
        let mut scratch = VisitSet::new(topo.len());
        let (mut r1, mut r2) = (rng(), rng());
        let (mut m1, mut m2) = (Metrics::new(), Metrics::new());
        let mut old = RandomWalk::begin(&topo, PeerId(0), 8, 20_000, holder, &live, &mut scratch)
            .expect("walk starts");
        let mut new = RandomWalk::start(PeerId(0), 8, 20_000, holder, &live).expect("walk starts");
        let (mut waves_old, mut waves_new) = (Vec::new(), Vec::new());
        loop {
            let w = old.wave(&topo, holder, &live, &mut r1, &mut m1, &mut scratch);
            waves_old.push(w);
            if w != WalkWave::InProgress {
                break;
            }
        }
        loop {
            let w = new.step(&topo, holder, &live, &mut r2, &mut m2);
            waves_new.push(w);
            if w != WalkWave::InProgress {
                break;
            }
        }
        assert!(waves_new.len() > 1, "the walk must take several waves");
        assert_eq!(waves_old, waves_new);
        let found = match waves_new.last() {
            Some(WalkWave::Found(p)) => Some(*p),
            _ => None,
        };
        assert_eq!(old.outcome(found), new.outcome(found));
        assert_eq!(m1.totals()[MessageKind::WalkStep], m2.totals()[MessageKind::WalkStep]);
        assert_eq!(m2.totals()[MessageKind::WalkStep], new.outcome(found).messages);
        assert_eq!(r1.random::<u64>(), r2.random::<u64>());
    }
}
