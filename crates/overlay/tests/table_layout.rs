//! Layout equivalence of the flat routing-table arena.
//!
//! The production tables of [`KademliaOverlay`] and [`TrieOverlay`] live in
//! one fixed-stride arena; the nested `Vec<Vec<PeerId>>` tables they
//! replaced survive here, in test code, as the reference model. The model
//! re-implements the pre-arena `maintenance_step` verbatim over nested
//! vectors and is driven side by side with the real overlay: after every
//! round the rows, `routing_entries`, the emitted [`Repair`] stream, the
//! probe count and the rng's next word must agree.
//!
//! The pinned hashes at the bottom were captured on the nested-`Vec`
//! implementation *before* the rewrite.

use pdht_overlay::{KademliaOverlay, Overlay, PlanScratch, Repair, TrieOverlay};
use pdht_sim::Metrics;
use pdht_types::{Liveness, MessageKind, PeerId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

const BUCKET_K: usize = pdht_overlay::kademlia::BUCKET_K;

/// A peer's routing table as the nested vectors the arena replaced.
type Rows = Vec<Vec<PeerId>>;

/// The substrate-specific half of the reference model: where replacements
/// are sampled from, and the pre-arena per-peer maintenance step.
trait Model {
    fn rows(&self) -> &[Rows];
    /// The nested-`Vec` `maintenance_step` for one online peer, recording
    /// what it did as the `Repair`s `maintenance_plan` would emit.
    fn step(
        &mut self,
        p: usize,
        env: f64,
        live: &Liveness,
        rng: &mut SmallRng,
        probes: &mut u64,
        out: &mut Vec<Repair>,
    );
}

/// The probe sweep both substrates share: every entry draws once, probed
/// entries found offline are collected for repair after the walk.
fn sweep(
    row: &[PeerId],
    env: f64,
    live: &Liveness,
    rng: &mut SmallRng,
    probes: &mut u64,
) -> Vec<PeerId> {
    let mut stale = Vec::new();
    for &c in row {
        if rng.random::<f64>() < env {
            *probes += 1;
            if !live.is_online(c) {
                stale.push(c);
            }
        }
    }
    stale
}

struct KadModel {
    ids: Vec<u64>,
    sorted: Vec<(u64, PeerId)>,
    rows: Vec<Rows>,
}

impl KadModel {
    fn mirror(o: &KademliaOverlay) -> KadModel {
        let n = o.num_active();
        let ids: Vec<u64> = (0..n).map(|p| o.node_id(PeerId::from_idx(p))).collect();
        let mut sorted: Vec<(u64, PeerId)> =
            ids.iter().enumerate().map(|(i, &id)| (id, PeerId::from_idx(i))).collect();
        sorted.sort_unstable_by_key(|&(id, _)| id);
        KadModel { ids, sorted, rows: kad_rows(o) }
    }

    fn bucket_range(&self, x: u64, j: usize) -> &[(u64, PeerId)] {
        let flip = 1u64 << (63 - j);
        let keep = if j == 0 { 0 } else { x & (u64::MAX << (64 - j)) };
        let lo = keep | ((x & flip) ^ flip);
        let hi = lo | (flip - 1);
        let start = self.sorted.partition_point(|&(id, _)| id < lo);
        let end = self.sorted.partition_point(|&(id, _)| id <= hi);
        &self.sorted[start..end]
    }
}

impl Model for KadModel {
    fn rows(&self) -> &[Rows] {
        &self.rows
    }

    fn step(
        &mut self,
        p: usize,
        env: f64,
        live: &Liveness,
        rng: &mut SmallRng,
        probes: &mut u64,
        out: &mut Vec<Repair>,
    ) {
        let peer = PeerId::from_idx(p);
        let x = self.ids[p];
        for j in 0..self.rows[p].len() {
            let stale = sweep(&self.rows[p][j], env, live, rng, probes);
            for s in stale {
                let Some(pos) = self.rows[p][j].iter().position(|&c| c == s) else { continue };
                let range = self.bucket_range(x, j);
                let mut replacement = None;
                for _ in 0..8 {
                    if range.is_empty() {
                        break;
                    }
                    let (_, cand) = range[rng.random_range(0..range.len())];
                    if live.is_online(cand) && !self.rows[p][j].contains(&cand) {
                        replacement = Some(cand);
                        break;
                    }
                }
                match replacement {
                    Some(fresh) => self.rows[p][j][pos] = fresh,
                    None => {
                        self.rows[p][j].swap_remove(pos);
                    }
                }
                out.push(Repair::KadRefresh { peer, bucket: j as u32, stale: s, replacement });
            }
            if self.rows[p][j].is_empty() {
                let range = self.bucket_range(x, j);
                let mut revived = None;
                for _ in 0..8 {
                    if range.is_empty() {
                        break;
                    }
                    let (_, cand) = range[rng.random_range(0..range.len())];
                    if live.is_online(cand) {
                        revived = Some(cand);
                        break;
                    }
                }
                if let Some(fresh) = revived {
                    self.rows[p][j].push(fresh);
                    out.push(Repair::KadRevive { peer, bucket: j as u32, fresh });
                }
            }
        }
    }
}

struct TrieModel {
    depth: u32,
    leaves: Vec<Vec<PeerId>>,
    leaf_of: Vec<usize>,
    rows: Vec<Rows>,
}

impl TrieModel {
    fn mirror(o: &TrieOverlay) -> TrieModel {
        let n = o.num_active();
        TrieModel {
            depth: o.depth(),
            leaves: (0..o.leaf_count()).map(|l| o.leaf_members(l).to_vec()).collect(),
            leaf_of: (0..n).map(|p| o.leaf_of_member(PeerId::from_idx(p))).collect(),
            rows: trie_rows(o),
        }
    }

    fn sample_replacement(&self, p: usize, level: u32, rng: &mut SmallRng) -> Option<PeerId> {
        let my_leaf = self.leaf_of[p];
        let block = self.leaves.len() >> (level + 1);
        let my_block_start = (my_leaf >> (self.depth - level)) << (self.depth - level);
        let my_side = (my_leaf >> (self.depth - level - 1)) & 1;
        let sibling_start = if my_side == 0 { my_block_start + block } else { my_block_start };
        let leaf = sibling_start + rng.random_range(0..block);
        self.leaves[leaf].as_slice().choose(rng).copied()
    }
}

impl Model for TrieModel {
    fn rows(&self) -> &[Rows] {
        &self.rows
    }

    fn step(
        &mut self,
        p: usize,
        env: f64,
        live: &Liveness,
        rng: &mut SmallRng,
        probes: &mut u64,
        out: &mut Vec<Repair>,
    ) {
        let peer = PeerId::from_idx(p);
        for level in 0..self.depth {
            let stale = sweep(&self.rows[p][level as usize], env, live, rng, probes);
            for s in stale {
                let replacement = self.sample_replacement(p, level, rng);
                out.push(Repair::TrieRef { peer, level, stale: s, replacement });
                let row = &mut self.rows[p][level as usize];
                if let Some(pos) = row.iter().position(|&r| r == s) {
                    match replacement {
                        Some(fresh) if !row.contains(&fresh) => row[pos] = fresh,
                        _ => {
                            row.swap_remove(pos);
                        }
                    }
                }
            }
        }
    }
}

fn kad_rows(o: &KademliaOverlay) -> Vec<Rows> {
    (0..o.num_active())
        .map(PeerId::from_idx)
        .map(|p| (0..o.bucket_count(p)).map(|j| o.bucket(p, j).to_vec()).collect())
        .collect()
}

fn trie_rows(o: &TrieOverlay) -> Vec<Rows> {
    (0..o.num_active())
        .map(PeerId::from_idx)
        .map(|p| (0..o.depth()).map(|l| o.level_refs(p, l).to_vec()).collect())
        .collect()
}

/// Flips peers on and off (offline w.p. `p_off`, back w.p. `p_on`).
fn churn(live: &mut Liveness, rng: &mut SmallRng, p_off: f64, p_on: f64) {
    for i in 0..live.len() {
        let peer = PeerId::from_idx(i);
        let flip = rng.random::<f64>() < if live.is_online(peer) { p_off } else { p_on };
        if flip {
            live.set(peer, !live.is_online(peer));
        }
    }
}

/// Three worlds advanced from one rng state — the real overlay stepped
/// (`maintenance_round`), an identically built twin planned then applied,
/// and the nested-`Vec` model — plus what the run covered.
struct Lockstep<O, M> {
    stepped: O,
    planned: O,
    model: M,
    rows_of: fn(&O) -> Vec<Rows>,
    rng: SmallRng,
    evictions: usize,
    revives: usize,
}

impl Lockstep<KademliaOverlay, KadModel> {
    fn kademlia(n: usize, g: usize, seed: u64) -> Self {
        let build = || KademliaOverlay::build(n, g, &mut SmallRng::seed_from_u64(seed)).unwrap();
        Lockstep::new(build(), build(), KadModel::mirror, kad_rows, seed)
    }
}

impl Lockstep<TrieOverlay, TrieModel> {
    fn trie(n: usize, g: usize, seed: u64) -> Self {
        let build = || TrieOverlay::build(n, g, &mut SmallRng::seed_from_u64(seed)).unwrap();
        Lockstep::new(build(), build(), TrieModel::mirror, trie_rows, seed)
    }
}

impl<O: Overlay, M: Model> Lockstep<O, M> {
    fn new(
        stepped: O,
        planned: O,
        mirror: fn(&O) -> M,
        rows_of: fn(&O) -> Vec<Rows>,
        seed: u64,
    ) -> Self {
        let model = mirror(&stepped);
        let rng = SmallRng::seed_from_u64(seed ^ 0x3a17);
        Lockstep { stepped, planned, model, rows_of, rng, evictions: 0, revives: 0 }
    }

    /// One maintenance round in all three worlds; they must agree on
    /// everything observable.
    fn round(&mut self, env: f64, live: &Liveness) -> std::result::Result<(), TestCaseError> {
        let n = self.stepped.num_active();
        let (mut rng_planned, mut rng_model) = (self.rng.clone(), self.rng.clone());

        let mut m_stepped = Metrics::new();
        self.stepped.maintenance_round(env, live, &mut self.rng, &mut m_stepped);

        let mut m_planned = Metrics::new();
        let mut scratch = PlanScratch::new();
        let mut repairs = Vec::new();
        for p in (0..n).map(PeerId::from_idx) {
            let (rng, m) = (&mut rng_planned, &mut m_planned);
            self.planned.maintenance_plan(p, env, live, rng, m, &mut scratch, &mut repairs);
        }
        self.planned.maintenance_apply(&repairs, live);

        let mut probes = 0u64;
        let mut expected = Vec::new();
        for p in 0..n {
            if live.is_online(PeerId::from_idx(p)) {
                self.model.step(p, env, live, &mut rng_model, &mut probes, &mut expected);
            }
        }

        prop_assert_eq!(&repairs, &expected, "Repair stream diverged from the nested-Vec model");
        prop_assert_eq!(m_stepped.totals()[MessageKind::Probe], probes);
        prop_assert_eq!(m_planned.totals()[MessageKind::Probe], probes);
        let word = rng_model.random::<u64>();
        prop_assert_eq!(self.rng.random::<u64>(), word, "step consumed the rng differently");
        prop_assert_eq!(rng_planned.random::<u64>(), word, "plan consumed the rng differently");
        let rows = (self.rows_of)(&self.stepped);
        prop_assert_eq!(&rows[..], self.model.rows(), "stepped rows diverged");
        prop_assert_eq!(&(self.rows_of)(&self.planned)[..], self.model.rows(), "planned rows");
        for (p, table) in rows.iter().enumerate() {
            let entries: usize = table.iter().map(Vec::len).sum();
            prop_assert_eq!(self.stepped.routing_entries(PeerId::from_idx(p)), entries);
        }

        for r in &repairs {
            match r {
                Repair::KadRefresh { replacement: None, .. }
                | Repair::TrieRef { replacement: None, .. } => self.evictions += 1,
                Repair::KadRevive { .. } => self.revives += 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Twelve rounds under fresh random churn each.
    fn churned_rounds(&mut self, seed: u64, env: f64) -> std::result::Result<(), TestCaseError> {
        let mut live = Liveness::all_online(self.stepped.num_active());
        let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xc4);
        for _ in 0..12 {
            churn(&mut live, &mut churn_rng, 0.25, 0.35);
            self.round(env, &live)?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kademlia_arena_matches_nested_vec_model(
        n in 16usize..320,
        g in 1usize..24,
        seed in any::<u64>(),
        env in prop::sample::select(vec![0.05f64, 1.0, 0.011, 1e-300]),
    ) {
        Lockstep::kademlia(n, g, seed).churned_rounds(seed, env)?;
    }

    #[test]
    fn trie_arena_matches_nested_vec_model(
        n in 16usize..320,
        g in 1usize..24,
        seed in any::<u64>(),
        env in prop::sample::select(vec![0.05f64, 1.0, 0.011, 1e-300]),
    ) {
        Lockstep::trie(n, g, seed).churned_rounds(seed, env)?;
    }
}

/// The cycle random churn only sometimes reaches: a whole replica group
/// goes dark under full probing, the buckets covering exactly its id range
/// drain to empty, and revive once it returns — in lockstep with the model
/// throughout, with full-width rows refreshed in place along the way.
#[test]
fn kademlia_drained_row_revive_cycle_matches_model() {
    let mut worlds = Lockstep::kademlia(64, 4, 7);
    assert!(
        worlds.model.rows.iter().flatten().any(|row| row.len() == BUCKET_K),
        "the shape must exercise a row at exactly K"
    );
    let mut live = Liveness::all_online(64);
    let dark: Vec<PeerId> = worlds.stepped.group_members(9).to_vec();
    for online in [false, true] {
        for &p in &dark {
            live.set(p, online);
        }
        for _ in 0..30 {
            worlds.round(1.0, &live).unwrap();
        }
        if !online {
            assert!(worlds.evictions > 0, "a range gone dark must evict");
            assert_eq!(worlds.revives, 0, "nothing to revive from while the range is dark");
            let o = &worlds.stepped;
            let drained = (0..64)
                .map(PeerId::from_idx)
                .filter(|&p| live.is_online(p))
                .any(|p| (0..o.bucket_count(p)).any(|j| o.bucket(p, j).is_empty()));
            assert!(drained, "a bucket whose whole range went dark must drain");
        }
    }
    assert!(worlds.revives > 0, "drained buckets must revive once their range is back");
}

/// FNV-1a over every row of every peer: row count, then per row its live
/// length and contacts. Sensitive to row order, slot order and length.
fn table_hash(rows: &[Rows]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for table in rows {
        eat(&(table.len() as u32).to_le_bytes());
        for row in table {
            eat(&[row.len() as u8]);
            for c in row {
                eat(&c.0.to_le_bytes());
            }
        }
    }
    h
}

/// Build hash and the hash after 40 churned `maintenance_round`s at
/// `(n = 2000, g = 8)`.
fn golden_run<O: Overlay>(mut o: O, rows_of: fn(&O) -> Vec<Rows>, seed: u64) -> (u64, u64) {
    let built = table_hash(&rows_of(&o));
    let mut live = Liveness::all_online(2000);
    let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xc0ffee);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
    let mut m = Metrics::new();
    for _ in 0..40 {
        churn(&mut live, &mut churn_rng, 0.05, 0.2);
        o.maintenance_round(0.2, &live, &mut rng, &mut m);
    }
    (built, table_hash(&rows_of(&o)))
}

/// Captured on the nested-`Vec<Vec<PeerId>>` tables before the arena
/// rewrite: `(seed, after build, after 40 churned rounds)`.
const KADEMLIA_GOLDEN: [(u64, u64, u64); 3] = [
    (1, 0x0fa9_89a3_fa5a_d2d5, 0x2f06_cc16_60a0_f600),
    (2, 0xe1f3_a9f4_9d25_7fe2, 0xa6c0_a233_37da_4c0f),
    (3, 0xd879_b5d5_47ba_c363, 0xbc69_00c6_5da7_2c6b),
];
const TRIE_GOLDEN: [(u64, u64, u64); 3] = [
    (1, 0x62e1_9ae0_9ca6_1264, 0x2723_9139_76a3_6fd6),
    (2, 0xbb1b_80da_84b1_b63e, 0x8569_3f7e_96d1_fb96),
    (3, 0xba20_70ed_60c6_4acb, 0xf7f9_d91e_35b9_5b9f),
];

#[test]
fn kademlia_rows_match_pre_arena_golden() {
    for (seed, built, churned) in KADEMLIA_GOLDEN {
        let o = KademliaOverlay::build(2000, 8, &mut SmallRng::seed_from_u64(seed)).unwrap();
        let got = golden_run(o, kad_rows, seed);
        assert_eq!(got, (built, churned), "seed {seed}: got {:#018x}, {:#018x}", got.0, got.1);
    }
}

#[test]
fn trie_rows_match_pre_arena_golden() {
    for (seed, built, churned) in TRIE_GOLDEN {
        let o = TrieOverlay::build(2000, 8, &mut SmallRng::seed_from_u64(seed)).unwrap();
        let got = golden_run(o, trie_rows, seed);
        assert_eq!(got, (built, churned), "seed {seed}: got {:#018x}, {:#018x}", got.0, got.1);
    }
}
