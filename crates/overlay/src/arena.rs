//! The flat routing-table arena shared by [`crate::KademliaOverlay`]
//! (k-buckets, stride [`crate::kademlia::BUCKET_K`]) and
//! [`crate::TrieOverlay`] (per-level references).
//!
//! A routing table is a short list of *rows* (buckets / levels), each
//! holding at most `K` contacts. Every row occupies a fixed stride of `K`
//! slots in one `Vec<PeerId>` with its live length in a parallel `u8`, and a
//! peer's rows are consecutive — so a maintenance tick walks one contiguous
//! run of memory instead of chasing one heap allocation per row, and
//! swap-remove / push are length edits. See DESIGN.md §8.0.6.

use pdht_sim::Metrics;
use pdht_types::{Liveness, MessageKind, PeerId};
use rand::rngs::SmallRng;
use rand::RngCore;

/// A peer's run of rows: `rows` consecutive rows starting at row `first`.
#[derive(Clone, Copy)]
struct Span {
    first: u32,
    rows: u32,
}

/// Routing tables of all peers at a fixed stride of `K` contacts per row.
pub(crate) struct RowArena<const K: usize> {
    /// Per peer, in `PeerId` order.
    spans: Vec<Span>,
    /// Live length of each row (`<= K`).
    lens: Vec<u8>,
    /// Row `r` is `slots[r * K..][..lens[r]]`; the tail of the stride is dead.
    slots: Vec<PeerId>,
}

impl<const K: usize> RowArena<K> {
    /// An empty arena with room for `peers` tables holding `rows` rows in
    /// all. Builders pass the exact totals, so the arena is allocated once
    /// and holds no slack (more rows still fit, by regrowth).
    pub(crate) fn with_capacity(peers: usize, rows: usize) -> Self {
        const { assert!(K > 0 && K <= u8::MAX as usize) };
        RowArena {
            spans: Vec::with_capacity(peers),
            lens: Vec::with_capacity(rows),
            slots: Vec::with_capacity(rows * K),
        }
    }

    /// Opens the next peer's (initially empty) table; rows pushed from now
    /// on belong to it.
    pub(crate) fn begin_peer(&mut self) {
        let first = u32::try_from(self.lens.len()).expect("routing rows exceed u32");
        self.spans.push(Span { first, rows: 0 });
    }

    /// Appends a row to the table opened by the last [`Self::begin_peer`].
    pub(crate) fn push_row(&mut self, contacts: &[PeerId]) {
        assert!(contacts.len() <= K, "row of {} contacts exceeds stride {K}", contacts.len());
        self.spans.last_mut().expect("push_row before begin_peer").rows += 1;
        self.lens.push(contacts.len() as u8);
        self.slots.extend_from_slice(contacts);
        self.slots.resize(self.lens.len() * K, PeerId(0));
    }

    fn span(&self, peer: PeerId) -> (usize, usize) {
        let Span { first, rows } = self.spans[peer.idx()];
        (first as usize, rows as usize)
    }

    /// Arena index of row 0 of `peer`'s table: its row `j` is arena row
    /// `first_row(peer) + j`.
    pub(crate) fn first_row(&self, peer: PeerId) -> usize {
        self.span(peer).0
    }

    /// Number of rows in `peer`'s table.
    pub(crate) fn row_count(&self, peer: PeerId) -> usize {
        self.span(peer).1
    }

    /// The live contacts of every row of `peer`, in row order.
    pub(crate) fn rows(&self, peer: PeerId) -> impl Iterator<Item = &[PeerId]> {
        let (first, rows) = self.span(peer);
        let lens = &self.lens[first..first + rows];
        let slots = &self.slots[first * K..(first + rows) * K];
        lens.iter().zip(slots.chunks_exact(K)).map(|(&len, row)| &row[..len as usize])
    }

    /// The live contacts of row `j` of `peer`; empty when the table has no
    /// such row.
    pub(crate) fn row(&self, peer: PeerId, j: usize) -> &[PeerId] {
        let (first, rows) = self.span(peer);
        if j >= rows {
            return &[];
        }
        let r = first + j;
        &self.slots[r * K..][..self.lens[r] as usize]
    }

    /// Total live contacts across `peer`'s rows.
    pub(crate) fn entries(&self, peer: PeerId) -> usize {
        let (first, rows) = self.span(peer);
        self.lens[first..first + rows].iter().map(|&len| len as usize).sum()
    }

    /// Overwrites `stale` in row `j` of `peer` with `fresh`, or swap-removes
    /// it when there is no replacement. A no-op if `stale` is not in the row.
    pub(crate) fn repair(&mut self, peer: PeerId, j: usize, stale: PeerId, fresh: Option<PeerId>) {
        let r = self.span(peer).0 + j;
        let len = self.lens[r] as usize;
        let row = &mut self.slots[r * K..][..len];
        if let Some(pos) = row.iter().position(|&c| c == stale) {
            row[pos] = fresh.unwrap_or(row[len - 1]);
            self.lens[r] -= u8::from(fresh.is_none());
        }
    }

    /// Appends `contact` to row `j` of `peer`, which must have a free slot.
    pub(crate) fn push(&mut self, peer: PeerId, j: usize, contact: PeerId) {
        let r = self.span(peer).0 + j;
        let len = self.lens[r] as usize;
        // A hard assert, not a debug one: past the stride lies the next
        // row's first slot, and revives are rare enough to afford it.
        assert!(len < K, "push into a full row ({peer}, row {j})");
        self.slots[r * K + len] = contact;
        self.lens[r] += 1;
    }
}

/// A row lifted onto the stack: what [`Overlay::next_hop`] reorders and
/// what maintenance planning mutates in place of the shared arena.
///
/// [`Overlay::next_hop`]: crate::Overlay::next_hop
pub(crate) struct StackRow<const K: usize> {
    slots: [PeerId; K],
    len: usize,
}

impl<const K: usize> StackRow<K> {
    pub(crate) fn new() -> Self {
        Self::copy_of(&[])
    }

    pub(crate) fn copy_of(row: &[PeerId]) -> Self {
        let mut slots = [PeerId(0); K];
        slots[..row.len()].copy_from_slice(row);
        StackRow { slots, len: row.len() }
    }

    pub(crate) fn as_slice(&self) -> &[PeerId] {
        &self.slots[..self.len]
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [PeerId] {
        &mut self.slots[..self.len]
    }

    /// Appends `contact`.
    ///
    /// # Panics
    /// Panics if the row already holds `K` contacts.
    pub(crate) fn push(&mut self, contact: PeerId) {
        self.slots[self.len] = contact;
        self.len += 1;
    }

    /// [`RowArena::repair`] with the position already known.
    pub(crate) fn repair_at(&mut self, pos: usize, fresh: Option<PeerId>) {
        self.slots[pos] = fresh.unwrap_or(self.slots[self.len - 1]);
        self.len -= usize::from(fresh.is_none());
    }
}

/// The per-contact probe test `rng.random::<f64>() < env`, on the raw
/// word. The float draw is `(x >> 11)·2⁻⁵³`, exact, and so is `env·2⁵³`
/// (a power-of-two scale), so the draw is below `env` exactly when the
/// integer `x >> 11` is below `⌈env·2⁵³⌉`. The saturating cast sends NaN
/// and negative rates to 0 (never probe) and rates ≥ 1 to 2⁵³ (always),
/// as the float compare does. The same one word is consumed per test.
#[derive(Clone, Copy)]
pub(crate) struct ProbeRate(u64);

impl ProbeRate {
    const ONE: u64 = 1 << 53;

    pub(crate) fn new(env: f64) -> Self {
        ProbeRate(((env * Self::ONE as f64).ceil() as u64).min(Self::ONE))
    }

    /// Whether the draw `word` probes.
    #[inline]
    pub(crate) fn accepts(self, word: u64) -> bool {
        (word >> 11) < self.0
    }

    /// Draws one word and tests it.
    #[inline]
    pub(crate) fn hit(self, rng: &mut SmallRng) -> bool {
        self.accepts(rng.next_u64())
    }
}

/// The probe sweep of one row: each contact is probed with probability
/// `rate` (one draw per contact, one `Probe` per hit), and probed contacts
/// found offline are collected into `stale` for repair after the walk. A
/// contact is read only when its draw hits, so a sweep that probes nothing
/// touches no slot of the row.
#[inline]
pub(crate) fn probe_row(
    row: &[PeerId],
    rate: ProbeRate,
    live: &Liveness,
    rng: &mut SmallRng,
    metrics: &mut Metrics,
    stale: &mut Vec<PeerId>,
) {
    stale.clear();
    for c in row {
        if rate.hit(rng) {
            metrics.record(MessageKind::Probe);
            if !live.is_online(*c) {
                stale.push(*c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(xs: &[u32]) -> Vec<PeerId> {
        xs.iter().map(|&x| PeerId(x)).collect()
    }

    #[test]
    fn rows_are_fixed_stride_and_peer_contiguous() {
        let mut a = RowArena::<4>::with_capacity(3, 4);
        a.begin_peer();
        a.push_row(&ids(&[1, 2, 3, 4]));
        a.push_row(&ids(&[5]));
        a.begin_peer(); // a table may have no rows at all
        a.begin_peer();
        a.push_row(&[]);
        a.push_row(&ids(&[9, 8]));
        assert_eq!((a.lens.capacity(), a.slots.capacity()), (4, 4 * 4), "sized exactly");

        let (p0, p1, p2) = (PeerId(0), PeerId(1), PeerId(2));
        assert_eq!((a.row_count(p0), a.row_count(p1), a.row_count(p2)), (2, 0, 2));
        assert_eq!(a.slots.len(), 4 * 4, "every row owns exactly one stride");
        assert_eq!(a.rows(p0).collect::<Vec<_>>(), [&ids(&[1, 2, 3, 4])[..], &ids(&[5])]);
        assert_eq!(a.rows(p1).count(), 0);
        assert_eq!(a.row(p2, 0), &[]);
        assert_eq!(a.row(p2, 1), &ids(&[9, 8])[..]);
        assert_eq!(a.row(p2, 7), &[], "a row past the table reads as empty");
        assert_eq!((a.entries(p0), a.entries(p1), a.entries(p2)), (5, 0, 2));
    }

    #[test]
    fn repair_and_push_are_length_edits() {
        let mut a = RowArena::<4>::with_capacity(1, 1);
        a.begin_peer();
        a.push_row(&ids(&[1, 2, 3, 4]));
        let p = PeerId(0);
        a.repair(p, 0, PeerId(2), Some(PeerId(7))); // replace in place at exactly K
        assert_eq!(a.row(p, 0), &ids(&[1, 7, 3, 4])[..]);
        a.repair(p, 0, PeerId(1), None); // swap-remove pulls the last contact in
        assert_eq!(a.row(p, 0), &ids(&[4, 7, 3])[..]);
        a.repair(p, 0, PeerId(99), None); // absent: no-op
        a.repair(p, 0, PeerId(3), None); // removing the last slot just shortens
        assert_eq!(a.row(p, 0), &ids(&[4, 7])[..]);
        a.push(p, 0, PeerId(5));
        assert_eq!(a.row(p, 0), &ids(&[4, 7, 5])[..]);
        a.repair(p, 0, PeerId(4), None);
        a.repair(p, 0, PeerId(5), None);
        a.repair(p, 0, PeerId(7), None);
        assert_eq!(a.row(p, 0), &[], "drained");
        a.push(p, 0, PeerId(6)); // revive
        assert_eq!(a.row(p, 0), &ids(&[6])[..]);

        let mut s = StackRow::<4>::copy_of(&ids(&[1, 2, 3]));
        s.repair_at(0, None);
        assert_eq!(s.as_slice(), &ids(&[3, 2])[..]);
        s.repair_at(1, Some(PeerId(9)));
        assert_eq!(s.as_slice(), &ids(&[3, 9])[..]);
    }

    /// The draw `rng.random::<f64>() < env` would make from `word`.
    fn float_accepts(word: u64, env: f64) -> bool {
        ((word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < env
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// At every rate edge case and at arbitrary rates, the integer
        /// test agrees with the float draw on the words either side of its
        /// threshold and on an arbitrary word.
        #[test]
        fn probe_rate_accepts_exactly_what_the_float_draw_does(
            k in 0u64..=(1 << 53),
            word in any::<u64>(),
            bits in any::<u64>(),
            unit in 0.0..1.0f64,
        ) {
            let grid = k as f64 / (1u64 << 53) as f64;
            let envs = [
                0.0,
                -0.0,
                -1.0,
                5e-324,
                grid,
                grid.next_down(),
                grid.next_up(),
                0.011,
                1.0 - f64::EPSILON / 2.0,
                1.0,
                1.5,
                f64::INFINITY,
                f64::NAN,
                f64::from_bits(bits),
                unit,
            ];
            for env in envs {
                let rate = ProbeRate::new(env);
                // The first word the threshold rejects; 0 (wrapped) when it
                // rejects none.
                let edge = rate.0 << 11;
                for w in [edge.wrapping_sub(1), edge, edge.wrapping_add(1), word] {
                    prop_assert_eq!(rate.accepts(w), float_accepts(w, env), "env {env:e}, word {w:#x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "push into a full row")]
    fn push_into_a_full_row_is_a_bug() {
        let mut a = RowArena::<2>::with_capacity(1, 1);
        a.begin_peer();
        a.push_row(&ids(&[1, 2]));
        a.push(PeerId(0), 0, PeerId(3));
    }
}
