//! Hierarchical timing wheel: the O(1)-amortized backend of
//! [`crate::EventQueue`].
//!
//! A `BinaryHeap` future-event list pays O(log n) comparisons on every
//! push/pop. With the background-event refactor the queue carries ~2
//! perpetual events per active peer, so at 100k+ peers every message
//! arrival was paying for the whole resident population. The wheel makes
//! scheduling and dispatch cost proportional to *active work*:
//!
//! * **Near future** — [`LEVELS`] wheel levels of [`SLOTS`] slots each.
//!   Level `l` buckets time by bits `[6l, 6(l+1))` of the absolute
//!   microsecond timestamp, so level 0 resolves single microseconds and the
//!   whole wheel spans `2^36` µs (~19 virtual hours). Insertion picks the
//!   *lowest* level at which the event shares all higher time bits with the
//!   cursor, which keeps every occupied slot strictly ahead of the cursor —
//!   no wrap-around ambiguity. As the cursor advances into a higher-level
//!   bucket, that bucket *cascades*: its entries redistribute to lower
//!   levels (each entry cascades at most `LEVELS - 1` times in its life).
//! * **Far future** — events beyond the wheel horizon wait in an overflow
//!   `BinaryHeap` and migrate into the wheel in whole top-level-bucket
//!   groups when the cursor reaches their epoch.
//!
//! The pop order is the exact total order the heap backend produced —
//! ascending `(time, seq)` — which the conformance proptest in
//! `crates/sim/tests/properties.rs` pins against that `BinaryHeap` queue
//! (kept there as the oracle) for arbitrary schedules, same-instant ties,
//! cascading boundaries and overflow times. Per-level occupancy bitmaps
//! (one `u64` per level, since a level has 64 slots) plus per-slot minima
//! make `peek` O(levels) without touching any bucket.
//!
//! **Bucket buffers are recycled, not kept.** A drained bucket hands its
//! `Vec` to its level's free list and the next bucket of that level to
//! turn non-empty takes it back, so the buffers that exist number the
//! *concurrently* non-empty buckets (a handful per level under a periodic
//! population), each at the size a bucket of that level reaches — not one
//! high-water buffer per slot the cursor ever visited. Free lists are per
//! level because bucket sizes are: a level-3 bucket holds 262 ms of
//! events, a level-0 bucket one microsecond's.

use std::collections::{BinaryHeap, VecDeque};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level (64, so one `u64` bitmap covers a level).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `l` buckets bits `[6l, 6(l+1))` of the timestamp.
const LEVELS: usize = 6;
/// Total bits the wheel resolves; times differing from the cursor above
/// this go to the overflow heap.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// A scheduled entry: absolute due time in µs plus the global sequence
/// number that makes the pop order total.
#[derive(Clone, Debug)]
pub(crate) struct Entry<E> {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

// Overflow-heap ordering: min-heap by (time, seq) — BinaryHeap is a
// max-heap, so the comparison is inverted.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The wheel proper. Pure priority-queue mechanics over `(time, seq)`;
/// clock semantics (`now`, scheduling asserts) live in
/// [`crate::EventQueue`].
///
/// # Invariants (at public-call boundaries)
///
/// * Every pending entry has `time >= cur`; entries with `time == cur` are
///   exactly the `ready` run (sorted by `seq`).
/// * Every occupied wheel slot is strictly ahead of the cursor at its
///   level, so the first occupied level (bottom-up) holds the earliest
///   pending time and a level-0 slot holds entries of one exact µs.
/// * Overflow entries differ from `cur` in bits `>= WHEEL_BITS`.
pub(crate) struct TimingWheel<E> {
    /// `LEVELS × SLOTS` buckets, flattened (`level * SLOTS + slot`). An
    /// empty bucket owns no buffer.
    slots: Vec<Vec<Entry<E>>>,
    /// Per level, the (empty) buffers of drained buckets, waiting for the
    /// next bucket of that level to turn non-empty.
    free: [Vec<Vec<Entry<E>>>; LEVELS],
    /// Per-level occupancy bitmap (bit `s` ⇔ `slots[l * SLOTS + s]`
    /// non-empty).
    occupied: [u64; LEVELS],
    /// Per-slot minimum pending time (`u64::MAX` when empty) — exact
    /// `peek` without draining.
    slot_min: Vec<u64>,
    /// Far-future events, beyond the wheel horizon.
    overflow: BinaryHeap<Entry<E>>,
    /// Entries due exactly at `cur`, in ascending `seq` order.
    ready: VecDeque<Entry<E>>,
    /// The cursor: absolute µs the wheel is positioned at.
    cur: u64,
    /// Pending entries across ready + wheel + overflow.
    len: usize,
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            slots: std::iter::repeat_with(Vec::new).take(LEVELS * SLOTS).collect(),
            free: std::array::from_fn(|_| Vec::new()),
            occupied: [0; LEVELS],
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cur: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an entry. The caller guarantees `time >= cur` (enforced by
    /// the [`crate::EventQueue`] wrapper's not-into-the-past assert).
    pub(crate) fn schedule(&mut self, time: u64, seq: u64, event: E) {
        self.len += 1;
        self.place(Entry { time, seq, event });
    }

    /// Earliest pending `(time)` without mutating anything.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        if !self.ready.is_empty() {
            return Some(self.cur);
        }
        for l in 0..LEVELS {
            if self.occupied[l] != 0 {
                let s = self.occupied[l].trailing_zeros() as usize;
                return Some(self.slot_min[l * SLOTS + s]);
            }
        }
        self.overflow.peek().map(|e| e.time)
    }

    /// Pops the globally earliest entry in `(time, seq)` order, advancing
    /// the cursor to its due time.
    pub(crate) fn pop(&mut self) -> Option<Entry<E>> {
        if self.ready.is_empty() {
            self.refill_ready();
        }
        let e = self.ready.pop_front()?;
        self.len -= 1;
        debug_assert_eq!(e.time, self.cur);
        Some(e)
    }

    /// Moves the cursor to `to` (µs). The caller guarantees no pending
    /// entry is strictly earlier than `to`; entries due exactly at `to`
    /// move to the ready run.
    pub(crate) fn advance_cur(&mut self, to: u64) {
        if to <= self.cur {
            return;
        }
        debug_assert!(self.ready.is_empty(), "ready entries would be skipped");
        debug_assert!(self.peek_time().is_none_or(|t| t >= to), "pending entries before {to}");
        self.cur = to;
        // Restore the strictly-ahead invariant: buckets whose range now
        // includes the cursor cascade down (their entries are all >= cur).
        self.cascade_cursor_buckets();
        // Overflow entries that entered the wheel's epoch migrate in.
        self.drain_overflow_epoch();
    }

    /// Files one entry relative to the current cursor: the ready run for
    /// `time == cur`, the lowest wheel level sharing all higher time bits
    /// with the cursor, or the overflow heap beyond the wheel horizon.
    fn place(&mut self, e: Entry<E>) {
        debug_assert!(e.time >= self.cur);
        let diff = e.time ^ self.cur;
        if diff == 0 {
            // Same instant as the cursor: belongs to the ready run. Direct
            // schedules arrive in ascending seq (the global counter), but
            // cascaded re-files can interleave, so keep the run sorted.
            let pos = self.ready.partition_point(|r| r.seq < e.seq);
            if pos == self.ready.len() {
                self.ready.push_back(e);
            } else {
                self.ready.insert(pos, e);
            }
            return;
        }
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(e);
            return;
        }
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((e.time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        debug_assert!(
            slot as u64 > (self.cur >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)
                || level == 0
        );
        let idx = level * SLOTS + slot;
        if self.occupied[level] & (1 << slot) == 0 {
            self.occupied[level] |= 1 << slot;
            if let Some(buf) = self.free[level].pop() {
                self.slots[idx] = buf;
            }
        }
        self.slot_min[idx] = self.slot_min[idx].min(e.time);
        self.slots[idx].push(e);
    }

    /// Empties bucket `(level, slot)`, clearing its bitmap bit and minimum,
    /// and returns its entries; the caller hands the drained buffer back
    /// through [`Self::recycle`].
    fn take_bucket(&mut self, level: usize, slot: usize) -> Vec<Entry<E>> {
        let idx = level * SLOTS + slot;
        self.occupied[level] &= !(1 << slot);
        self.slot_min[idx] = u64::MAX;
        std::mem::take(&mut self.slots[idx])
    }

    fn recycle(&mut self, level: usize, buf: Vec<Entry<E>>) {
        debug_assert!(buf.is_empty());
        self.free[level].push(buf);
    }

    /// Empties bucket `(level, slot)` and re-files every entry against the
    /// current cursor (always at a lower level, or into the ready run).
    fn cascade_bucket(&mut self, level: usize, slot: usize) {
        let mut bucket = self.take_bucket(level, slot);
        for e in bucket.drain(..) {
            self.place(e);
        }
        self.recycle(level, bucket);
    }

    /// Cascades every bucket whose time range contains the cursor (needed
    /// after an externally driven cursor advance). Entries re-file strictly
    /// ahead of the cursor or into the ready run, so one bottom-up pass
    /// suffices.
    fn cascade_cursor_buckets(&mut self) {
        for level in 0..LEVELS {
            let cs = ((self.cur >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            if self.occupied[level] & (1 << cs) != 0 {
                self.cascade_bucket(level, cs);
            }
        }
    }

    /// Migrates overflow entries sharing the cursor's top-level epoch into
    /// the wheel (the heap pops them earliest-first, so same-time entries
    /// re-file in seq order).
    fn drain_overflow_epoch(&mut self) {
        while self.overflow.peek().is_some_and(|e| e.time >> WHEEL_BITS == self.cur >> WHEEL_BITS) {
            let e = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }

    /// Positions the cursor at the earliest pending time and fills the
    /// ready run with that instant's entries. No-op on an empty queue.
    fn refill_ready(&mut self) {
        loop {
            if !self.ready.is_empty() {
                return; // a cascade re-filed entries due exactly at `cur`
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty: pull the next whole top-level epoch from the
                // overflow heap (partial pulls would let later schedules
                // into the wheel overtake still-parked overflow entries).
                let Some(top) = self.overflow.peek() else { return };
                self.cur = self.cur.max((top.time >> WHEEL_BITS) << WHEEL_BITS);
                self.drain_overflow_epoch();
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // A level-0 slot is one exact microsecond: drain it as the
                // new ready run. Entries are seq-sorted except when a
                // cascade interleaved with direct schedules, so sort (O(n)
                // on the already-sorted common case).
                let time = self.slot_min[slot];
                debug_assert!(time >= self.cur);
                self.cur = time;
                let mut run = self.take_bucket(0, slot);
                run.sort_unstable_by_key(|e| e.seq);
                debug_assert!(run.iter().all(|e| e.time == time));
                self.ready.extend(run.drain(..));
                self.recycle(0, run);
                return;
            }
            // Advance into the earliest occupied higher-level bucket and
            // cascade it; the loop then resolves the lower levels.
            let span = 1u64 << (SLOT_BITS * (level as u32 + 1));
            let bucket_start =
                (self.cur & !(span - 1)) | ((slot as u64) << (SLOT_BITS * level as u32));
            self.cur = self.cur.max(bucket_start);
            self.cascade_bucket(level, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E: Clone>(w: &mut TimingWheel<E>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop()).map(|e| (e.time, e.seq)).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        let times = [5u64, 1, 70, 1, 4096, 63, 64, 5, 1 << 37, 0];
        for (seq, &t) in times.iter().enumerate() {
            w.schedule(t, seq as u64, ());
        }
        let mut expect: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut w), expect);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut w = TimingWheel::new();
        w.schedule(10, 0, "a");
        w.schedule(1_000_000, 1, "m");
        assert_eq!(w.pop().unwrap().event, "a"); // cur = 10
        w.schedule(10, 2, "b"); // same instant as cursor → ready run
        w.schedule(11, 3, "c");
        assert_eq!(w.pop().unwrap().event, "b");
        assert_eq!(w.pop().unwrap().event, "c");
        assert_eq!(w.pop().unwrap().event, "m");
        assert!(w.pop().is_none());
    }

    #[test]
    fn peek_is_exact_across_levels_and_overflow() {
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_time(), None);
        w.schedule(1 << 38, 0, ());
        assert_eq!(w.peek_time(), Some(1 << 38));
        w.schedule(5_000, 1, ());
        assert_eq!(w.peek_time(), Some(5_000));
        w.schedule(17, 2, ());
        assert_eq!(w.peek_time(), Some(17));
        w.pop();
        assert_eq!(w.peek_time(), Some(5_000));
    }

    #[test]
    fn advance_cur_cascades_and_preserves_boundary_entries() {
        let mut w = TimingWheel::new();
        // Filed at a high level while the cursor is far away…
        w.schedule(1_000_000, 0, "boundary");
        w.schedule(1_000_001, 1, "after");
        // …then the cursor lands exactly on it without popping.
        w.advance_cur(1_000_000);
        assert_eq!(w.peek_time(), Some(1_000_000));
        // A later-seq entry at the same instant pops after the parked one.
        w.schedule(1_000_000, 2, "late");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop()).map(|e| e.event).collect();
        assert_eq!(order, ["boundary", "late", "after"]);
    }

    #[test]
    fn advance_cur_into_stale_bucket_range_keeps_order() {
        let mut w = TimingWheel::new();
        // Entry filed at a high level relative to cur = 0.
        w.schedule(5_000, 7, "old-seq");
        // The cursor advances deep into that bucket's range; a fresh entry
        // at the same time then files at a lower level. Both must pop in
        // seq order.
        w.advance_cur(4_995);
        w.schedule(5_000, 9, "new-seq");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop()).map(|e| e.event).collect();
        assert_eq!(order, ["old-seq", "new-seq"]);
    }

    #[test]
    fn overflow_epoch_migrates_whole_groups() {
        let mut w = TimingWheel::new();
        let epoch = 1u64 << WHEEL_BITS;
        w.schedule(epoch + 100, 0, "x");
        w.schedule(epoch + 5, 1, "y");
        w.schedule(epoch + 100, 2, "z");
        // All three sit in overflow; popping must still be (time, seq).
        let order: Vec<&str> = std::iter::from_fn(|| w.pop()).map(|e| e.event).collect();
        assert_eq!(order, ["y", "x", "z"]);
    }

    /// Entries' worth of buffer the wheel's buckets hold, in use or free.
    fn bucket_capacity<E>(w: &TimingWheel<E>) -> usize {
        w.slots.iter().chain(w.free.iter().flatten()).map(Vec::capacity).sum()
    }

    #[test]
    fn periodic_population_keeps_bucket_buffers_proportional_to_live_entries() {
        // The engine's background shape: every entry reschedules itself one
        // second on. Over 40 s the cursor visits every level-2 and level-3
        // slot; a wheel that left each visited bucket its high-water buffer
        // would end up holding ~30x the live entries.
        const LIVE: u64 = 2_000;
        let mut w = TimingWheel::new();
        for i in 0..LIVE {
            w.schedule(i * 500, i, ());
        }
        let mut seq = LIVE;
        let mut high_water = 0;
        while w.peek_time().is_some_and(|t| t < 40_000_000) {
            let e = w.pop().expect("peeked");
            w.schedule(e.time + 1_000_000, seq, ());
            seq += 1;
            high_water = high_water.max(bucket_capacity(&w));
        }
        assert_eq!(w.len(), LIVE as usize);
        assert!(
            high_water <= 6 * LIVE as usize,
            "bucket buffers reached {high_water} entries for {LIVE} live ones"
        );
    }

    #[test]
    fn len_tracks_all_regions() {
        let mut w = TimingWheel::new();
        w.schedule(0, 0, ());
        w.schedule(100, 1, ());
        w.schedule(1 << 40, 2, ());
        assert_eq!(w.len(), 3);
        w.pop();
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
    }
}
