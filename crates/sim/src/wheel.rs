//! Hierarchical timing wheel: the O(1)-amortized backend of
//! [`crate::EventQueue`].
//!
//! A binary-heap future-event list pays O(log n) comparisons on every
//! push/pop. With the background-event refactor the queue carries ~2
//! perpetual events per active peer, so at 100k+ peers every message
//! arrival was paying for the whole resident population. The wheel makes
//! scheduling and dispatch cost proportional to *active work*.
//!
//! [`LEVELS`] wheel levels of [`SLOTS`] slots each: level `l` buckets time
//! by bits `[6l, 6(l+1))` of the absolute microsecond timestamp, so level
//! 0 resolves single microseconds and level 10 holds bits 60–63. The 11
//! levels span every `u64` timestamp, so the wheel has no horizon and no
//! second structure for far-future events. Insertion picks the *lowest*
//! level at which the event shares all higher time bits with the cursor,
//! which keeps every occupied slot strictly ahead of the cursor — no
//! wrap-around ambiguity. As the cursor advances into a higher-level
//! bucket, that bucket *cascades*: its entries redistribute to lower
//! levels (each entry cascades at most `LEVELS - 1` times in its life).
//!
//! The pop order is the exact total order the heap backend produced —
//! ascending `(time, seq)` — which the conformance proptest in
//! `crates/sim/tests/properties.rs` pins against that binary-heap queue
//! (kept there as the oracle) for arbitrary schedules, same-instant ties,
//! cascading boundaries and far-future times. Per-level occupancy bitmaps
//! (one `u64` per level, since a level has 64 slots) plus per-slot minima
//! make `peek` O(levels) without touching any bucket.
//!
//! **Entries live in one arena; buckets are index lists.** Every entry in
//! the wheel (ready run included) is a node of one `Vec` arena, and a
//! bucket is a head/tail pair of an intrusive singly linked list through
//! the nodes. Scheduling takes a node off the arena's free list, a cascade
//! relinks node indices into lower buckets without moving an entry, and a
//! pop returns its node to the free list. So the wheel's buffers are the
//! arena — as many nodes as the most entries ever pending at once, grown
//! by an eighth at a time — plus a ready run of `u32` indices and a fixed
//! 11 KiB bucket table, whatever the shape of the schedule. (Per-bucket
//! buffers instead keep the largest batch each bucket ever held: a
//! same-microsecond batch of timeouts cascading through a level leaves a
//! batch-sized buffer behind in every slot it passes.) The level-0 refill
//! collects its bucket's indices into the ready run and sorts them by
//! `seq`, which is O(n) on the already-ordered common case.

use std::collections::VecDeque;
use std::mem::size_of;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level (64, so one `u64` bitmap covers a level).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `l` buckets bits `[6l, 6(l+1))` of the timestamp,
/// and the top level's four bits (60–63) complete the `u64`.
const LEVELS: usize = 64_usize.div_ceil(SLOT_BITS as usize);
/// End of a node list (bucket or free list).
const NIL: u32 = u32::MAX;
/// Fewest nodes the arena grows by at once.
const MIN_GROWTH: usize = 64;

/// A popped entry: its absolute due time in µs and its event.
#[derive(Clone, Debug)]
pub(crate) struct Entry<E> {
    pub(crate) time: u64,
    pub(crate) event: E,
}

/// One arena slot: a pending entry and the next node of its bucket list,
/// or (event `None`) a free node and the next free one.
struct Node<E> {
    time: u64,
    seq: u64,
    event: Option<E>,
    next: u32,
}

/// A bucket's node list (`head == NIL` when empty) and its minimum
/// pending time (`u64::MAX` when empty) — exact `peek` without walking it.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    min: u64,
}

const EMPTY_BUCKET: Bucket = Bucket { head: NIL, tail: NIL, min: u64::MAX };

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
/// * Every node is on exactly one list: a bucket's, the ready run, or the
///   free list.
pub(crate) struct TimingWheel<E> {
    /// Node arena: every entry in the buckets or the ready run.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// `LEVELS × SLOTS` buckets, flattened (`level * SLOTS + slot`).
    buckets: Vec<Bucket>,
    /// Per-level occupancy bitmap (bit `s` ⇔ bucket `l * SLOTS + s`
    /// non-empty).
    occupied: [u64; LEVELS],
    /// Nodes due exactly at `cur`, in ascending `seq` order.
    ready: VecDeque<u32>,
    /// The cursor: absolute µs the wheel is positioned at.
    cur: u64,
    /// Pending entries across ready run and wheel.
    len: usize,
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY_BUCKET; LEVELS * SLOTS],
            occupied: [0; LEVELS],
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

    /// Heap bytes held: the node arena and ready run at their capacity,
    /// and the fixed bucket table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node<E>>()
            + self.ready.capacity() * size_of::<u32>()
            + self.buckets.capacity() * size_of::<Bucket>()
    }

    /// Schedules an entry. The caller guarantees `time >= cur` (enforced by
    /// the [`crate::EventQueue`] wrapper's not-into-the-past assert).
    pub(crate) fn schedule(&mut self, time: u64, seq: u64, event: E) {
        debug_assert!(time >= self.cur);
        self.len += 1;
        let i = self.alloc(Node { time, seq, event: Some(event), next: NIL });
        self.place(i);
    }

    /// Earliest pending `(time)` without mutating anything.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        if !self.ready.is_empty() {
            return Some(self.cur);
        }
        let l = self.occupied.iter().position(|&bits| bits != 0)?;
        let s = self.occupied[l].trailing_zeros() as usize;
        Some(self.buckets[l * SLOTS + s].min)
    }

    /// Pops the globally earliest entry in `(time, seq)` order, advancing
    /// the cursor to its due time.
    pub(crate) fn pop(&mut self) -> Option<Entry<E>> {
        if self.ready.is_empty() {
            self.refill_ready();
        }
        let i = self.ready.pop_front()?;
        self.len -= 1;
        let node = &mut self.nodes[i as usize];
        let event = node.event.take().expect("a ready node holds an entry");
        node.next = self.free;
        self.free = i;
        debug_assert_eq!(node.time, self.cur);
        Some(Entry { time: node.time, event })
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
    }

    /// Stores `node` in the arena — at the free list's head, else in a new
    /// slot. The arena grows by an eighth (at least [`MIN_GROWTH`] nodes),
    /// so its capacity stays within 1.125 × the most entries ever pending.
    fn alloc(&mut self, node: Node<E>) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            return i;
        }
        if self.nodes.len() == self.nodes.capacity() {
            self.nodes.reserve_exact((self.nodes.len() / 8).max(MIN_GROWTH));
        }
        let i = u32::try_from(self.nodes.len()).expect("fewer than 2^32 pending events");
        self.nodes.push(node);
        i
    }

    /// Files node `i` relative to the current cursor: the ready run for
    /// `time == cur`, else the tail of the lowest wheel level's bucket
    /// sharing all higher time bits with the cursor.
    fn place(&mut self, i: u32) {
        let Node { time, seq, .. } = self.nodes[i as usize];
        debug_assert!(time >= self.cur);
        let diff = time ^ self.cur;
        if diff == 0 {
            // Same instant as the cursor: belongs to the ready run. Direct
            // schedules arrive in ascending seq (the global counter), but
            // cascaded re-files can interleave, so keep the run sorted.
            let nodes = &self.nodes;
            let pos = self.ready.partition_point(|&r| nodes[r as usize].seq < seq);
            self.ready.insert(pos, i);
            return;
        }
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        debug_assert!(
            slot as u64 > (self.cur >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)
                || level == 0
        );
        self.nodes[i as usize].next = NIL;
        let b = &mut self.buckets[level * SLOTS + slot];
        if b.head == NIL {
            b.head = i;
            self.occupied[level] |= 1 << slot;
        } else {
            self.nodes[b.tail as usize].next = i;
        }
        b.tail = i;
        b.min = b.min.min(time);
    }

    /// Empties bucket `(level, slot)`, clearing its bitmap bit, and returns
    /// what it held: the head of its node list and its minimum time.
    fn take_bucket(&mut self, level: usize, slot: usize) -> Bucket {
        self.occupied[level] &= !(1 << slot);
        std::mem::replace(&mut self.buckets[level * SLOTS + slot], EMPTY_BUCKET)
    }

    /// Empties bucket `(level, slot)` and re-files every node against the
    /// current cursor (always at a lower level, or into the ready run).
    fn cascade_bucket(&mut self, level: usize, slot: usize) {
        let mut i = self.take_bucket(level, slot).head;
        while i != NIL {
            let next = self.nodes[i as usize].next;
            self.place(i);
            i = next;
        }
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

    /// Positions the cursor at the earliest pending time and fills the
    /// ready run with that instant's entries. No-op on an empty queue.
    fn refill_ready(&mut self) {
        while self.ready.is_empty() {
            let Some(level) = self.occupied.iter().position(|&bits| bits != 0) else { return };
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // A level-0 slot is one exact microsecond: its list becomes
                // the new ready run. Nodes are seq-ordered except when a
                // cascade interleaved with direct schedules, so sort (O(n)
                // on the already-sorted common case).
                let bucket = self.take_bucket(0, slot);
                debug_assert!(bucket.min >= self.cur);
                self.cur = bucket.min;
                let mut i = bucket.head;
                while i != NIL {
                    debug_assert_eq!(self.nodes[i as usize].time, bucket.min);
                    self.ready.push_back(i);
                    i = self.nodes[i as usize].next;
                }
                let nodes = &self.nodes;
                self.ready.make_contiguous().sort_unstable_by_key(|&r| nodes[r as usize].seq);
                return;
            }
            // Advance to the start of the earliest occupied higher-level
            // bucket — the cursor's bits above this level, the slot at it,
            // zeros below — and cascade it; the loop then resolves the
            // lower levels (or a cascade fills the ready run). Shifting the
            // level's digits down and back up never overflows, where a
            // `1 << 6(level + 1)` span mask would at the top level.
            let shift = SLOT_BITS * level as u32;
            let bucket_start = ((self.cur >> shift) & !(SLOTS as u64 - 1) | slot as u64) << shift;
            self.cur = self.cur.max(bucket_start);
            self.cascade_bucket(level, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops up to `n` entries of a wheel whose events are their own
    /// sequence numbers, as `(time, seq)` pairs.
    fn drain_n(w: &mut TimingWheel<u64>, n: usize) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop()).take(n).map(|e| (e.time, e.event)).collect()
    }

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        drain_n(w, usize::MAX)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        let times = [5u64, 1, 70, 1, 4096, 63, 64, 5, 1 << 37, 0];
        for (seq, &t) in times.iter().enumerate() {
            w.schedule(t, seq as u64, seq as u64);
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
    fn times_up_to_u64_max_pop_in_time_then_seq_order() {
        // Times at and around the top level's bits (60–63) and the 2^36
        // and 2^60 level boundaries, with same-instant ties. Popping them
        // walks the cursor across both boundaries and up to u64::MAX; the
        // refill's bucket start at level 10 must not overflow.
        let mut times = vec![u64::MAX, u64::MAX - 1, u64::MAX, u64::MAX - 64, u64::MAX - (1 << 60)];
        for edge in [1u64 << 36, 1 << 60] {
            times.extend([edge - 1, edge, edge + 1, edge, edge + 100]);
        }
        times.extend([7, 1 << 40, (1 << 60) + (1 << 36), 3 << 60]);
        let mut w = TimingWheel::new();
        for (seq, &t) in times.iter().enumerate() {
            w.schedule(t, seq as u64, seq as u64);
        }
        let mut expect: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        expect.sort_unstable();
        // Pop through 2^60 + 1, schedule a same-time tie and a later entry
        // from there, then drain the rest.
        let mut popped = drain_n(&mut w, 11);
        let cur = popped.last().unwrap().0;
        assert!(cur > 1 << 60, "the cursor crossed both boundaries");
        let seq = times.len() as u64;
        w.schedule(cur, seq, seq);
        w.schedule(u64::MAX, seq + 1, seq + 1);
        expect.extend([(cur, seq), (u64::MAX, seq + 1)]);
        expect.sort_unstable();
        popped.extend(drain(&mut w));
        assert_eq!(popped, expect);
        assert!(w.is_empty());
    }

    #[test]
    fn advance_cur_to_the_top_level_keeps_order() {
        let mut w = TimingWheel::new();
        w.schedule(u64::MAX, 0, "last");
        w.schedule((1 << 63) + 5, 1, "b");
        w.schedule(1 << 63, 2, "a");
        w.advance_cur(1 << 63);
        assert_eq!(w.peek_time(), Some(1 << 63));
        let order: Vec<&str> = std::iter::from_fn(|| w.pop()).map(|e| e.event).collect();
        assert_eq!(order, ["a", "b", "last"]);
    }

    /// Bytes of the wheel's entry buffers — arena and ready run: all of its
    /// heap but the fixed bucket table.
    fn buffer_bytes<E>(w: &TimingWheel<E>) -> usize {
        w.heap_bytes() - LEVELS * SLOTS * size_of::<Bucket>()
    }

    /// Pops everything due before `until` µs, handing each entry to
    /// `follow_up` (which may schedule more), and returns the high-water
    /// pending count and the high-water buffer bytes seen after each pop.
    fn run_until<E>(
        w: &mut TimingWheel<E>,
        until: u64,
        mut follow_up: impl FnMut(&mut TimingWheel<E>, Entry<E>),
    ) -> (usize, usize) {
        let (mut pending, mut bytes) = (w.len(), buffer_bytes(w));
        while w.peek_time().is_some_and(|t| t < until) {
            let e = w.pop().expect("peeked");
            follow_up(w, e);
            pending = pending.max(w.len());
            bytes = bytes.max(buffer_bytes(w));
        }
        (pending, bytes)
    }

    /// The bound both population shapes below are held to: buffers within
    /// a quarter of what the most entries ever pending at once occupy.
    fn assert_buffers_bounded<E>(pending: usize, bytes: usize) {
        let bound = pending * size_of::<Node<E>>() * 5 / 4;
        assert!(bytes <= bound, "buffers reached {bytes} B for {pending} pending entries");
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
        let (pending, bytes) = run_until(&mut w, 40_000_000, |w, e| {
            w.schedule(e.time + 1_000_000, seq, ());
            seq += 1;
        });
        assert_eq!(w.len(), LIVE as usize);
        assert_buffers_bounded::<()>(pending, bytes);
    }

    #[test]
    fn timeout_batches_keep_bucket_buffers_proportional_to_live_entries() {
        // The query-timeout shape: once a second a round arms a batch of
        // timeouts on one microsecond 8 s out, under a population of
        // per-entry ticks jittered across the second. A batch cascades as
        // one bucket through every level; buffers recycled per level keep
        // the batch's size, and every bucket of a level sooner or later
        // takes one of them, so the recycled buffers end up holding tens of
        // batches for the eight pending.
        const TICKS: u64 = 2_000;
        const BATCH: u64 = 370;
        const ROUND: u8 = 0;
        const TICK: u8 = 1;
        const TIMEOUT: u8 = 2;
        let mut w = TimingWheel::new();
        w.schedule(40, 0, ROUND);
        for i in 1..=TICKS {
            w.schedule((i * 2_654_435_761) % 1_000_000, i, TICK);
        }
        let mut seq = TICKS + 1;
        let (pending, bytes) = run_until(&mut w, 40_000_000, |w, e| {
            let mut at = |w: &mut TimingWheel<u8>, delay: u64, kind: u8| {
                w.schedule(e.time + delay, seq, kind);
                seq += 1;
            };
            match e.event {
                ROUND => {
                    for _ in 0..BATCH {
                        at(w, 8_000_000, TIMEOUT);
                    }
                    at(w, 1_000_000, ROUND);
                }
                TICK => at(w, 1_000_000, TICK),
                _ => {}
            }
        });
        assert!(pending >= (TICKS + 8 * BATCH) as usize, "eight batches were pending at once");
        assert_buffers_bounded::<u8>(pending, bytes);
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
