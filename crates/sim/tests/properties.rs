//! Property tests for the simulation kernel.

use pdht_sim::{EventQueue, Histogram, Scheduled};
use pdht_types::SimTime;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Manual ordering: min-heap by (time, seq). BinaryHeap is a max-heap, so
// invert the comparison.
impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The original `BinaryHeap`-backed queue, kept as the oracle the timing
/// wheel's pop order is pinned against: same `(time, seq)` total order as
/// [`EventQueue`], O(log n) per operation over every resident event.
struct HeapEventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> HeapEventQueue<E> {
    fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at:?} < {:?})", self.now);
        self.heap.push(HeapEntry { time: at, seq: self.seq, event });
        self.seq += 1;
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            Scheduled { time: e.time, event: e.event }
        })
    }

    fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot rewind the clock");
        if let Some(t) = self.peek_time() {
            assert!(t >= at, "events pending before {at:?}");
        }
        self.now = at;
    }
}

#[test]
fn heap_backend_matches_wheel_on_a_mixed_schedule() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let times = [3u64, 0, 0, 65, 64, 4095, 4096, 1_000_000, 3, (1 << 37) + 5, (1 << 37) + 5, 12];
    for (i, &t) in times.iter().enumerate() {
        wheel.schedule_at(SimTime::from_micros(t), i);
        heap.schedule_at(SimTime::from_micros(t), i);
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// Times that stress every region of the timing wheel: slot boundaries at
/// every level (powers of 64 ± 1), same-instant ties, and far-future
/// values on the top levels, up to the end of the `u64` µs range (level
/// `l` holds bits `6l..6l + 6`, so 2^36 is level 6 and 2^60 level 10).
fn wheel_stress_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Dense near-future times (level-0/1 slots, heavy tie pressure).
        0u64..200,
        // Around each level's cascading boundary (64^1 … 64^5).
        62u64..130,
        4_094u64..4_162,
        262_142u64..262_210,
        16_777_214u64..16_777_282,
        ((1u64 << 30) - 2)..((1u64 << 30) + 66),
        // Mid-range wheel times.
        0u64..5_000_000,
        // Far-future times on levels 6-10.
        ((1u64 << 36) - 10)..((1u64 << 36) + 100_000),
        (1u64 << 40)..((1u64 << 40) + 1_000),
        ((1u64 << 42) - 10)..((1u64 << 42) + 1_000),
        ((1u64 << 48) - 10)..((1u64 << 48) + 1_000),
        ((1u64 << 54) - 10)..((1u64 << 54) + 1_000),
        ((1u64 << 60) - 10)..((1u64 << 60) + 1_000),
        // The last 2^20 µs of the range (every level's top slot).
        (u64::MAX - (1u64 << 20))..=u64::MAX,
    ]
}

proptest! {
    /// The timing-wheel queue pops in an order identical to the reference
    /// `BinaryHeap` backend for arbitrary schedules — including
    /// same-instant ties, cascading boundaries, and far-future times on
    /// the top levels — under interleaved scheduling and popping.
    #[test]
    fn wheel_matches_heap_backend(
        phases in prop::collection::vec(
            (prop::collection::vec(wheel_stress_time(), 0..40), 0u8..40),
            1..8,
        )
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let mut id = 0u32;
        for (delays, pops) in phases {
            // Schedule a batch relative to the current clock (the queues
            // reject absolute times in the past), skipping any delay that
            // would carry the time past `u64::MAX`.
            for d in delays {
                let Some(at) = wheel.now().as_micros().checked_add(d) else {
                    continue;
                };
                let at = SimTime::from_micros(at);
                wheel.schedule_at(at, id);
                heap.schedule_at(at, id);
                id += 1;
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            // Pop a batch; every popped (time, payload) pair must match.
            for _ in 0..pops {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(&a, &b, "wheel and heap disagree");
                if a.is_none() {
                    break;
                }
                prop_assert_eq!(wheel.now(), heap.now());
            }
        }
        // Drain the rest: full total-order equivalence.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(&a, &b, "wheel and heap disagree in the tail");
            if a.is_none() {
                break;
            }
        }
    }

    /// `advance_to` onto (or past) parked events agrees between backends:
    /// events due exactly at the advanced-to instant must still pop, in
    /// the same order.
    #[test]
    fn wheel_matches_heap_across_advance_to(
        times in prop::collection::vec(wheel_stress_time(), 1..60),
        advance in prop::collection::vec(0u64..(1u64 << 37), 1..6),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule_at(SimTime::from_micros(t), i as u32);
            heap.schedule_at(SimTime::from_micros(t), i as u32);
        }
        for target in advance {
            // Clamp the advance to the earliest pending event: advancing
            // onto it is legal (and the interesting edge), past it is not.
            let at = SimTime::from_micros(target)
                .min(wheel.peek_time().unwrap_or(SimTime::from_micros(u64::MAX)))
                .max(wheel.now());
            wheel.advance_to(at);
            heap.advance_to(at);
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Whatever the schedule, events pop in non-decreasing time order, and
    /// same-time events pop in insertion order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in prop::collection::vec(0u64..10_000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.time >= lt, "time went backwards");
                if ev.time == lt {
                    prop_assert!(ev.event > li, "same-time events must pop FIFO");
                }
            }
            prop_assert_eq!(ev.time, SimTime::from_micros(times[ev.event]));
            last = Some((ev.time, ev.event));
        }
        prop_assert!(q.is_empty());
    }

    /// The clock never runs backwards under interleaved schedule/pop.
    #[test]
    fn clock_is_monotone(
        ops in prop::collection::vec((any::<bool>(), 0u64..1_000), 1..100)
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut last_now = SimTime::ZERO;
        for (push, delay) in ops {
            if push {
                q.schedule_in(SimTime::from_micros(delay), 0);
            } else {
                q.pop();
            }
            prop_assert!(q.now() >= last_now);
            last_now = q.now();
        }
    }

    /// Histogram invariants: count/mean/max/quantile consistency for any
    /// input in the exact range.
    #[test]
    fn histogram_moments(values in prop::collection::vec(0u64..64, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let n = values.len() as u64;
        prop_assert_eq!(h.count(), n);
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let mean = values.iter().sum::<u64>() as f64 / n as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-9);
        // Quantiles are monotone and bounded by min/max.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut prev = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= prev);
            prop_assert!(v <= h.max());
            prev = v;
        }
        // Exact-range quantiles must equal the order statistic.
        prop_assert_eq!(h.quantile(1.0), sorted[sorted.len() - 1]);
        prop_assert_eq!(h.quantile(0.0), sorted[0]);
    }
}
