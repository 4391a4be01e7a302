//! Virtual-time event queue.
//!
//! [`EventQueue`] is keyed by `(SimTime, sequence)`; the sequence number
//! makes the pop order *total* — two events scheduled for the same instant
//! pop in scheduling order — which keeps simulations bit-for-bit
//! reproducible. Since the O(active-work) refactor the backend is the
//! hierarchical timing wheel in [`crate::wheel`] (amortized O(1) per
//! schedule/pop instead of the binary heap's O(log n) over every resident
//! event). The original binary-heap queue lives on only as the oracle of
//! the conformance proptest (`crates/sim/tests/properties.rs`), which pins
//! the wheel to its exact pop order for arbitrary schedules.

use crate::wheel::TimingWheel;
use pdht_types::SimTime;

/// An event with its due time (returned by [`EventQueue::pop`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The payload.
    pub event: E,
}

/// A deterministic future-event list (timing-wheel backend).
///
/// The queue also tracks `now`: popping advances the clock to the event's
/// due time; scheduling in the past is a logic error caught by an assertion.
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
    seq: u64,
    now: SimTime,
    /// Most events pending at once so far.
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue { wheel: TimingWheel::new(), seq: 0, now: SimTime::ZERO, high_water: 0 }
    }

    /// Current virtual time (the due time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Most events pending at once since the queue was built.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Heap bytes the queue holds: an entry arena sized by
    /// [`EventQueue::high_water`] (about 40 B per event for a 16 B
    /// payload), plus a fixed 11 KiB bucket table.
    pub fn heap_bytes(&self) -> usize {
        self.wheel.heap_bytes()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at:?} < {:?})", self.now);
        self.wheel.schedule(at.as_micros(), self.seq, event);
        self.seq += 1;
        self.high_water = self.high_water.max(self.wheel.len());
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Due time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time().map(SimTime::from_micros)
    }

    /// Pops the next event, advancing the clock to its due time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.wheel.pop().map(|e| {
            debug_assert!(e.time >= self.now.as_micros());
            self.now = SimTime::from_micros(e.time);
            Scheduled { time: self.now, event: e.event }
        })
    }

    /// Pops the next event only if it is due at or before `deadline`.
    /// Does **not** advance the clock past `deadline` when nothing is due.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<Scheduled<E>> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Advances the clock to `at` without processing anything (used at
    /// round boundaries).
    ///
    /// # Panics
    /// Panics if events earlier than `at` are still pending, or if `at` is
    /// in the past.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot rewind the clock");
        if let Some(t) = self.peek_time() {
            assert!(t >= at, "events pending before {at:?}");
        }
        self.now = at;
        self.wheel.advance_cur(at.as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_secs_f64(0.5), ());
        q.schedule_in(SimTime::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_secs_f64(0.5));
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(3), 3);
        assert_eq!(q.pop_until(SimTime::from_secs(2)).unwrap().event, 1);
        assert!(q.pop_until(SimTime::from_secs(2)).is_none());
        assert_eq!(q.len(), 1);
        // Deadline exactly equal to the due time fires.
        assert_eq!(q.pop_until(SimTime::from_secs(3)).unwrap().event, 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        q.schedule_at(SimTime::from_secs_f64(0.5), ());
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(10));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "events pending before")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.advance_to(SimTime::from_secs(2));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(SimTime::from_secs(1), 0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_at_the_advanced_clock_fires() {
        // The engine's round loop: advance to the boundary, then schedule
        // the next round's phases at exactly that instant.
        let mut q = EventQueue::new();
        q.advance_to(SimTime::from_secs(1));
        q.schedule_at(SimTime::from_secs(1), "phase");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop().unwrap().event, "phase");
    }

    #[test]
    fn boundary_event_survives_advance_to_its_instant() {
        // An event parked exactly on a round boundary must still pop after
        // the clock is advanced onto it (the seam `step_round` relies on).
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "boundary");
        assert!(q.pop_until(SimTime::from_secs(1) - SimTime::from_micros(1)).is_none());
        q.advance_to(SimTime::from_secs(1));
        let got = q.pop_until(SimTime::from_secs(2)).unwrap();
        assert_eq!((got.time, got.event), (SimTime::from_secs(1), "boundary"));
    }
}
