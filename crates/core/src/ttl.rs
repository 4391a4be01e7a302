//! keyTtl policies (Section 5.1.1).
//!
//! "It is important that peers insert keys into the index with the right
//! expiration time (keyTtl). The value of keyTtl can be calculated by
//! estimating cSUnstr, cSIndx, and cIndKey." The paper sets
//! `keyTtl = 1/fMin` and leaves self-tuning as future work; we implement
//! both the estimator and a simple self-tuning controller
//! ([`AdaptiveTtl`]) as the paper's proposed extension.

use pdht_model::{IdealPartial, Scenario};
use pdht_types::Result;

/// A key's time-to-live: a finite number of rounds, or never-expiring.
///
/// IndexAll replicas every key forever; encoding that as a huge finite TTL
/// (the old `u64::MAX / 4` sentinel) risked colliding with arithmetic on
/// real TTLs, so "never" is now its own variant and the expiry computation
/// is the single place that interprets it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ttl {
    /// Expires `0` rounds after its last refresh (a zero TTL is immediately
    /// stale — callers use at least 1).
    Rounds(u64),
    /// Never expires (IndexAll stores).
    Infinite,
}

impl Ttl {
    /// The absolute expiry round for an entry (re)inserted at `now`
    /// (`u64::MAX` = never, unreachable by saturating finite arithmetic).
    #[inline]
    pub fn expires_at(self, now: u64) -> u64 {
        match self {
            Ttl::Rounds(rounds) => now.saturating_add(rounds),
            Ttl::Infinite => u64::MAX,
        }
    }
}

/// How peers choose the keyTtl.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TtlPolicy {
    /// A fixed TTL in rounds, at least 1 (used by sensitivity experiments).
    Fixed(u64),
    /// `1/fMin` derived from the analytical model, optionally scaled by an
    /// estimation-error factor (§5.1.1's ±50 % scan uses 0.5 and 1.5).
    FromModel {
        /// Multiplier on the ideal TTL (1.0 = perfectly estimated).
        factor: f64,
    },
    /// Self-tuning (the paper's future work): start from the model value
    /// and adapt to the observed hit rate.
    Adaptive {
        /// Target index hit rate to steer towards.
        target_hit_rate: f64,
    },
}

/// Computes the model-derived keyTtl for a scenario/load.
///
/// # Errors
/// Propagates model errors.
pub fn model_key_ttl(scenario: &Scenario, f_qry: f64) -> Result<f64> {
    let ideal = IdealPartial::solve(scenario, f_qry)?;
    if ideal.f_min.is_finite() && ideal.f_min > 0.0 {
        Ok(1.0 / ideal.f_min)
    } else {
        Ok(0.0)
    }
}

/// A multiplicative-increase/decrease TTL controller.
///
/// Every `window` rounds it compares the observed hit rate with the target:
/// too many misses → keys are timing out too early → grow the TTL; hit rate
/// above target → the index may be hoarding → shrink. Bounds keep the
/// controller inside a sane envelope around the initial estimate.
#[derive(Clone, Debug)]
pub struct AdaptiveTtl {
    current: f64,
    target_hit_rate: f64,
    min: f64,
    max: f64,
    /// Rounds between adjustments.
    window: u64,
    /// Hits/misses accumulated in the current window.
    hits: u64,
    misses: u64,
    rounds_in_window: u64,
}

impl AdaptiveTtl {
    /// Multiplicative step per adjustment.
    const STEP: f64 = 1.25;

    /// Creates a controller starting at `initial_ttl` rounds.
    pub fn new(initial_ttl: f64, target_hit_rate: f64, window: u64) -> AdaptiveTtl {
        let initial = initial_ttl.max(1.0);
        AdaptiveTtl {
            current: initial,
            target_hit_rate: target_hit_rate.clamp(0.0, 1.0),
            min: (initial / 16.0).max(1.0),
            max: initial * 16.0,
            window: window.max(1),
            hits: 0,
            misses: 0,
            rounds_in_window: 0,
        }
    }

    /// The TTL to use right now, in whole rounds.
    pub fn ttl_rounds(&self) -> u64 {
        self.current.round().max(1.0) as u64
    }

    /// Records one query outcome.
    pub fn observe(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Records a batch of query outcomes at once — how the engine flushes a
    /// round's accumulated hit/miss deltas at the bookkeeping boundary.
    /// Observation order never matters (the controller only counts), so
    /// this is exactly `hits + misses` individual [`AdaptiveTtl::observe`]
    /// calls.
    pub fn observe_n(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Ends one round; every `window` rounds the controller compares the
    /// window's hit rate with the target and adjusts multiplicatively.
    /// Returns `true` if the TTL changed.
    pub fn end_round(&mut self) -> bool {
        self.rounds_in_window += 1;
        if self.rounds_in_window < self.window {
            return false;
        }
        self.rounds_in_window = 0;
        let total = self.hits + self.misses;
        if total == 0 {
            return false;
        }
        let hit_rate = self.hits as f64 / total as f64;
        self.hits = 0;
        self.misses = 0;
        let before = self.current;
        if hit_rate < self.target_hit_rate {
            self.current = (self.current * Self::STEP).min(self.max);
        } else {
            self.current = (self.current / Self::STEP).max(self.min);
        }
        (self.current - before).abs() > f64::EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_ttl_matches_inverse_f_min() {
        let s = Scenario::table1();
        let f_qry = 1.0 / 600.0;
        let ttl = model_key_ttl(&s, f_qry).unwrap();
        let ideal = IdealPartial::solve(&s, f_qry).unwrap();
        assert!((ttl - 1.0 / ideal.f_min).abs() < 1e-9);
        assert!(ttl > 100.0, "Table-1 TTLs are in the thousands of rounds");
    }

    #[test]
    fn zero_load_gives_zero_ttl() {
        let s = Scenario::table1();
        let ttl = model_key_ttl(&s, 0.0).unwrap();
        // fMin is finite (the bar exists) even with no load, so the TTL is
        // the inverse bar — but with maxRank 0 the harness won't index
        // anyway; just assert it is non-negative and finite.
        assert!(ttl.is_finite() && ttl >= 0.0);
    }

    #[test]
    fn adaptive_grows_on_misses_shrinks_on_hits() {
        let mut a = AdaptiveTtl::new(100.0, 0.8, 10);
        // All misses for one window → TTL grows.
        for _ in 0..10 {
            for _ in 0..5 {
                a.observe(false);
            }
            a.end_round();
        }
        assert!(a.ttl_rounds() > 100, "ttl should grow, got {}", a.ttl_rounds());

        let grown = a.ttl_rounds();
        // All hits → TTL shrinks back.
        for _ in 0..10 {
            for _ in 0..5 {
                a.observe(true);
            }
            a.end_round();
        }
        assert!(a.ttl_rounds() < grown);
    }

    #[test]
    fn adaptive_respects_bounds() {
        let mut a = AdaptiveTtl::new(64.0, 0.99, 1);
        for _ in 0..200 {
            a.observe(false);
            a.end_round();
        }
        assert!(a.ttl_rounds() <= 64 * 16, "upper bound violated: {}", a.ttl_rounds());
        for _ in 0..400 {
            a.observe(true);
            a.end_round();
        }
        assert!(a.ttl_rounds() >= 4, "lower bound violated: {}", a.ttl_rounds());
    }

    #[test]
    fn adaptive_quiet_windows_do_not_adjust() {
        let mut a = AdaptiveTtl::new(50.0, 0.5, 3);
        for _ in 0..30 {
            assert!(!a.end_round(), "no observations → no adjustment");
        }
        assert_eq!(a.ttl_rounds(), 50);
    }

    #[test]
    fn adjustment_only_at_window_boundaries() {
        let mut a = AdaptiveTtl::new(50.0, 0.9, 5);
        for round in 1..=9 {
            a.observe(false);
            let changed = a.end_round();
            assert_eq!(changed, round == 5, "round {round}");
        }
    }
}
