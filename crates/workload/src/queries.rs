//! Zipf query streams.
//!
//! Per round, the network issues `Poisson(numPeers · fQry)` queries; each
//! query originates at a uniformly random peer and targets the key at a
//! Zipf-sampled rank, mapped through the active popularity shift
//! ([`pdht_zipf::PopularityShift`]).

use pdht_sim::random::poisson;
use pdht_types::{PeerId, Result};
use pdht_zipf::{PopularityShift, ZipfDistribution};
use rand::rngs::SmallRng;
use rand::Rng;

/// One query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// The peer that issues the query.
    pub origin: PeerId,
    /// Dense index of the queried key.
    pub key_index: usize,
    /// The Zipf rank that was sampled (diagnostics; `key_index` already
    /// embeds the shift).
    pub rank: usize,
}

/// A query workload over a key catalog.
pub struct QueryWorkload {
    zipf: ZipfDistribution,
    shift: PopularityShift,
    num_peers: u32,
    f_qry: f64,
}

impl QueryWorkload {
    /// Creates a workload of `num_peers` peers each issuing `f_qry` queries
    /// per second over `keys` keys with Zipf exponent `alpha`.
    ///
    /// # Errors
    /// Propagates parameter validation failures, and rejects a shift whose
    /// rank maps do not cover exactly `keys` keys.
    pub fn new(
        keys: usize,
        alpha: f64,
        num_peers: u32,
        f_qry: f64,
        shift: Option<PopularityShift>,
    ) -> Result<QueryWorkload> {
        if !f_qry.is_finite() || f_qry < 0.0 {
            return Err(pdht_types::PdhtError::InvalidConfig {
                param: "f_qry",
                reason: format!("must be finite and >= 0, got {f_qry}"),
            });
        }
        if let Some(n) = shift.as_ref().map(|s| s.map_at(0).n()).filter(|&n| n != keys) {
            return Err(pdht_types::PdhtError::InvalidConfig {
                param: "shift",
                reason: format!("rank maps cover {n} keys, the scenario has {keys}"),
            });
        }
        Ok(QueryWorkload {
            zipf: ZipfDistribution::new(keys, alpha)?,
            shift: shift.unwrap_or_else(|| PopularityShift::none(keys)),
            num_peers,
            f_qry,
        })
    }

    /// Expected queries per round.
    pub fn expected_per_round(&self) -> f64 {
        f64::from(self.num_peers) * self.f_qry
    }

    /// The underlying distribution.
    pub fn zipf(&self) -> &ZipfDistribution {
        &self.zipf
    }

    /// The shift schedule.
    pub fn shift(&self) -> &PopularityShift {
        &self.shift
    }

    /// Samples the queries issued in `round`.
    pub fn round_queries(&self, round: u64, rng: &mut SmallRng) -> Vec<Query> {
        self.round_queries_range(round, rng, 0, self.num_peers)
    }

    /// Samples the queries issued in `round` by origins in
    /// `[origin_lo, origin_hi)`: a `Poisson((hi-lo) · fQry)` count with
    /// origins uniform in the range and keys Zipf-sampled over the *global*
    /// catalog.
    ///
    /// This is the per-shard form of [`QueryWorkload::round_queries`]: the
    /// population split into disjoint ranges, each range drawing from its
    /// own RNG stream, yields the same per-peer query law as the global
    /// draw (Poisson processes split by independent thinning), and the full
    /// range `[0, num_peers)` is bit-identical to the unsharded method.
    ///
    /// # Panics
    /// Panics if the range is inverted or extends past the population.
    pub fn round_queries_range(
        &self,
        round: u64,
        rng: &mut SmallRng,
        origin_lo: u32,
        origin_hi: u32,
    ) -> Vec<Query> {
        assert!(
            origin_lo <= origin_hi && origin_hi <= self.num_peers,
            "origin range [{origin_lo}, {origin_hi}) out of bounds for {} peers",
            self.num_peers
        );
        let n = poisson(rng, f64::from(origin_hi - origin_lo) * self.f_qry);
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let rank = self.zipf.sample(rng);
            let key_index = self.shift.key_for(rank, round);
            let origin = PeerId(rng.random_range(origin_lo..origin_hi));
            out.push(Query { origin, key_index, rank });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdht_zipf::RankMap;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(55)
    }

    #[test]
    fn volume_matches_expectation() {
        let w = QueryWorkload::new(1_000, 1.2, 2_000, 1.0 / 30.0, None).unwrap();
        assert!((w.expected_per_round() - 66.67).abs() < 0.1);
        let mut r = rng();
        let total: usize = (0..300).map(|round| w.round_queries(round, &mut r).len()).sum();
        let avg = total as f64 / 300.0;
        assert!((avg - 66.67).abs() < 3.0, "avg {avg} per round");
    }

    #[test]
    fn origins_are_within_population_and_spread() {
        let w = QueryWorkload::new(100, 1.0, 50, 2.0, None).unwrap();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for round in 0..50 {
            for q in w.round_queries(round, &mut r) {
                assert!(q.origin.0 < 50);
                assert!(q.key_index < 100);
                seen.insert(q.origin.0);
            }
        }
        assert!(seen.len() > 40, "origins should cover most peers, got {}", seen.len());
    }

    #[test]
    fn head_keys_dominate() {
        let w = QueryWorkload::new(10_000, 1.2, 1_000, 1.0, None).unwrap();
        let mut r = rng();
        let mut head = 0usize;
        let mut total = 0usize;
        for round in 0..100 {
            for q in w.round_queries(round, &mut r) {
                total += 1;
                if q.key_index < 100 {
                    head += 1;
                }
            }
        }
        let frac = head as f64 / total as f64;
        // Top 1% of ranks carries >50% of Zipf(1.2) mass.
        assert!(frac > 0.5, "head fraction {frac}");
    }

    #[test]
    fn shift_redirects_popularity() {
        let shift = PopularityShift::new(vec![
            (0, RankMap::identity(1_000)),
            (50, RankMap::rotation(1_000, 500)),
        ])
        .unwrap();
        let w = QueryWorkload::new(1_000, 1.2, 1_000, 1.0, Some(shift)).unwrap();
        let mut r = rng();
        let head_fraction = |w: &QueryWorkload, rounds: std::ops::Range<u64>, r: &mut SmallRng| {
            let mut head = 0usize;
            let mut total = 0usize;
            for round in rounds {
                for q in w.round_queries(round, r) {
                    total += 1;
                    if q.key_index < 100 {
                        head += 1;
                    }
                }
            }
            head as f64 / total as f64
        };
        let before = head_fraction(&w, 0..50, &mut r);
        let after = head_fraction(&w, 50..100, &mut r);
        assert!(before > 0.5, "before shift the old head is hot: {before}");
        assert!(after < 0.05, "after shift the old head goes cold: {after}");
    }

    #[test]
    fn zero_rate_produces_no_queries() {
        let w = QueryWorkload::new(10, 1.2, 100, 0.0, None).unwrap();
        let mut r = rng();
        for round in 0..10 {
            assert!(w.round_queries(round, &mut r).is_empty());
        }
    }

    #[test]
    fn range_draw_confines_origins_and_scales_volume() {
        let w = QueryWorkload::new(500, 1.1, 1_000, 0.5, None).unwrap();
        let mut r = rng();
        let mut total = 0usize;
        for round in 0..200 {
            for q in w.round_queries_range(round, &mut r, 250, 500) {
                assert!((250..500).contains(&q.origin.0));
                total += 1;
            }
        }
        // 250 origins at fQry=0.5 → ~125 queries per round.
        let avg = total as f64 / 200.0;
        assert!((avg - 125.0).abs() < 6.0, "avg {avg} per round");
    }

    #[test]
    fn full_range_matches_round_queries_bitwise() {
        let w = QueryWorkload::new(2_000, 1.2, 777, 0.3, None).unwrap();
        let mut r_a = rng();
        let mut r_b = rng();
        for round in 0..50 {
            assert_eq!(
                w.round_queries(round, &mut r_a),
                w.round_queries_range(round, &mut r_b, 0, 777)
            );
        }
    }

    #[test]
    fn empty_range_draws_nothing() {
        let w = QueryWorkload::new(100, 1.0, 50, 2.0, None).unwrap();
        let mut r = rng();
        assert!(w.round_queries_range(0, &mut r, 30, 30).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_past_population_rejected() {
        let w = QueryWorkload::new(100, 1.0, 50, 2.0, None).unwrap();
        let mut r = rng();
        let _ = w.round_queries_range(0, &mut r, 0, 51);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(QueryWorkload::new(10, 1.2, 10, f64::NAN, None).is_err());
        assert!(QueryWorkload::new(0, 1.2, 10, 0.1, None).is_err());
    }
}
