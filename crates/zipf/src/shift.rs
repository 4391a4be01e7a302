//! Popularity shift: remapping ranks to keys over time.
//!
//! The paper motivates partial indexing with metadata whose popularity "can
//! dramatically change over time" (Sections 1 and 6) and claims the
//! selection algorithm adapts (Section 5.2). We model this by composing the
//! static Zipf rank distribution with a time-varying *rank map*: the sampler
//! draws a rank, the map says which concrete key currently occupies it.

use rand::seq::SliceRandom;
use rand::Rng;

/// A bijection from Zipf rank (1-based) to key index (0-based).
#[derive(Clone, Debug)]
pub enum RankMap {
    /// Rank `r` maps to key `r − 1` — the initial, unshifted assignment.
    Identity {
        /// Number of keys.
        n: usize,
    },
    /// Ranks rotate by `offset`: the previously `offset`-th most popular key
    /// family becomes the head. Models gradual drift.
    Rotation {
        /// Number of keys.
        n: usize,
        /// Rotation offset in ranks.
        offset: usize,
    },
    /// An arbitrary permutation (e.g. a fresh random reshuffle). Models an
    /// abrupt interest change such as breaking news.
    Permutation {
        /// `perm[rank-1]` = key index.
        perm: Vec<u32>,
    },
}

impl RankMap {
    /// Identity map over `n` keys.
    pub fn identity(n: usize) -> RankMap {
        RankMap::Identity { n }
    }

    /// Rotation by `offset` ranks over `n` keys.
    pub fn rotation(n: usize, offset: usize) -> RankMap {
        RankMap::Rotation { n, offset: offset % n.max(1) }
    }

    /// A uniformly random permutation over `n` keys.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> RankMap {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(rng);
        RankMap::Permutation { perm }
    }

    /// Number of keys.
    pub fn n(&self) -> usize {
        match self {
            RankMap::Identity { n } | RankMap::Rotation { n, .. } => *n,
            RankMap::Permutation { perm } => perm.len(),
        }
    }

    /// Key index currently occupying `rank` (1-based).
    ///
    /// # Panics
    /// Panics if `rank` is 0 or out of range.
    #[inline]
    pub fn key_for_rank(&self, rank: usize) -> usize {
        let n = self.n();
        assert!((1..=n).contains(&rank), "rank {rank} out of 1..={n}");
        match self {
            RankMap::Identity { .. } => rank - 1,
            RankMap::Rotation { n, offset } => (rank - 1 + offset) % n,
            RankMap::Permutation { perm } => perm[rank - 1] as usize,
        }
    }
}

/// A schedule of rank maps: which map is active at each round.
#[derive(Clone, Debug)]
pub struct PopularityShift {
    /// `(start_round, map)` pairs, sorted by `start_round`; the first entry
    /// must start at round 0.
    epochs: Vec<(u64, RankMap)>,
}

impl PopularityShift {
    /// A schedule that never shifts.
    pub fn none(n: usize) -> PopularityShift {
        PopularityShift { epochs: vec![(0, RankMap::identity(n))] }
    }

    /// Builds a schedule from `(start_round, map)` pairs.
    ///
    /// # Errors
    /// Errors if the list is empty, unsorted, doesn't start at round 0, or
    /// maps differ in key count.
    pub fn new(epochs: Vec<(u64, RankMap)>) -> pdht_types::Result<PopularityShift> {
        if epochs.is_empty() {
            return Err(pdht_types::PdhtError::InvalidConfig {
                param: "epochs",
                reason: "schedule must contain at least one epoch".into(),
            });
        }
        if epochs[0].0 != 0 {
            return Err(pdht_types::PdhtError::InvalidConfig {
                param: "epochs",
                reason: "first epoch must start at round 0".into(),
            });
        }
        let n = epochs[0].1.n();
        for w in epochs.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(pdht_types::PdhtError::InvalidConfig {
                    param: "epochs",
                    reason: "epoch start rounds must be strictly increasing".into(),
                });
            }
        }
        if epochs.iter().any(|(_, m)| m.n() != n) {
            return Err(pdht_types::PdhtError::InvalidConfig {
                param: "epochs",
                reason: "all rank maps must cover the same number of keys".into(),
            });
        }
        Ok(PopularityShift { epochs })
    }

    /// The map active at `round`.
    pub fn map_at(&self, round: u64) -> &RankMap {
        // Last epoch whose start <= round.
        let i = self.epochs.partition_point(|(start, _)| *start <= round);
        &self.epochs[i - 1].1
    }

    /// Key index for a sampled `rank` at `round`.
    #[inline]
    pub fn key_for(&self, rank: usize, round: u64) -> usize {
        self.map_at(round).key_for_rank(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn identity_maps_rank_to_adjacent_index() {
        let m = RankMap::identity(10);
        assert_eq!(m.key_for_rank(1), 0);
        assert_eq!(m.key_for_rank(10), 9);
    }

    #[test]
    fn rotation_wraps() {
        let m = RankMap::rotation(10, 3);
        assert_eq!(m.key_for_rank(1), 3);
        assert_eq!(m.key_for_rank(8), 0);
        assert_eq!(m.key_for_rank(10), 2);
    }

    #[test]
    fn rotation_offset_reduced_modulo_n() {
        let m = RankMap::rotation(10, 13);
        assert_eq!(m.key_for_rank(1), 3);
    }

    #[test]
    fn random_map_is_a_bijection() {
        let mut rng = SmallRng::seed_from_u64(5);
        let m = RankMap::random(100, &mut rng);
        let mut seen = [false; 100];
        for rank in 1..=100 {
            let k = m.key_for_rank(rank);
            assert!(!seen[k], "key {k} mapped twice");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn schedule_selects_correct_epoch() {
        let s = PopularityShift::new(vec![
            (0, RankMap::identity(10)),
            (100, RankMap::rotation(10, 5)),
            (200, RankMap::rotation(10, 9)),
        ])
        .expect("valid schedule");
        assert_eq!(s.key_for(1, 0), 0);
        assert_eq!(s.key_for(1, 99), 0);
        assert_eq!(s.key_for(1, 100), 5);
        assert_eq!(s.key_for(1, 199), 5);
        assert_eq!(s.key_for(1, 200), 9);
        assert_eq!(s.key_for(1, 10_000), 9);
    }

    #[test]
    fn schedule_validation() {
        assert!(PopularityShift::new(vec![]).is_err());
        assert!(PopularityShift::new(vec![(5, RankMap::identity(4))]).is_err());
        assert!(PopularityShift::new(vec![(0, RankMap::identity(4)), (0, RankMap::identity(4)),])
            .is_err());
        assert!(PopularityShift::new(vec![(0, RankMap::identity(4)), (10, RankMap::identity(5)),])
            .is_err());
    }

    #[test]
    fn none_schedule_never_shifts() {
        let s = PopularityShift::none(7);
        assert_eq!(s.key_for(3, 0), 2);
        assert_eq!(s.key_for(3, 1_000_000), 2);
    }
}
