//! Random replication of items across peers.
//!
//! "we replicate keys with a certain factor at random peers" (Section 3.1).
//! Index and content use the same factor "to assure the same search
//! reliability in structured and unstructured networks" (Section 4).

use pdht_types::fasthash::{self, FastHashSet};
use pdht_types::{PdhtError, PeerId, Result};
use rand::rngs::SmallRng;
use rand::Rng;

/// Placement of `repl` copies of each item at random distinct peers.
#[derive(Clone, Debug)]
pub struct Replication {
    /// `holders[item]` = sorted peer ids holding a copy.
    holders: Vec<Vec<PeerId>>,
    num_peers: usize,
}

impl Replication {
    /// Places `num_items` items, `repl` copies each, across `num_peers`
    /// peers uniformly at random (distinct holders per item).
    ///
    /// # Errors
    /// Fails if `repl == 0` or `repl > num_peers`.
    pub fn place(
        num_items: usize,
        repl: usize,
        num_peers: usize,
        rng: &mut SmallRng,
    ) -> Result<Replication> {
        if repl == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "repl",
                reason: "replication factor must be >= 1".into(),
            });
        }
        if repl > num_peers {
            return Err(PdhtError::InvalidConfig {
                param: "repl",
                reason: format!("cannot place {repl} copies on {num_peers} peers"),
            });
        }
        let mut picked = fasthash::set_with_capacity(repl * 2);
        let holders =
            (0..num_items).map(|_| sample_holders(repl, num_peers, &mut picked, rng)).collect();
        Ok(Replication { holders, num_peers })
    }

    /// Number of items placed.
    pub fn num_items(&self) -> usize {
        self.holders.len()
    }

    /// The peers holding `item`.
    ///
    /// # Panics
    /// Panics if `item` is out of range.
    pub fn holders(&self, item: usize) -> &[PeerId] {
        &self.holders[item]
    }

    /// Does `peer` hold `item`?
    pub fn is_holder(&self, item: usize, peer: PeerId) -> bool {
        self.holders[item].binary_search(&peer).is_ok()
    }

    /// Re-places a single item (models content turnover: a replaced article
    /// is published to fresh random peers).
    pub fn replace_item(&mut self, item: usize, rng: &mut SmallRng) {
        let repl = self.holders[item].len();
        let mut picked = fasthash::set_with_capacity(repl * 2);
        self.holders[item] = sample_holders(repl, self.num_peers, &mut picked, rng);
    }
}

/// Floyd's algorithm: `repl` distinct peers of `0..num_peers`, sorted,
/// without building a permutation. `picked` is cleared first, so a caller
/// placing many items reuses one set.
fn sample_holders(
    repl: usize,
    num_peers: usize,
    picked: &mut FastHashSet<u32>,
    rng: &mut SmallRng,
) -> Vec<PeerId> {
    picked.clear();
    for j in (num_peers - repl)..num_peers {
        let t = rng.random_range(0..=j as u32);
        picked.insert(if picked.contains(&t) { j as u32 } else { t });
    }
    let mut set: Vec<PeerId> = picked.iter().map(|&p| PeerId(p)).collect();
    set.sort_unstable();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(77)
    }

    #[test]
    fn every_item_gets_distinct_holders() {
        let r = Replication::place(500, 50, 2_000, &mut rng()).unwrap();
        assert_eq!(r.num_items(), 500);
        for item in 0..500 {
            let h = r.holders(item);
            assert_eq!(h.len(), 50);
            let mut dedup = h.to_vec();
            dedup.dedup();
            assert_eq!(dedup.len(), 50, "holders must be distinct");
            for &p in h {
                assert!(r.is_holder(item, p));
                assert!(p.idx() < 2_000);
            }
        }
    }

    #[test]
    fn load_is_balanced_on_average() {
        let r = Replication::place(1_000, 20, 1_000, &mut rng()).unwrap();
        let mut counts = vec![0usize; 1_000];
        for item in 0..1_000 {
            for &p in r.holders(item) {
                counts[p.idx()] += 1;
            }
        }
        // 1000 items · 20 copies / 1000 peers = 20 per peer on average.
        assert_eq!(counts.iter().sum::<usize>(), 20 * 1_000);
        // And the max load is within a few standard deviations (binomial).
        let max = *counts.iter().max().unwrap();
        assert!(max < 45, "max load {max} suspiciously unbalanced");
    }

    #[test]
    fn is_holder_negative_case() {
        let r = Replication::place(5, 3, 100, &mut rng()).unwrap();
        for item in 0..5 {
            let holder_count = (0..100).filter(|&i| r.is_holder(item, PeerId(i))).count();
            assert_eq!(holder_count, 3);
        }
    }

    #[test]
    fn replace_item_moves_copies() {
        let mut r = Replication::place(10, 10, 5_000, &mut rng()).unwrap();
        let before = r.holders(3).to_vec();
        let mut moved = false;
        // With 10 copies over 5000 peers, a re-placement virtually always
        // changes the holder set; try a few times to be safe.
        for _ in 0..5 {
            r.replace_item(3, &mut rng());
            if r.holders(3) != before.as_slice() {
                moved = true;
                break;
            }
        }
        assert!(moved, "replacement should change holders");
        assert_eq!(r.holders(3).len(), 10);
    }

    #[test]
    fn full_replication_covers_all_peers() {
        let r = Replication::place(2, 10, 10, &mut rng()).unwrap();
        for item in 0..2 {
            assert_eq!(r.holders(item).len(), 10);
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(Replication::place(5, 0, 10, &mut rng()).is_err());
        assert!(Replication::place(5, 11, 10, &mut rng()).is_err());
    }
}
