//! Property tests for the unstructured overlay.

use pdht_sim::Metrics;
use pdht_types::{Liveness, PeerId};
use pdht_unstructured::{random_walks, Replication, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graphs are connected, simple and symmetric for any size/seed.
    #[test]
    fn random_graph_invariants(n in 2usize..500, degree in 2usize..8, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = Topology::random(n, degree, &mut rng).unwrap();
        prop_assert!(t.is_connected());
        for i in 0..n {
            let me = PeerId::from_idx(i);
            let mut nbs: Vec<PeerId> = t.neighbors(me).to_vec();
            for &nb in &nbs {
                prop_assert_ne!(nb, me, "self loop");
                prop_assert!(t.neighbors(nb).contains(&me), "asymmetric edge");
            }
            let before = nbs.len();
            nbs.sort_unstable();
            nbs.dedup();
            prop_assert_eq!(nbs.len(), before, "parallel edge");
        }
    }

    /// Replication holders are always valid, distinct peers; random walks
    /// with a generous budget find a replicated item in a static network.
    #[test]
    fn walks_find_replicated_items(
        n in 50usize..400,
        repl_pct in 5usize..30,
        seed in any::<u64>(),
    ) {
        let repl = (n * repl_pct / 100).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = Topology::random(n, 5, &mut rng).unwrap();
        let r = Replication::place(4, repl, n, &mut rng).unwrap();
        let live = Liveness::all_online(n);
        let mut m = Metrics::new();
        for item in 0..4 {
            prop_assert_eq!(r.holders(item).len(), repl);
            let out = random_walks(
                &t,
                PeerId(0),
                8,
                (n as u64) * 200,
                |p| r.is_holder(item, p),
                &live,
                &mut rng,
                &mut m,
            );
            prop_assert!(out.found.is_some(), "item {item} not found (repl {repl} of {n})");
            prop_assert!(r.is_holder(item, out.found.unwrap()));
        }
    }
}
