//! Random overlay graphs.
//!
//! Gnutella-like topologies: every peer keeps "a few open connections to
//! other peers" (paper Section 3.1). Construction guarantees connectivity
//! (a random Hamiltonian backbone) and then adds random edges to reach the
//! target mean degree.

use pdht_types::{PdhtError, PeerId, Result};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// An undirected overlay graph over a dense peer population.
///
/// Stored in compressed-sparse-row form: one flat `targets` array holding
/// every adjacency list back to back, indexed by `offsets` (`n + 1`
/// entries). Walk and flood inner loops read one contiguous slice per
/// visited peer instead of chasing a per-node heap pointer — at 10⁵ peers
/// the per-node `Vec<Vec<_>>` layout was the dominant cache miss in the
/// query phase. Construction still goes through an ordinary adjacency-list
/// builder (identical RNG draws), then flattens once; the graph never
/// mutates afterwards except [`Topology::truncate`], which compacts the
/// flat arrays in place.
#[derive(Clone, Debug)]
pub struct Topology {
    /// `targets[offsets[i] as usize .. offsets[i + 1] as usize]` are the
    /// neighbors of peer `i`, in insertion order.
    offsets: Vec<u32>,
    targets: Vec<PeerId>,
    edges: usize,
    /// The edge count construction aimed for (== `edges` unless the
    /// retry budget ran out; see [`Topology::edge_shortfall`]).
    target_edges: usize,
}

/// Adjacency-list accumulator used during construction only. Keeping the
/// build path on `Vec<Vec<PeerId>>` preserves the exact insertion order
/// (and thus the RNG draw sequence of every traversal downstream); the
/// final [`Builder::finish`] flattens into CSR without reordering.
struct Builder {
    adj: Vec<Vec<PeerId>>,
    edges: usize,
}

impl Builder {
    fn new(n: usize) -> Builder {
        Builder { adj: vec![Vec::new(); n], edges: 0 }
    }

    /// Adds the undirected edge `(a, b)` if absent; returns whether added.
    fn add_edge(&mut self, a: usize, b: usize) -> bool {
        debug_assert_ne!(a, b);
        let pb = PeerId::from_idx(b);
        if self.adj[a].contains(&pb) {
            return false;
        }
        self.adj[a].push(pb);
        self.adj[b].push(PeerId::from_idx(a));
        self.edges += 1;
        true
    }

    fn finish(self, target_edges: usize) -> Topology {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut targets = Vec::with_capacity(2 * self.edges);
        offsets.push(0u32);
        for nbs in &self.adj {
            targets.extend_from_slice(nbs);
            offsets.push(targets.len() as u32);
        }
        Topology { offsets, targets, edges: self.edges, target_edges }
    }
}

/// Multiple of the *expected* rejection-sampling cost granted per
/// still-missing edge in [`Topology::random`]. A uniform pair hits a free
/// edge with probability `2·free/n²`, so the expected draws per edge is
/// `n²/(2·free)`; granting 32× that makes the per-edge give-up probability
/// ~e⁻³² — the budget is re-granted on every success, so the loop cannot
/// give up because an easy early phase spent a fixed global guard (the bug
/// that silently undershot dense targets).
const EDGE_RETRY_FACTOR: usize = 32;

impl Topology {
    /// A connected random graph with mean degree ≈ `mean_degree`.
    ///
    /// A random cycle backbone guarantees connectivity; the remaining edge
    /// budget is spent on uniformly random pairs (deduplicated). Targets
    /// denser than the complete graph are clamped to it; the achieved
    /// density is surfaced by [`Topology::mean_degree`] and
    /// [`Topology::edge_shortfall`].
    ///
    /// # Errors
    /// Fails if `n < 2` or `mean_degree < 2`.
    pub fn random(n: usize, mean_degree: usize, rng: &mut SmallRng) -> Result<Topology> {
        if n < 2 {
            return Err(PdhtError::InvalidConfig {
                param: "n",
                reason: "need at least two peers".into(),
            });
        }
        if mean_degree < 2 {
            return Err(PdhtError::InvalidConfig {
                param: "mean_degree",
                reason: "mean degree must be at least 2 for connectivity".into(),
            });
        }
        let mut topo = Builder::new(n);

        // Random cycle backbone.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        for i in 0..n {
            let a = order[i];
            let b = order[(i + 1) % n];
            topo.add_edge(a, b);
        }

        // Extra random edges until the mean degree target is met. The
        // retry budget tracks the expected rejection cost of the *next*
        // edge and is re-granted on every success (draw-for-draw identical
        // to the old fixed-guard loop until the moment that guard tripped).
        let max_edges = n * (n - 1) / 2;
        let target_edges = (n * mean_degree / 2).min(max_edges).max(topo.edges);
        let next_edge_budget =
            |edges: usize| EDGE_RETRY_FACTOR * (n * n / (2 * (max_edges - edges)) + 1);
        let mut attempts_left =
            if topo.edges < target_edges { next_edge_budget(topo.edges) } else { 0 };
        while topo.edges < target_edges && attempts_left > 0 {
            attempts_left -= 1;
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b && topo.add_edge(a, b) && topo.edges < target_edges {
                attempts_left = attempts_left.max(next_edge_budget(topo.edges));
            }
        }
        Ok(topo.finish(target_edges))
    }

    /// Edges [`Topology::random`] aimed for but could not place before its
    /// retry budget ran out (0 for every reachable target — the regression
    /// tests pin this at high density).
    pub fn edge_shortfall(&self) -> usize {
        self.target_edges - self.edges
    }

    /// Drops every node with index `>= n` (and its edges), shrinking the
    /// graph to `0..n`. Construction draws are already spent when this
    /// runs, so truncating after [`Topology::random`] consumes exactly the
    /// RNG stream the full-size build did — the trick the replica-group
    /// padding fix relies on: build the 2-node minimum graph, then cut the
    /// padding node out so no traversal ever has to filter it.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        // Compact the CSR arrays in place: the write cursor never passes
        // the read cursor, so surviving targets shift left one slice at a
        // time while the offsets are rewritten behind them.
        let mut write = 0usize;
        for i in 0..n {
            let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            self.offsets[i] = write as u32;
            for j in start..end {
                let nb = self.targets[j];
                if nb.idx() < n {
                    self.targets[write] = nb;
                    write += 1;
                }
            }
        }
        self.offsets[n] = write as u32;
        self.offsets.truncate(n + 1);
        self.targets.truncate(write);
        self.edges = write / 2;
        self.target_edges = self.target_edges.min(self.edges);
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` if the graph has no peers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edges as f64 / self.len() as f64
        }
    }

    /// Neighbors of `peer` (one contiguous CSR slice).
    #[inline]
    pub fn neighbors(&self, peer: PeerId) -> &[PeerId] {
        let i = peer.idx();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Warms the cache line that [`Topology::neighbors`]`(peer)` will read.
    /// Walk waves know every walker's position before the serial step loop
    /// runs; issuing these independent loads up front lets the core overlap
    /// the random CSR row fetches instead of paying each miss in turn.
    /// `black_box` keeps the otherwise-dead load from being optimised away;
    /// there is no semantic effect.
    #[inline]
    pub fn prefetch_neighbors(&self, peer: PeerId) {
        std::hint::black_box(self.offsets[peer.idx()]);
    }

    /// Is the whole graph connected? (BFS; test/diagnostic helper.)
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &nb in self.neighbors(PeerId::from_idx(v)) {
                if !seen[nb.idx()] {
                    seen[nb.idx()] = true;
                    count += 1;
                    stack.push(nb.idx());
                }
            }
        }
        count == self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(2024)
    }

    #[test]
    fn random_graph_is_connected_with_target_degree() {
        let t = Topology::random(2_000, 6, &mut rng()).unwrap();
        assert!(t.is_connected());
        assert!((t.mean_degree() - 6.0).abs() < 0.5, "mean degree {}", t.mean_degree());
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn adjacency_is_symmetric_and_simple() {
        let t = Topology::random(500, 5, &mut rng()).unwrap();
        for i in 0..500 {
            let me = PeerId::from_idx(i);
            for &nb in t.neighbors(me) {
                assert_ne!(nb, me, "no self-loops");
                assert!(t.neighbors(nb).contains(&me), "edges must be symmetric");
            }
            // No duplicate neighbor entries.
            let mut sorted: Vec<_> = t.neighbors(me).to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), t.neighbors(me).len());
        }
    }

    #[test]
    fn dense_targets_are_met_not_silently_undershot() {
        // At high density most uniform pairs collide with existing edges;
        // the old fixed global retry guard gave up early and silently
        // delivered a sparser graph. The proportional budget must deliver
        // the full target (shortfall 0) right up to the complete graph.
        for (n, deg) in [(100usize, 80usize), (200, 150), (64, 63), (40, 39)] {
            let t = Topology::random(n, deg, &mut rng()).unwrap();
            assert_eq!(
                t.edge_shortfall(),
                0,
                "n={n}, deg={deg}: undershot by {} edges",
                t.edge_shortfall()
            );
            assert_eq!(t.num_edges(), n * deg / 2, "n={n}, deg={deg}");
            assert!((t.mean_degree() - deg as f64).abs() < 1.0);
            assert!(t.is_connected());
        }
    }

    #[test]
    fn impossible_targets_clamp_to_the_complete_graph() {
        // Denser than complete: the target is clamped, the achieved degree
        // is surfaced, and construction still terminates.
        let n = 30;
        let t = Topology::random(n, 100, &mut rng()).unwrap();
        assert_eq!(t.num_edges(), n * (n - 1) / 2, "must build the complete graph");
        assert_eq!(t.edge_shortfall(), 0);
        assert!((t.mean_degree() - (n - 1) as f64).abs() < 1e-9);
    }

    #[test]
    fn truncate_drops_high_nodes_and_their_edges() {
        let mut t = Topology::random(10, 4, &mut rng()).unwrap();
        let full = t.clone();
        t.truncate(6);
        assert_eq!(t.len(), 6);
        for i in 0..6 {
            let me = PeerId::from_idx(i);
            for &nb in t.neighbors(me) {
                assert!(nb.idx() < 6, "edge to truncated node survived");
                assert!(t.neighbors(nb).contains(&me), "edges stay symmetric");
                assert!(full.neighbors(me).contains(&nb), "no new edges appear");
            }
        }
        // Truncating to the current size (or larger) is a no-op.
        let before = t.num_edges();
        t.truncate(6);
        t.truncate(100);
        assert_eq!(t.num_edges(), before);
        assert_eq!(t.len(), 6);
        // Truncation never leaves a phantom shortfall.
        assert_eq!(t.edge_shortfall(), 0);
    }

    #[test]
    fn truncate_to_single_node_clears_adjacency() {
        let mut t = Topology::random(2, 2, &mut rng()).unwrap();
        t.truncate(1);
        assert_eq!(t.len(), 1);
        assert!(t.neighbors(PeerId(0)).is_empty());
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn tiny_graphs_work() {
        let t = Topology::random(2, 2, &mut rng()).unwrap();
        assert!(t.is_connected());
        assert_eq!(t.neighbors(PeerId(0)), &[PeerId(1)]);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(Topology::random(1, 4, &mut rng()).is_err());
        assert!(Topology::random(10, 1, &mut rng()).is_err());
    }

    #[test]
    fn determinism_from_seed() {
        let a = Topology::random(300, 4, &mut SmallRng::seed_from_u64(5)).unwrap();
        let b = Topology::random(300, 4, &mut SmallRng::seed_from_u64(5)).unwrap();
        for i in 0..300 {
            assert_eq!(a.neighbors(PeerId::from_idx(i)), b.neighbors(PeerId::from_idx(i)));
        }
    }
}
