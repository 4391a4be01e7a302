//! Message taxonomy and cost accounting.
//!
//! The paper counts *messages* as the main cost (Section 3). Every simulated
//! hop, probe, flood step, walk step or gossip exchange increments one
//! [`MessageKind`] counter so experiments can report totals split by cause —
//! the same decomposition as the model's terms `cSIndx`, `cSUnstr`, `cRtn`,
//! `cUpd`.

use std::fmt;
use std::ops::{AddAssign, Index, IndexMut};

/// Categories of messages exchanged in the simulated system.
///
/// The grouping mirrors the paper's cost terms:
/// * index search cost `cSIndx` → [`RouteHop`](MessageKind::RouteHop),
/// * broadcast search cost `cSUnstr` → [`WalkStep`](MessageKind::WalkStep),
/// * routing maintenance `cRtn` → [`Probe`](MessageKind::Probe),
/// * update/replica cost `cUpd`, `repl·dup2` → the gossip variants,
/// * selection-algorithm insert-on-miss → [`IndexInsert`](MessageKind::IndexInsert).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MessageKind {
    /// One hop of a structured-overlay lookup.
    RouteHop,
    /// A liveness probe of a routing-table entry.
    Probe,
    /// One transmission of an unstructured TTL flood. Nothing records it
    /// now (broadcast search is random walks); it keeps its slot because
    /// the golden vectors and the benchmark's fingerprints list every kind
    /// in [`MessageKind::ALL`] order.
    FloodStep,
    /// One step of a random walker.
    WalkStep,
    /// A push of a rumor (update) inside a replica subnetwork.
    GossipPush,
    /// A pull request/response pair issued by a returning replica.
    GossipPull,
    /// A flood step inside the replica subnetwork (Eq. 16's `repl·dup2`).
    ReplicaFlood,
    /// A hop performed to insert a key into the index (selection algorithm).
    IndexInsert,
    /// A direct query sent to a known index peer (entry message).
    QueryEntry,
    /// Overlay join / leave / stabilization traffic.
    Membership,
}

impl MessageKind {
    /// Every variant, in `repr` order.
    pub const ALL: [MessageKind; 10] = [
        MessageKind::RouteHop,
        MessageKind::Probe,
        MessageKind::FloodStep,
        MessageKind::WalkStep,
        MessageKind::GossipPush,
        MessageKind::GossipPull,
        MessageKind::ReplicaFlood,
        MessageKind::IndexInsert,
        MessageKind::QueryEntry,
        MessageKind::Membership,
    ];

    /// Number of variants.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable, short lowercase name (used in CSV headers).
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::RouteHop => "route_hop",
            MessageKind::Probe => "probe",
            MessageKind::FloodStep => "flood_step",
            MessageKind::WalkStep => "walk_step",
            MessageKind::GossipPush => "gossip_push",
            MessageKind::GossipPull => "gossip_pull",
            MessageKind::ReplicaFlood => "replica_flood",
            MessageKind::IndexInsert => "index_insert",
            MessageKind::QueryEntry => "query_entry",
            MessageKind::Membership => "membership",
        }
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-[`MessageKind`] message counter.
///
/// Plain array indexing keeps this allocation-free and branch-free on the
/// hot path of the simulators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgCounts {
    counts: [u64; MessageKind::COUNT],
}

impl MsgCounts {
    /// An all-zero counter.
    pub const fn new() -> Self {
        MsgCounts { counts: [0; MessageKind::COUNT] }
    }

    /// Records `n` messages of `kind`.
    #[inline]
    pub fn add(&mut self, kind: MessageKind, n: u64) {
        self.counts[kind as usize] += n;
    }

    /// Records a single message of `kind`.
    #[inline]
    pub fn incr(&mut self, kind: MessageKind) {
        self.add(kind, 1);
    }

    /// Total messages across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum over a subset of kinds.
    pub fn sum_of(&self, kinds: &[MessageKind]) -> u64 {
        kinds.iter().map(|&k| self.counts[k as usize]).sum()
    }

    /// Difference `self - earlier`, element-wise. Useful for per-round
    /// deltas from cumulative counters.
    ///
    /// # Panics
    /// Panics (in debug builds) if any counter would go negative.
    pub fn since(&self, earlier: &MsgCounts) -> MsgCounts {
        let mut out = MsgCounts::new();
        for i in 0..MessageKind::COUNT {
            debug_assert!(self.counts[i] >= earlier.counts[i]);
            out.counts[i] = self.counts[i] - earlier.counts[i];
        }
        out
    }

    /// Iterates `(kind, count)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageKind, u64)> + '_ {
        MessageKind::ALL.iter().map(move |&k| (k, self.counts[k as usize]))
    }

    /// Resets all counters to zero.
    pub fn clear(&mut self) {
        self.counts = [0; MessageKind::COUNT];
    }
}

impl Index<MessageKind> for MsgCounts {
    type Output = u64;
    #[inline]
    fn index(&self, k: MessageKind) -> &u64 {
        &self.counts[k as usize]
    }
}

impl IndexMut<MessageKind> for MsgCounts {
    #[inline]
    fn index_mut(&mut self, k: MessageKind) -> &mut u64 {
        &mut self.counts[k as usize]
    }
}

impl AddAssign for MsgCounts {
    fn add_assign(&mut self, rhs: MsgCounts) {
        for i in 0..MessageKind::COUNT {
            self.counts[i] += rhs.counts[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_variant_once() {
        let mut seen = std::collections::HashSet::new();
        for k in MessageKind::ALL {
            assert!(seen.insert(k as usize), "duplicate variant {k}");
        }
        assert_eq!(seen.len(), MessageKind::COUNT);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            MessageKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), MessageKind::COUNT);
    }

    #[test]
    fn counting_and_totals() {
        let mut c = MsgCounts::new();
        c.incr(MessageKind::RouteHop);
        c.add(MessageKind::RouteHop, 2);
        c.add(MessageKind::FloodStep, 10);
        c.incr(MessageKind::Probe);
        assert_eq!(c[MessageKind::RouteHop], 3);
        assert_eq!(c.total(), 14);
    }

    #[test]
    fn since_computes_deltas() {
        let mut a = MsgCounts::new();
        a.add(MessageKind::Probe, 5);
        let mut b = a;
        b.add(MessageKind::Probe, 3);
        b.add(MessageKind::WalkStep, 2);
        let d = b.since(&a);
        assert_eq!(d[MessageKind::Probe], 3);
        assert_eq!(d[MessageKind::WalkStep], 2);
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = MsgCounts::new();
        a.add(MessageKind::GossipPush, 4);
        let mut b = MsgCounts::new();
        b.add(MessageKind::GossipPush, 6);
        b.add(MessageKind::GossipPull, 1);
        a += b;
        assert_eq!(a[MessageKind::GossipPush], 10);
        assert_eq!(a[MessageKind::GossipPull], 1);
    }

    #[test]
    fn clear_resets() {
        let mut a = MsgCounts::new();
        a.add(MessageKind::Membership, 9);
        a.clear();
        assert_eq!(a.total(), 0);
    }
}
