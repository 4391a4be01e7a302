//! The full-network simulation engine.
//!
//! Wires every substrate together exactly as the paper's system sketch
//! (Sections 3–5): a structured overlay over the *active* peers holds the
//! (partial) index; all peers form a Gnutella-like unstructured overlay
//! storing the replicated content; replica groups gossip/flood among
//! themselves; churn and probing price the routing tables; the Zipf
//! workload drives queries and the replacement process drives updates.
//!
//! # Architecture
//!
//! The engine exports three things: [`PdhtNetwork`] (build a network, run
//! rounds), [`SimReport`] (read a window of rounds) and [`PhaseBreakdown`]
//! (opt-in wall-clock split of a run). Behind them it is composed of five
//! seams, one per crate-private submodule:
//!
//! * `peer` — per-peer state: every active peer's TTL'd [`crate::PartialIndex`]
//!   plus the global distinct-key accounting, behind one borrow-friendly
//!   facade (`PeerStores`),
//! * `routing` — query execution: the Section 5.1 pipeline (DHT entry,
//!   structured lookup, replica flood, unstructured broadcast search,
//!   insert-on-miss) as a message-granular state machine over in-flight
//!   queries — one event per DHT forward, flood frontier level, or walker
//!   wave, each delayed by the configured [`crate::LatencyConfig`],
//! * `maintenance` — background work: churn transitions and rejoin
//!   pulls, routing-table probe maintenance, TTL eviction sweeps, and
//!   update propagation through replica gossip,
//! * `shard` — the lanes: the population splits into
//!   [`crate::PdhtConfig::shards`] shards (one by default), each owning a
//!   lane (stores, RNG streams, in-flight slabs, event queue); every phase
//!   drains the lanes in parallel on a persistent thread pool with a
//!   deterministic outbox merge between the passes,
//! * `engine` — the `World` every lane pass shares read-only (config,
//!   key universe, substrates, processes, partition maps) and
//!   orchestration: each round walks its six phase markers — serial work,
//!   then a lane pass — with query messages and per-peer background events
//!   riding the lanes' deterministic [`pdht_sim::EventQueue`]s as
//!   crate-private `NetEvent`s dispatched in virtual-time order, a plain
//!   [`pdht_types::Round`] counter tracking the next round, and per-query
//!   latency histograms feeding [`SimReport`].
//!
//! The structured overlay is held as a `Box<dyn Overlay>` chosen from
//! [`crate::PdhtConfig::overlay`] at build time, so the same engine runs
//! over the paper's P-Grid-style trie or a Chord ring (ablation A2 in
//! `DESIGN.md`) — and future substrates only need to implement
//! [`pdht_overlay::Overlay`].
//!
//! # The query pipeline of the selection algorithm (Section 5.1)
//!
//! 1. route to a responsible peer and check its local TTL index,
//! 2. on a local miss, flood the replica subnetwork (Eq. 16),
//! 3. on an index miss, broadcast-search the unstructured overlay,
//! 4. insert the found key at all responsible replicas with `keyTtl`.
//!
//! # Deviations from the idealized model
//!
//! All surfaced in `DESIGN.md`: entry messages from non-participating
//! peers are counted separately (`MessageKind::QueryEntry`); the trie's
//! power-of-two leaf count can make per-leaf key load exceed `stor` under
//! [`crate::Strategy::IndexAll`], in which case store capacity is raised
//! to fit (the model assumes exact packing); per-entry probe rates are
//! calibrated so that per-peer maintenance equals the model's
//! `env·log2(nap)` (\[MaCa03\]'s own calibration).

pub(crate) mod engine;
pub(crate) mod maintenance;
pub(crate) mod peer;
pub(crate) mod routing;
pub(crate) mod shard;

pub use engine::{PdhtNetwork, PhaseBreakdown, SimReport};
