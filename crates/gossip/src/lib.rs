//! Replica-subnetwork communication (\[DaHa03\], paper Sections 3.3.2 & 5.1).
//!
//! The replicas responsible for a key region "maintain an unstructured
//! replica subnetwork among each other". Two operations run over it:
//!
//! * **updates** — inserted at one responsible peer, then *gossiped* to the
//!   others via hybrid push/pull rumor spreading: online peers are infected
//!   by pushes; peers that were offline pull missed updates when they
//!   return (anti-entropy — that rejoin pull is `pdht_core`'s, over its
//!   per-peer stores; coded waves here end in a pull mop-up of their own),
//! * **query flooding** (Eq. 16) — with lazy TTL eviction replicas drift
//!   apart, so a responsible peer that cannot answer floods the subnetwork
//!   at cost `repl · dup2`.
//!
//! [`ReplicaGroup`] owns the subnetwork topology and the message
//! accounting. Both operations are resumable step APIs — a flood is
//! [`ReplicaGroup::flood_begin`] plus one [`ReplicaGroup::flood_wave`] per
//! frontier level, an update is [`ReplicaGroup::push_begin`] plus
//! [`ReplicaGroup::push_wave`] rounds and a [`ReplicaGroup::pull_missing`]
//! mop-up — which the engine parks between message waves; state
//! transitions are caller closures over the engine's own per-peer stores,
//! which hold [`VersionedValue`]s.

pub mod codec;
pub mod group;
pub mod scratch;
pub mod store;

pub use codec::{CoeffVec, Decoder, GossipCodec, GENERATION_SIZE, MAX_GENERATION, VALUE_BYTES};
pub use group::{FloodWave, ReplicaGroup, RumorWave};
pub use scratch::WavePool;
pub use store::VersionedValue;
