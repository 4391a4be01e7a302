//! The paper's primary contribution: a **query-adaptive partial DHT**.
//!
//! Three layers:
//!
//! * [`PartialIndex`] — the per-peer TTL store implementing the selection
//!   mechanism of Section 5.1 (insert-on-miss, refresh-on-query,
//!   evict-on-timeout),
//! * [`ttl`] — keyTtl policies: the model-derived `1/fMin` estimate, fixed
//!   values for sensitivity scans, and an adaptive controller (the paper's
//!   stated future work),
//! * [`network`] — the full-network simulation engine: an event-driven
//!   round orchestrator over per-peer index state, query execution and
//!   background maintenance, combining a configurable structured overlay
//!   (trie, Chord or Kademlia, chosen via [`PdhtConfig::overlay`]), the
//!   unstructured overlay, replica gossip, churn and the Zipf workload;
//!   this is the apparatus behind the simulation experiments (S2/S3 in the
//!   repository's `DESIGN.md`).
//!
//! # Quickstart
//!
//! ```
//! use pdht_core::{PdhtConfig, PdhtNetwork, Strategy};
//! use pdht_model::Scenario;
//!
//! // A 1 000-peer network running the selection algorithm at one query
//! // per peer per minute.
//! let cfg = PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 60.0, Strategy::Partial);
//! let mut net = PdhtNetwork::new(cfg).unwrap();
//! net.run(20);
//! let report = net.report(0, 19);
//! assert!(report.msgs_per_round > 0.0);
//! ```

pub mod admission;
pub mod config;
pub mod index;
pub mod network;
pub mod ttl;

pub use admission::{AdmissionFilter, AdmissionPolicy};
pub use config::{
    BackgroundSchedule, LatencyConfig, OverlayKind, PdhtConfig, Strategy, DEFAULT_SEED,
    MAX_BACKGROUND_JITTER_US,
};
pub use index::{IndexEntry, InsertResult, PartialIndex};
pub use network::{PdhtNetwork, PhaseBreakdown, SimReport};
pub use pdht_gossip::GossipCodec;
pub use ttl::{model_key_ttl, AdaptiveTtl, Ttl, TtlPolicy};
