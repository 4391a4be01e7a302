//! Structured overlays ("traditional DHTs", paper Section 1).
//!
//! Three implementations behind one [`Overlay`] trait:
//!
//! * [`TrieOverlay`] — a P-Grid-style binary-trie DHT (the system the paper
//!   implemented its simulator on, Section 5.2): peers own bit-prefix paths,
//!   peers sharing a path form a replica group, and routing resolves one
//!   divergent bit per hop.
//! * [`ChordOverlay`] — a Chord-style ring with finger tables, included to
//!   back the paper's claim that the analysis applies to any traditional
//!   DHT (ablation A2 in DESIGN.md).
//! * [`KademliaOverlay`] — a Kademlia-style XOR-metric DHT with k-bucket
//!   routing tables and XOR-prefix replica groups; greedy XOR forwarding
//!   gives the same `O(log n)` asymptotics with its own constants.
//!
//! Shared machinery: [`ChurnModel`] (exponential on/off sessions) and
//! probe-based routing-table maintenance (Section 3.3.1, \[MaCa03\]): each
//! routing entry is probed at rate `env` per second; probes that hit an
//! offline peer trigger a repair that is free of messages (the paper's
//! piggybacking assumption).
//!
//! The [`Overlay`] contract itself is enforced by [`conformance`], a
//! reusable property suite every substrate (current and future) runs
//! verbatim — see `tests/conformance.rs`.

mod arena;
pub mod chord;
pub mod churn;
pub mod conformance;
pub mod kademlia;
pub mod traits;
pub mod trie;

pub use chord::ChordOverlay;
pub use churn::{ChurnConfig, ChurnModel};
pub use kademlia::KademliaOverlay;
pub use traits::{HopOutcome, LookupOutcome, LookupState, Overlay, PlanScratch, Repair};
pub use trie::TrieOverlay;
