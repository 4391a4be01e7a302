//! Shared primitives for the PDHT reproduction.
//!
//! This crate hosts the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`PeerId`] — dense peer identifiers suitable for array indexing,
//! * [`Key`] and [`Prefix`] — the 64-bit binary key space of the structured
//!   overlay (the paper assumes a binary key space, Section 3.2 footnote 3),
//! * [`MessageKind`] and [`MsgCounts`] — the message taxonomy used for cost
//!   accounting (the paper's primary metric is messages, Section 3),
//! * [`SimTime`] / [`Round`] — the virtual-time axis (one *round* = 1 s),
//! * [`fasthash`] — an FxHash-style fast hasher for hot integer-keyed maps,
//! * [`rng`] — deterministic per-component random-number streams,
//! * [`PdhtError`] — the shared error type.

pub mod error;
pub mod fasthash;
pub mod key;
pub mod liveness;
pub mod msg;
pub mod peer;
pub mod rng;
pub mod time;

pub use error::PdhtError;
pub use fasthash::{FastHashMap, FastHashSet};
pub use key::{Key, Prefix, KEY_BITS};
pub use liveness::Liveness;
pub use msg::{MessageKind, MsgCounts};
pub use peer::PeerId;
pub use rng::{mix64, RngStreams};
pub use time::{Round, SimTime};

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, PdhtError>;
