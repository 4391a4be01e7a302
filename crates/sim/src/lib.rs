//! Deterministic discrete-event simulation kernel.
//!
//! The paper evaluates P2P strategies by counting messages over rounds
//! (one round = 1 s). This crate provides the machinery every simulated
//! subsystem shares:
//!
//! * [`EventQueue`] — a stable priority queue over virtual time (ties break
//!   by insertion order, so runs are reproducible), backed by one
//!   hierarchical timing wheel whose 11 levels span every `u64` µs
//!   timestamp (amortized O(1) per operation; its binary-heap reference
//!   is the conformance proptest's oracle),
//! * [`Metrics`] — cumulative and per-round message accounting plus named
//!   gauges (index size, hit rate, …) and hop [`Histogram`]s,
//! * [`latency`] — pluggable per-hop [`LatencyModel`]s (zero, uniform,
//!   log-normal) for message-granular engines,
//! * [`random`] — exponential/Poisson/normal sampling built on plain
//!   `rand` (the offline set has no `rand_distr`),
//! * [`shard`] — shard-parallel execution primitives: a [`ShardPool`] of
//!   persistent parked workers plus deterministic cross-shard [`Outbox`]es
//!   appended to caller-owned [`MergeBuffers`] and sorted in place by
//!   `(time, src, seq)`, so parallel rounds stay bit-reproducible and the
//!   barriers allocation-free,
//! * [`Slab`] — a generational slab for in-flight per-query/per-update
//!   contexts, so event dispatch parks and resumes state allocation-free.

pub mod event;
pub mod latency;
pub mod metrics;
pub mod random;
mod scratch;
pub mod shard;
pub mod slab;
pub(crate) mod wheel;

pub use event::{EventQueue, Scheduled};
pub use latency::{LatencyModel, LogNormalLatency, UniformLatency, ZeroLatency};
pub use metrics::{Histogram, HistogramSummary, Metrics};
pub use scratch::VisitSet;
pub use shard::{merge_outboxes_into, MergeBuffers, OutMsg, Outbox, ShardPool};
pub use slab::{Slab, SlabKey};
