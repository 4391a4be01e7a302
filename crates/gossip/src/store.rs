//! The versioned value replicas hold.
//!
//! Values carry monotonically increasing versions; a replica accepts an
//! incoming value only if its version is newer. The per-peer stores the
//! engine runs (`pdht_core`'s `PartialIndex`) take these but keep only the
//! version: the simulator's payload is the key's dense index.

/// A versioned value (the payload is an opaque u64 — the simulators never
/// look inside values; real deployments would store bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionedValue {
    /// Monotonically increasing per-key version.
    pub version: u64,
    /// Opaque payload.
    pub data: u64,
}
