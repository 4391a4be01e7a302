//! The unstructured ("Gnutella-like") overlay and its random-walk search.
//!
//! The paper's broadcast-search cost model (Eq. 6) abstracts an unstructured
//! network in which content is replicated at `repl` random peers and a
//! search visits `numPeers/repl` peers on average, with a message
//! duplication factor `dup ≈ 1.8` (\[LvCa02\]). This crate builds the real
//! thing:
//!
//! * [`Topology`] — connected random graphs with configurable degree
//!   (uniform or power-law-ish), the shape Gnutella measurements report,
//! * [`Replication`] — random placement of `repl` copies per item,
//! * [`search`] — k-random-walk search (\[LvCa02\]'s recommendation),
//!   counting every step, repeat visits included, so the measured cost
//!   per search is an *output* the experiments compare against Eq. 6
//!   (`numPeers/repl · dup`).

pub mod replicate;
pub mod search;
pub mod topology;

pub use replicate::Replication;
pub use search::{random_walks, RandomWalk, SearchOutcome, WalkWave};
pub use topology::Topology;
