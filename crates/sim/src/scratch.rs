//! The random walk's former visited-set scratch, kept as an empty type so
//! callers of the walk's earlier entry points still compile.

/// Field-less stand-in for the visited set that `RandomWalk::begin` and
/// `RandomWalk::wave` (in `pdht_unstructured`) once took; they ignore it.
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct VisitSet;

impl VisitSet {
    /// An empty stand-in; `len` is ignored.
    pub fn new(_len: usize) -> VisitSet {
        VisitSet
    }
}
