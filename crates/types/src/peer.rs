//! Peer identifiers.

use std::fmt;

/// A dense peer identifier.
///
/// Peers are stored in flat vectors throughout the simulators, so the id is a
/// plain index. `u32` keeps hot structures small (the paper's largest
/// scenario has 20 000 peers; `u32` leaves ample headroom).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Builds a `PeerId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_idx(i: usize) -> Self {
        PeerId(u32::try_from(i).expect("peer index exceeds u32"))
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

impl From<u32> for PeerId {
    fn from(v: u32) -> Self {
        PeerId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_id_roundtrips_through_index() {
        for i in [0usize, 1, 41, 19_999, u32::MAX as usize] {
            assert_eq!(PeerId::from_idx(i).idx(), i);
        }
    }

    #[test]
    #[should_panic(expected = "peer index exceeds u32")]
    fn peer_id_rejects_oversized_index() {
        let _ = PeerId::from_idx(u32::MAX as usize + 1);
    }

    #[test]
    fn peer_id_formats_compactly() {
        assert_eq!(format!("{}", PeerId(7)), "peer#7");
        assert_eq!(format!("{:?}", PeerId(7)), "peer#7");
    }
}
