//! The binary key space.
//!
//! The paper's analysis assumes a binary key space (Section 3.2, footnote 3).
//! We use 64-bit keys: metadata key-value pairs are hashed into a [`Key`] and
//! the structured overlay partitions the space by bit prefixes ([`Prefix`]),
//! exactly like P-Grid's trie paths.

use std::fmt;

/// Number of bits in a key.
pub const KEY_BITS: u32 = 64;

/// A point in the binary key space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u64);

impl Key {
    /// The zero key.
    pub const MIN: Key = Key(0);
    /// The all-ones key.
    pub const MAX: Key = Key(u64::MAX);

    /// Returns bit `i` of the key, where bit 0 is the *most significant* bit
    /// (trie convention: routing decisions start from the top bit).
    ///
    /// # Panics
    /// Panics if `i >= KEY_BITS`.
    #[inline]
    pub fn bit(self, i: u32) -> bool {
        assert!(i < KEY_BITS, "bit index {i} out of range");
        (self.0 >> (KEY_BITS - 1 - i)) & 1 == 1
    }

    /// Length of the common prefix (in bits, from the MSB) with `other`.
    #[inline]
    pub fn common_prefix_len(self, other: Key) -> u32 {
        (self.0 ^ other.0).leading_zeros()
    }

    /// The prefix consisting of the first `len` bits of this key.
    #[inline]
    pub fn prefix(self, len: u32) -> Prefix {
        Prefix::new(self.0, len)
    }

    /// Hashes arbitrary bytes into a key: 64-bit FNV-1a followed by a
    /// SplitMix64 finalizer — the classic "hash the metadata pair"
    /// construction of \[FeBi04\]. The finalizer matters because the overlay
    /// trie partitions on the *most significant* bits, where raw FNV-1a has
    /// poor avalanche for short inputs.
    pub fn hash_bytes(bytes: &[u8]) -> Key {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // SplitMix64 finalizer for full-width avalanche.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Key(h ^ (h >> 31))
    }

    /// Hashes a string (e.g. `"title=Weather Iráklion"`).
    #[inline]
    pub fn hash_str(s: &str) -> Key {
        Key::hash_bytes(s.as_bytes())
    }

    /// The routed key of dense key index `idx` in a synthetic key universe:
    /// [`Key::hash_bytes`] over the index's little-endian `u64` bytes. The
    /// one definition of that convention — the engine builds its universe
    /// with it, and per-peer stores re-derive an entry's routed key from
    /// its index instead of storing it.
    #[inline]
    pub fn of_index(idx: u32) -> Key {
        Key::hash_bytes(&u64::from(idx).to_le_bytes())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:016x})", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key(v)
    }
}

/// A bit prefix of the key space: the first `len` bits of `bits`
/// (MSB-aligned), identifying one leaf/region of the overlay trie.
///
/// `len == 0` is the whole key space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Prefix {
    bits: u64,
    len: u32,
}

impl Prefix {
    /// The empty prefix (whole key space).
    pub const ROOT: Prefix = Prefix { bits: 0, len: 0 };

    /// Creates a prefix from the top `len` bits of `bits`; lower bits are
    /// cleared so equal prefixes compare equal.
    ///
    /// # Panics
    /// Panics if `len > KEY_BITS`.
    #[inline]
    pub fn new(bits: u64, len: u32) -> Prefix {
        assert!(len <= KEY_BITS, "prefix length {len} out of range");
        let masked = if len == 0 { 0 } else { bits & (u64::MAX << (KEY_BITS - len)) };
        Prefix { bits: masked, len }
    }

    /// Prefix length in bits.
    #[inline]
    pub fn len(self) -> u32 {
        self.len
    }

    /// `true` for the zero-length (root) prefix.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The MSB-aligned bit pattern.
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Does `key` fall under this prefix?
    #[inline]
    pub fn contains(self, key: Key) -> bool {
        key.common_prefix_len(Key(self.bits)) >= self.len
    }

    /// Bit `i` (0-based from the MSB) of the prefix.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn bit(self, i: u32) -> bool {
        assert!(i < self.len, "bit index {i} out of prefix of length {}", self.len);
        Key(self.bits).bit(i)
    }

    /// Extends the prefix by one bit.
    ///
    /// # Panics
    /// Panics if the prefix is already `KEY_BITS` long.
    #[inline]
    pub fn child(self, bit: bool) -> Prefix {
        assert!(self.len < KEY_BITS, "cannot extend a full-length prefix");
        let mut bits = self.bits;
        if bit {
            bits |= 1u64 << (KEY_BITS - 1 - self.len);
        }
        Prefix { bits, len: self.len + 1 }
    }

    /// Drops the last bit of the prefix.
    ///
    /// # Panics
    /// Panics on the root prefix.
    #[inline]
    pub fn parent(self) -> Prefix {
        assert!(self.len > 0, "root prefix has no parent");
        Prefix::new(self.bits, self.len - 1)
    }

    /// The prefix that shares all but the last bit, with the last bit
    /// flipped — the "other side" that P-Grid routing references at each
    /// level.
    ///
    /// # Panics
    /// Panics on the root prefix.
    #[inline]
    pub fn sibling(self) -> Prefix {
        assert!(self.len > 0, "root prefix has no sibling");
        let flip = 1u64 << (KEY_BITS - self.len);
        Prefix { bits: self.bits ^ flip, len: self.len }
    }

    /// Is `self` a prefix of (or equal to) `other`?
    #[inline]
    pub fn is_prefix_of(self, other: Prefix) -> bool {
        self.len <= other.len && Prefix::new(other.bits, self.len) == self
    }

    /// The lowest key under this prefix.
    #[inline]
    pub fn min_key(self) -> Key {
        Key(self.bits)
    }

    /// The highest key under this prefix.
    #[inline]
    pub fn max_key(self) -> Key {
        if self.len == 0 {
            Key::MAX
        } else if self.len == KEY_BITS {
            Key(self.bits)
        } else {
            Key(self.bits | (u64::MAX >> self.len))
        }
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix(")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return write!(f, "ε");
        }
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_indexing_is_msb_first() {
        let k = Key(0x8000_0000_0000_0001);
        assert!(k.bit(0));
        assert!(!k.bit(1));
        assert!(k.bit(63));
    }

    #[test]
    fn common_prefix_len_matches_manual_comparison() {
        assert_eq!(Key(0).common_prefix_len(Key(0)), 64);
        assert_eq!(Key(0).common_prefix_len(Key(1)), 63);
        let a = Key(0b1010u64 << 60);
        let b = Key(0b1011u64 << 60);
        assert_eq!(a.common_prefix_len(b), 3);
    }

    #[test]
    fn prefix_contains_its_key_range() {
        let p = Prefix::new(0b101u64 << 61, 3);
        assert!(p.contains(p.min_key()));
        assert!(p.contains(p.max_key()));
        assert!(!p.contains(Key(p.min_key().0.wrapping_sub(1))));
        assert!(!p.contains(Key(p.max_key().0.wrapping_add(1))));
    }

    #[test]
    fn child_parent_roundtrip() {
        let mut p = Prefix::ROOT;
        for bit in [true, false, true, true, false] {
            p = p.child(bit);
        }
        assert_eq!(p.len(), 5);
        assert_eq!(format!("{p}"), "10110");
        for _ in 0..5 {
            p = p.parent();
        }
        assert_eq!(p, Prefix::ROOT);
    }

    #[test]
    fn sibling_flips_exactly_the_last_bit() {
        let p = Prefix::new(0b1010u64 << 60, 4);
        let s = p.sibling();
        assert_eq!(format!("{s}"), "1011");
        assert_eq!(s.sibling(), p);
    }

    #[test]
    fn sibling_ranges_are_disjoint_and_cover_parent() {
        let p = Prefix::new(0b01u64 << 62, 2);
        let s = p.sibling();
        assert!(!s.contains(p.min_key()));
        assert!(!p.contains(s.min_key()));
        let parent = p.parent();
        assert!(parent.contains(p.min_key()) && parent.contains(s.max_key()));
    }

    #[test]
    fn is_prefix_of_behaviour() {
        let p = Prefix::new(0b10u64 << 62, 2);
        let longer = p.child(true).child(false);
        assert!(p.is_prefix_of(longer));
        assert!(!longer.is_prefix_of(p));
        assert!(Prefix::ROOT.is_prefix_of(p));
        assert!(p.is_prefix_of(p));
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let a = Key::hash_str("title=Weather Iráklion");
        let b = Key::hash_str("title=Weather Iráklion");
        let c = Key::hash_str("size=2405");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // FNV of distinct short strings should differ in the top bits often
        // enough for trie partitioning; sanity-check a small collection.
        let keys: Vec<Key> = (0..64).map(|i| Key::hash_str(&format!("key-{i}"))).collect();
        let top_bits: std::collections::HashSet<bool> = keys.iter().map(|k| k.bit(0)).collect();
        assert_eq!(top_bits.len(), 2, "both top-bit values should occur");
    }

    #[test]
    fn of_index_is_pinned() {
        // The engine's key universe, hence every routed key and every
        // golden, rests on these values.
        assert_eq!(Key::of_index(0), Key(0x813f_0174_a236_7c13));
        assert_eq!(Key::of_index(1), Key(0x5ca6_bbcb_b1e8_5355));
        assert_eq!(Key::of_index(7), Key(0xae25_3598_b337_821e));
    }

    #[test]
    fn root_prefix_covers_everything() {
        assert!(Prefix::ROOT.contains(Key::MIN));
        assert!(Prefix::ROOT.contains(Key::MAX));
        assert_eq!(Prefix::ROOT.max_key(), Key::MAX);
        assert_eq!(format!("{}", Prefix::ROOT), "ε");
    }

    #[test]
    fn full_length_prefix_is_a_point() {
        let k = Key(0xdead_beef_0123_4567);
        let p = k.prefix(KEY_BITS);
        assert_eq!(p.min_key(), k);
        assert_eq!(p.max_key(), k);
        assert!(p.contains(k));
        assert!(!p.contains(Key(k.0 ^ 1)));
    }
}
