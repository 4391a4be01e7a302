//! Gossip payload codecs: how an update's payload is cut into packets.
//!
//! The rumor-spreading layer ([`crate::ReplicaGroup`]) decides *who* talks
//! to whom; the codec decides *what* a push carries and therefore whether a
//! receive is **innovative** (taught the receiver something) or
//! **redundant** (wasted bandwidth):
//!
//! * [`GossipCodec::Plain`] — the whole update in one packet. A receive is
//!   innovative iff the receiver did not already hold the version. This is
//!   the legacy behaviour; accounting is bit-for-bit identical to engines
//!   predating the codec knob.
//! * [`GossipCodec::Chunked`] — the update split into the generation's
//!   chunks; a sender forwards one random chunk it holds. Innovative iff
//!   the receiver lacked that chunk.
//! * [`GossipCodec::Rlnc`] — random linear network coding over GF(256): a
//!   sender emits a random combination of its received coefficient space.
//!   Innovative iff the packet raises the receiver's decoder rank. RLNC
//!   absorbs mid-wave duplicates as rank (two different combinations of
//!   the same generation are both useful), so at large replication factors
//!   the redundant-receive count drops well below `Plain`.
//! * [`GossipCodec::RlncSparse`] — RLNC with low-Hamming-weight coding
//!   vectors: each packet combines only ⌈G/4⌉ of the sender's rows, so
//!   encode cost stays flat as the generation grows. Same innovative/
//!   redundant classification; slightly higher linear-dependence odds.
//!
//! Everything here is pure GF(256) arithmetic over coefficient vectors —
//! no payload bytes move in the simulator, so a "packet" is just its
//! coefficient vector and decoding succeeds exactly when the receiver's
//! matrix reaches full rank. The *byte* accounting ([`GossipCodec::
//! push_bytes`], [`pull_bytes`]) prices what a real wire would carry:
//! the value fraction plus the codec's header (offer bitmap or coding
//! vector).
//!
//! # GF(256) kernels
//!
//! The portable mechanism: a const-built 64 KiB product table
//! (`GF_PROD[f][b] = f·b`, generated from the private Russian-peasant
//! `gf_mul_ref`) plus a 256-byte inverse table from the private
//! `gf_inv_ref`; the two loops build the tables and are this module's
//! tests' references, nothing else. [`gf_mul`], [`gf_axpy`] and
//! [`gf_scale`] all index the table — a row operation takes its
//! multiplier's 256-byte row once and spends one lookup per byte, with
//! nothing built per call. `Decoder` rows are echelon (row `c` is zero
//! before column `c`), so the table loops of elimination, encode and
//! sparse encode fold only the `[c..g]` tail of a row.
//!
//! On x86_64, [`Decoder::encode`] and [`Decoder::insert`] (and so
//! [`Decoder::absorb`]) instead run a row kernel that holds a whole
//! 32-byte row in one register. Each call picks the fastest
//! [`RowKernel`] tier the CPU has and runs its whole row loop there:
//!
//! * **GFNI** (AVX2 and GFNI): a multiply is one `vgf2p8mulb`, which
//!   multiplies bytes in GF(2⁸) modulo x⁸+x⁴+x³+x+1, this module's field.
//!   In `insert` the factor of held row `c` never leaves the packet
//!   register: byte `c` is broadcast by a `vpermd` and a `vpshufb`, and a
//!   `cmpeq`/`movemask` bit tests an absent column for a pivot, so only
//!   an innovative packet extracts a scalar (for `gf_inv`).
//! * **AVX2** (AVX2 without GFNI: Haswell to Cascade Lake, Zen 1–3): a
//!   multiply is two `vpshufb` lookups into the 8 KiB split-nibble table
//!   `GF_NIB[f] = [f·n, f·(n << 4)]`, also built from `gf_mul_ref`.
//!
//! The arithmetic is exact, so every tier gives the same bytes, RNG draws
//! and verdicts; the table loops stay as the portable path and as the
//! oracle every tier the CPU has is checked against
//! (`every_simd_row_kernel_matches_the_product_table`). `encode_sparse`,
//! `pick_chunk` and the public kernels stay on the table.
//!
//! # Decoder layout
//!
//! A decoder at generation `g` holds exactly `g` rows of a fixed
//! [`MAX_GENERATION`]-byte stride in one heap buffer, so a member's
//! scratch costs `32·g` bytes, not a 32×32 matrix at every generation.
//! The stride stays fixed because a row is a whole coefficient array:
//! absorb hands rows to `insert` as packets without repacking them (a
//! flat `g×g` layout measured 10–13 % slower on G = 32 waves). `reset`
//! keeps the buffer's capacity, so a pooled decoder allocates only when
//! its generation first grows. A 32×32 inline decoder is kept in this
//! module's tests as the reference model the layout is checked against.

use rand::rngs::SmallRng;
use rand::Rng;

/// Default chunks per generation: every update is cut into this many coded
/// chunks unless `PdhtConfig::gossip_generation` says otherwise. Small
/// enough that a degree-4 subnet can feed a member to full rank before
/// coin death, large enough that mid-wave duplicate pushes carry fresh
/// combinations instead of repeats.
pub const GENERATION_SIZE: usize = 8;

/// Hard cap on the generation size: coefficient vectors are inline
/// `[u8; MAX_GENERATION]` arrays and decoder rows keep that stride (a
/// decoder holds `g` of them), so this bounds the runtime
/// `gossip_generation` knob.
pub const MAX_GENERATION: usize = 32;

/// Nominal whole-value payload in bytes: the unit of the byte-accurate
/// cost model. A Plain push carries this much; a coded push carries
/// `VALUE_BYTES / G` plus its header.
pub const VALUE_BYTES: u64 = 1024;

/// How gossip packets are encoded (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GossipCodec {
    /// One packet carries the whole update (legacy accounting).
    #[default]
    Plain,
    /// Fixed chunks forwarded verbatim (unit coefficient vectors).
    Chunked,
    /// Random linear combinations over GF(256).
    Rlnc,
    /// Sparse random linear combinations (⌈G/4⌉ rows per packet).
    RlncSparse,
}

impl GossipCodec {
    /// `true` for the codecs that track per-member decoder state.
    pub fn is_coded(self) -> bool {
        self != GossipCodec::Plain
    }

    /// Bytes one push message carries at generation size `g`: the value
    /// fraction plus the codec's per-packet header. `Plain` ships the
    /// whole value; `Chunked` ships one chunk plus the offer bitmap
    /// (one bit per chunk) of the offer/request exchange; the RLNC
    /// codecs ship one chunk-sized coded payload plus the g-byte
    /// coefficient vector.
    pub fn push_bytes(self, g: usize) -> u64 {
        let chunk = (VALUE_BYTES / g as u64).max(1);
        match self {
            GossipCodec::Plain => VALUE_BYTES,
            GossipCodec::Chunked => chunk + g.div_ceil(8) as u64,
            GossipCodec::Rlnc | GossipCodec::RlncSparse => chunk + g as u64,
        }
    }
}

/// Bytes one anti-entropy pull costs at generation size `g` when the
/// donor holds `donor_rank` rows: a rank-advertisement bitmap in the
/// request plus the donor's whole received space (coded payload +
/// coefficient vector per row) in the response.
pub fn pull_bytes(g: usize, donor_rank: usize) -> u64 {
    let chunk = (VALUE_BYTES / g as u64).max(1);
    g.div_ceil(8) as u64 + donor_rank as u64 * (chunk + g as u64)
}

/// GF(256) multiply, reduction polynomial `x^8 + x^4 + x^3 + x + 1` (0x1b,
/// the AES field). Russian-peasant loop — no tables, constant 8 rounds.
/// This is the *reference* implementation: the product table behind
/// [`gf_mul`] is built from it and tested equal over all 256×256 pairs.
const fn gf_mul_ref(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// GF(256) multiplicative inverse via `a^254` (Fermat: `a^255 = 1`),
/// square-and-multiply over the peasant loop. Reference for (and source
/// of) the [`gf_inv`] table.
/// `gf_inv_ref(0)` is 0 by convention.
const fn gf_inv_ref(a: u8) -> u8 {
    // Square-and-multiply over the fixed exponent 254 = 0b1111_1110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul_ref(result, base);
        }
        base = gf_mul_ref(base, base);
        exp >>= 1;
    }
    result
}

/// The whole multiplication table, const-built from [`gf_mul_ref`]:
/// `GF_PROD[f][b] = f·b`. 64 KiB, but a row operation touches only the
/// 256-byte row of its multiplier, so the working set per axpy is four
/// cache lines and nothing is built per call.
static GF_PROD: [[u8; 256]; 256] = {
    let mut t = [[0u8; 256]; 256];
    let mut f = 0;
    while f < 256 {
        let mut b = 0;
        while b < 256 {
            t[f][b] = gf_mul_ref(f as u8, b as u8);
            b += 1;
        }
        f += 1;
    }
    t
};

/// The split-nibble table, const-built from [`gf_mul_ref`]: `GF_NIB[f] =
/// [f·n, f·(n << 4)]` for `n` in 0..16, so `f·b = GF_NIB[f][0][b & 15] ^
/// GF_NIB[f][1][b >> 4]`. 8 KiB; one multiplier's 32 bytes are the two
/// shuffle tables of the AVX2 row kernels.
#[cfg(target_arch = "x86_64")]
static GF_NIB: [[[u8; 16]; 2]; 256] = {
    let mut t = [[[0u8; 16]; 2]; 256];
    let mut f = 0;
    while f < 256 {
        let mut n = 0;
        while n < 16 {
            t[f][0][n] = gf_mul_ref(f as u8, n as u8);
            t[f][1][n] = gf_mul_ref(f as u8, (n << 4) as u8);
            n += 1;
        }
        f += 1;
    }
    t
};

/// Const-built inverses from [`gf_inv_ref`].
const GF_INV: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut a = 0;
    while a < 256 {
        t[a] = gf_inv_ref(a as u8);
        a += 1;
    }
    t
};

/// GF(256) multiply: one product-table lookup. Value-identical to the
/// Russian-peasant reference (tested over all 256×256 pairs).
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    GF_PROD[usize::from(a)][usize::from(b)]
}

/// GF(256) multiplicative inverse: one table lookup. `gf_inv(0)` is 0 by
/// convention; callers never invert zero pivots.
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    GF_INV[usize::from(a)]
}

/// GF(256) axpy: `dst[i] ^= f · src[i]` over equal-length slices, one
/// lookup per byte in the multiplier's product-table row. This is the
/// row-elimination / encode-accumulation kernel.
pub fn gf_axpy(dst: &mut [u8], src: &[u8], f: u8) {
    debug_assert_eq!(dst.len(), src.len());
    let prod = &GF_PROD[usize::from(f)];
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= prod[usize::from(s)];
    }
}

/// In-place GF(256) scale: `row[i] = f · row[i]` off the same table row
/// (the pivot-normalization kernel).
pub fn gf_scale(row: &mut [u8], f: u8) {
    let prod = &GF_PROD[usize::from(f)];
    for b in row.iter_mut() {
        *b = prod[usize::from(*b)];
    }
}

/// A coefficient vector: one gossip packet's coordinates over the
/// generation's chunks. Inline capacity-[`MAX_GENERATION`] array plus an
/// active length (the wave's generation size); bytes past `len` are
/// always zero, so whole-array copies stay cheap and comparable.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CoeffVec {
    coeffs: [u8; MAX_GENERATION],
    len: u8,
}

impl CoeffVec {
    /// The zero vector at generation size `g`.
    pub fn zero(g: usize) -> CoeffVec {
        debug_assert!((1..=MAX_GENERATION).contains(&g));
        CoeffVec { coeffs: [0; MAX_GENERATION], len: g as u8 }
    }

    /// The unit vector for chunk `c` at generation size `g`.
    pub fn unit(g: usize, c: usize) -> CoeffVec {
        debug_assert!(c < g);
        let mut v = CoeffVec::zero(g);
        v.coeffs[c] = 1;
        v
    }

    /// The generation size this vector indexes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` only for the (invalid) zero-generation vector.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The active coefficients.
    pub fn as_slice(&self) -> &[u8] {
        &self.coeffs[..usize::from(self.len)]
    }

    /// The active coefficients, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.coeffs[..usize::from(self.len)]
    }
}

/// Generation-8 packets from plain arrays (test/fixture ergonomics).
impl From<[u8; GENERATION_SIZE]> for CoeffVec {
    fn from(a: [u8; GENERATION_SIZE]) -> CoeffVec {
        let mut v = CoeffVec::zero(GENERATION_SIZE);
        v.coeffs[..GENERATION_SIZE].copy_from_slice(&a);
        v
    }
}

impl std::fmt::Debug for CoeffVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoeffVec({:?})", self.as_slice())
    }
}

/// Per-member decoding state: a row-echelon GF(256) matrix at a runtime
/// generation size `g ∈ 1..=MAX_GENERATION`, stored as exactly `g` rows of
/// stride [`MAX_GENERATION`] (see the module docs). Row `c`, when present,
/// is zero before column `c`, has its pivot (leading 1) in column `c` and
/// is zero from column `g` on — `encode` and `absorb` rely on all three;
/// absent rows are all zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decoder {
    /// `g` rows; the length is the generation size.
    rows: Vec<[u8; MAX_GENERATION]>,
    present: [bool; MAX_GENERATION],
    rank: u8,
}

impl Decoder {
    /// A decoder that has seen nothing, at generation size `g`.
    pub fn empty(g: usize) -> Decoder {
        debug_assert!((1..=MAX_GENERATION).contains(&g), "generation {g} out of range");
        Decoder { rows: vec![[0; MAX_GENERATION]; g], present: [false; MAX_GENERATION], rank: 0 }
    }

    /// A full-rank decoder at generation size `g` (the update's origin,
    /// which holds the payload).
    pub fn full(g: usize) -> Decoder {
        let mut d = Decoder::empty(g);
        d.make_full();
        d
    }

    /// Resets to [`Decoder::empty`] at generation size `g` in place (the
    /// pooled-scratch path: rows rezeroed so equality and row copies never
    /// see stale state; the row buffer keeps its capacity, so this
    /// allocates only when `g` exceeds every generation it held before).
    pub fn reset(&mut self, g: usize) {
        debug_assert!((1..=MAX_GENERATION).contains(&g), "generation {g} out of range");
        self.rows.clear();
        self.rows.resize(g, [0; MAX_GENERATION]);
        self.present = [false; MAX_GENERATION];
        self.rank = 0;
    }

    /// Makes this decoder full-rank at its generation size in place — what
    /// [`Decoder::full`] builds, without a new row buffer (a wave's origin
    /// in a pooled slot).
    pub(crate) fn make_full(&mut self) {
        for (c, row) in self.rows.iter_mut().enumerate() {
            *row = [0; MAX_GENERATION];
            row[c] = 1;
            self.present[c] = true;
        }
        self.rank = self.rows.len() as u8;
    }

    /// The generation size this decoder decodes.
    pub fn generation(&self) -> usize {
        self.rows.len()
    }

    /// Independent packets received so far.
    pub fn rank(&self) -> usize {
        usize::from(self.rank)
    }

    /// `true` once every chunk can be recovered.
    pub fn is_complete(&self) -> bool {
        self.rank() == self.rows.len()
    }

    /// Heap bytes of the row buffer (its capacity, which `reset` keeps).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.capacity() * MAX_GENERATION
    }

    /// Folds one packet in. Returns `true` iff it was innovative (raised
    /// the rank). Gaussian elimination against the stored echelon rows;
    /// the reduced vector becomes a new normalized pivot row or vanishes.
    pub fn insert(&mut self, v: CoeffVec) -> bool {
        self.insert_on(RowKernel::detect(), v)
    }

    /// [`Decoder::insert`] on `kernel`, or off the product table when this
    /// CPU lacks the kernel's features (each arm re-detects them).
    fn insert_on(&mut self, kernel: RowKernel, v: CoeffVec) -> bool {
        debug_assert_eq!(v.len(), self.rows.len(), "packet generation mismatch");
        match kernel {
            #[cfg(target_arch = "x86_64")]
            RowKernel::Gfni
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("gfni") =>
            {
                // SAFETY: the CPU supports AVX2 and GFNI, detected by the guard.
                #[allow(unsafe_code)]
                unsafe {
                    gfni::insert(self, v)
                }
            }
            #[cfg(target_arch = "x86_64")]
            RowKernel::Avx2 if is_x86_feature_detected!("avx2") => {
                // SAFETY: the CPU supports AVX2, detected by the guard.
                #[allow(unsafe_code)]
                unsafe {
                    avx2::insert(self, v)
                }
            }
            _ => self.insert_table(v),
        }
    }

    /// [`Decoder::insert`] off the product table, one lookup per byte of
    /// each `[c..g]` fold: the portable path.
    fn insert_table(&mut self, mut v: CoeffVec) -> bool {
        let g = self.rows.len();
        for (c, row) in self.rows.iter_mut().enumerate() {
            let f = v.coeffs[c];
            if f == 0 {
                continue;
            }
            if self.present[c] {
                gf_axpy(&mut v.coeffs[c..g], &row[c..g], f);
            } else {
                let inv = gf_inv(f);
                gf_scale(&mut v.coeffs[c..g], inv);
                *row = v.coeffs;
                self.present[c] = true;
                self.rank += 1;
                return true;
            }
        }
        false
    }

    /// A fresh random combination of everything this decoder holds
    /// ([`GossipCodec::Rlnc`] send path). Draws one GF(256) coefficient per
    /// held row; the zero vector at rank 0 (receivers count it redundant).
    /// Row `c` is echelon — zero before its pivot column `c` — so only
    /// `[c..g]` of it is folded.
    pub fn encode(&self, rng: &mut SmallRng) -> CoeffVec {
        self.encode_on(RowKernel::detect(), rng)
    }

    /// [`Decoder::encode`] on `kernel`, or off the product table when this
    /// CPU lacks the kernel's features (each arm re-detects them).
    fn encode_on(&self, kernel: RowKernel, rng: &mut SmallRng) -> CoeffVec {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            RowKernel::Gfni
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("gfni") =>
            {
                // SAFETY: the CPU supports AVX2 and GFNI, detected by the guard.
                #[allow(unsafe_code)]
                unsafe {
                    gfni::encode(self, rng)
                }
            }
            #[cfg(target_arch = "x86_64")]
            RowKernel::Avx2 if is_x86_feature_detected!("avx2") => {
                // SAFETY: the CPU supports AVX2, detected by the guard.
                #[allow(unsafe_code)]
                unsafe {
                    avx2::encode(self, rng)
                }
            }
            _ => self.encode_table(rng),
        }
    }

    /// [`Decoder::encode`] off the product table: the portable path.
    fn encode_table(&self, rng: &mut SmallRng) -> CoeffVec {
        let g = self.rows.len();
        let mut out = CoeffVec::zero(g);
        for (c, row) in self.rows.iter().enumerate() {
            if !self.present[c] {
                continue;
            }
            let coeff: u8 = rng.random();
            gf_axpy(&mut out.coeffs[c..g], &row[c..g], coeff);
        }
        out
    }

    /// A sparse random combination ([`GossipCodec::RlncSparse`] send
    /// path): ⌈G/4⌉ draws of (held row, nonzero coefficient), each folded
    /// in with [`gf_axpy`] over the row's `[c..g]` like [`Decoder::
    /// encode`]. Encode cost is O(G) rows → O(⌈G/4⌉) rows, so it stays
    /// flat as the generation grows; repeated row picks merge
    /// coefficients (still a valid, merely sparser, combination). The
    /// zero vector at rank 0.
    pub fn encode_sparse(&self, rng: &mut SmallRng) -> CoeffVec {
        let g = self.rows.len();
        let mut out = CoeffVec::zero(g);
        if self.rank == 0 {
            return out;
        }
        for _ in 0..g.div_ceil(4) {
            let pick = rng.random_range(0..self.rank());
            let c = (0..g).filter(|&c| self.present[c]).nth(pick).expect("rank held rows");
            let coeff = rng.random_range(1..=255u8);
            gf_axpy(&mut out.coeffs[c..g], &self.rows[c][c..g], coeff);
        }
        out
    }

    /// `true` if the decoder can already produce chunk `c` on its own
    /// (under [`GossipCodec::Chunked`], where rows stay unit vectors,
    /// this is simply "holds chunk `c`").
    pub fn holds(&self, c: usize) -> bool {
        self.present[c]
    }

    /// One chunk this decoder holds, uniformly at random
    /// ([`GossipCodec::Chunked`] send path, where rows are always unit
    /// vectors). `None` at rank 0.
    pub fn pick_chunk(&self, rng: &mut SmallRng) -> Option<CoeffVec> {
        if self.rank == 0 {
            return None;
        }
        let g = self.rows.len();
        let pick = rng.random_range(0..self.rank());
        let c = (0..g).filter(|&c| self.present[c]).nth(pick)?;
        Some(CoeffVec::unit(g, c))
    }

    /// Anti-entropy: folds every row of `donor` in. Returns the rank
    /// gained (a pull transfers the donor's whole received space). Donor
    /// rows are read in place — they are zero past the generation, so a
    /// row is already a valid packet — and, being echelon, cost `insert`
    /// only their `[c..g]` tail.
    pub fn absorb(&mut self, donor: &Decoder) -> usize {
        debug_assert_eq!(self.rows.len(), donor.rows.len(), "generation mismatch in absorb");
        let before = self.rank();
        let len = self.rows.len() as u8;
        for (c, &row) in donor.rows.iter().enumerate() {
            if donor.present[c] {
                self.insert(CoeffVec { coeffs: row, len });
            }
        }
        self.rank() - before
    }
}

/// The row kernel tier [`Decoder::insert`] and [`Decoder::encode`] run
/// on (see the module docs); [`RowKernel::detect`] picks it per call.
/// Ordered by speed, and each tier's features include the ones below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RowKernel {
    /// The portable product-table loops.
    Table,
    /// AVX2: a multiply is two `vpshufb` lookups into the nibble tables.
    Avx2,
    /// AVX2 and GFNI: a multiply is one `vgf2p8mulb`.
    Gfni,
}

impl RowKernel {
    /// The fastest tier this CPU runs (so it runs every tier up to it).
    pub fn detect() -> RowKernel {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return if is_x86_feature_detected!("gfni") {
                RowKernel::Gfni
            } else {
                RowKernel::Avx2
            };
        }
        RowKernel::Table
    }
}

/// The AVX2 row kernels: each is the whole row loop of one [`Decoder`]
/// operation, with a 32-byte row in one `__m256i` and a multiply as two
/// `vpshufb` lookups into the multiplier's [`GF_NIB`] tables. A full-width
/// row op equals the `[c..g]` fold byte for byte: stored rows are zero
/// outside `[c, g)`, and a reduced packet is zero before its pivot.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{gf_inv, CoeffVec, Decoder, GF_NIB, MAX_GENERATION};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::arch::x86_64::*;

    type Row = [u8; MAX_GENERATION];

    /// Little-endian 64-bit word `i` of `bytes`.
    #[inline]
    fn word(bytes: &[u8], i: usize) -> i64 {
        i64::from_le_bytes(std::array::from_fn(|k| bytes[8 * i + k]))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn load(row: &Row) -> __m256i {
        let [w0, w1, w2, w3]: [i64; 4] = std::array::from_fn(|i| word(row, i));
        _mm256_setr_epi64x(w0, w1, w2, w3)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn store(x: __m256i) -> Row {
        let words = [
            _mm256_extract_epi64::<0>(x),
            _mm256_extract_epi64::<1>(x),
            _mm256_extract_epi64::<2>(x),
            _mm256_extract_epi64::<3>(x),
        ];
        std::array::from_fn(|k| words[k / 8].to_le_bytes()[k % 8])
    }

    /// `f · x` bytewise: the low and high nibble of every byte index
    /// `f`'s two 16-entry tables, each broadcast to both 128-bit lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul(x: __m256i, f: u8) -> __m256i {
        let [lo, hi] = &GF_NIB[usize::from(f)];
        let lo = _mm256_set_epi64x(word(lo, 1), word(lo, 0), word(lo, 1), word(lo, 0));
        let hi = _mm256_set_epi64x(word(hi, 1), word(hi, 0), word(hi, 1), word(hi, 0));
        let nibble = _mm256_set1_epi8(0x0f);
        let low = _mm256_and_si256(x, nibble);
        let high = _mm256_and_si256(_mm256_srli_epi16::<4>(x), nibble);
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, low), _mm256_shuffle_epi8(hi, high))
    }

    /// [`Decoder::encode`]: one coefficient drawn per present row in
    /// ascending `c`, each row folded in whole.
    #[target_feature(enable = "avx2")]
    pub(super) fn encode(d: &Decoder, rng: &mut SmallRng) -> CoeffVec {
        let mut acc = _mm256_setzero_si256();
        for (row, _) in d.rows.iter().zip(&d.present).filter(|(_, &held)| held) {
            acc = _mm256_xor_si256(acc, mul(load(row), rng.random()));
        }
        CoeffVec { coeffs: store(acc), len: d.rows.len() as u8 }
    }

    /// [`Decoder::insert`]: the reduction against every held pivot row,
    /// then the pivot scale of an innovative packet.
    #[target_feature(enable = "avx2")]
    pub(super) fn insert(d: &mut Decoder, v: CoeffVec) -> bool {
        let mut x = load(&v.coeffs);
        let mut bytes = v.coeffs;
        for (c, row) in d.rows.iter_mut().enumerate() {
            let f = bytes[c];
            if f == 0 {
                continue;
            }
            if d.present[c] {
                x = _mm256_xor_si256(x, mul(load(row), f));
                bytes = store(x);
            } else {
                *row = store(mul(x, gf_inv(f)));
                d.present[c] = true;
                d.rank += 1;
                return true;
            }
        }
        false
    }
}

/// The GFNI row kernels: `vgf2p8mulb` multiplies bytes in GF(2⁸) modulo
/// x⁸+x⁴+x³+x+1, this module's field, so one instruction replaces the two
/// nibble lookups of the AVX2 kernels and needs no table. In `insert` the
/// factor of a held row is broadcast from the packet register, never
/// stored and reloaded.
#[cfg(target_arch = "x86_64")]
mod gfni {
    use super::avx2::{load, store};
    use super::{gf_inv, CoeffVec, Decoder};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::arch::x86_64::*;

    /// Byte `c` of `x` in every byte: its dword broadcast to all eight,
    /// then byte `c % 4` of the dword picked in each 128-bit lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat_byte(x: __m256i, c: usize) -> __m256i {
        let dword = _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32((c / 4) as i32));
        _mm256_shuffle_epi8(dword, _mm256_set1_epi8((c % 4) as i8))
    }

    /// [`Decoder::encode`]: one coefficient drawn per present row in
    /// ascending `c`, each row folded in whole.
    #[target_feature(enable = "avx2,gfni")]
    pub(super) fn encode(d: &Decoder, rng: &mut SmallRng) -> CoeffVec {
        let mut acc = _mm256_setzero_si256();
        for (row, _) in d.rows.iter().zip(&d.present).filter(|(_, &held)| held) {
            let f: u8 = rng.random();
            acc = _mm256_xor_si256(acc, _mm256_gf2p8mul_epi8(load(row), _mm256_set1_epi8(f as i8)));
        }
        CoeffVec { coeffs: store(acc), len: d.rows.len() as u8 }
    }

    /// [`Decoder::insert`]: every held row is folded in by the packet's
    /// byte at its pivot (a zero factor folds in zero), and the first
    /// absent column with a nonzero byte takes the scaled packet.
    #[target_feature(enable = "avx2,gfni")]
    pub(super) fn insert(d: &mut Decoder, v: CoeffVec) -> bool {
        let mut x = load(&v.coeffs);
        for (c, row) in d.rows.iter_mut().enumerate() {
            if d.present[c] {
                x = _mm256_xor_si256(x, _mm256_gf2p8mul_epi8(load(row), splat_byte(x, c)));
                continue;
            }
            let zeros = _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, _mm256_setzero_si256()));
            if (zeros as u32 >> c) & 1 == 0 {
                let inv = gf_inv(store(x)[c]);
                *row = store(_mm256_gf2p8mul_epi8(x, _mm256_set1_epi8(inv as i8)));
                d.present[c] = true;
                d.rank += 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn gf_field_axioms_hold() {
        // Spot-check associativity/commutativity/distributivity on a grid,
        // and the identity/annihilator.
        for a in [0u8, 1, 2, 3, 0x53, 0x80, 0xca, 0xff] {
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(1, a), a);
            assert_eq!(gf_mul(a, 0), 0);
            for b in [0u8, 1, 7, 0x53, 0xca, 0xff] {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
                for c in [1u8, 5, 0x1b, 0xfe] {
                    assert_eq!(gf_mul(gf_mul(a, b), c), gf_mul(a, gf_mul(b, c)));
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
        // AES S-box anchor value: 0x53 · 0xca = 1.
        assert_eq!(gf_mul(0x53, 0xca), 1);
    }

    /// The product table (`gf_mul(f, b)` is `GF_PROD[f][b]`, the lookup
    /// the row kernels make) equals the reference over all 256 × 256 pairs.
    #[test]
    fn table_mul_matches_the_peasant_reference_exhaustively() {
        for f in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(f, b), gf_mul_ref(f, b), "f={f:#x} b={b:#x}");
            }
        }
    }

    /// Both split-nibble lookups of every multiplier recombine to the
    /// reference product over all 256 × 256 pairs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn nibble_table_matches_the_peasant_reference_exhaustively() {
        for f in 0..=255u8 {
            let [lo, hi] = &GF_NIB[usize::from(f)];
            for b in 0..=255u8 {
                let got = lo[usize::from(b & 15)] ^ hi[usize::from(b >> 4)];
                assert_eq!(got, gf_mul_ref(f, b), "f={f:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn gf_inverse_is_exact_for_every_nonzero_element() {
        assert_eq!(gf_inv(0), 0);
        assert_eq!(gf_inv_ref(0), 0);
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a:#x}");
            assert_eq!(gf_inv(a), gf_inv_ref(a), "a = {a:#x}");
        }
    }

    #[test]
    fn axpy_matches_bytewise_reference_at_every_length_and_offset() {
        let mut rng = SmallRng::seed_from_u64(31);
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 31, 32, 33, 100] {
            for _ in 0..8 {
                let f: u8 = rng.random();
                let src: Vec<u8> = (0..len).map(|_| rng.random()).collect();
                let mut dst: Vec<u8> = (0..len).map(|_| rng.random()).collect();
                let expect: Vec<u8> =
                    dst.iter().zip(&src).map(|(&d, &s)| d ^ gf_mul_ref(f, s)).collect();
                gf_axpy(&mut dst, &src, f);
                assert_eq!(dst, expect, "len={len} f={f:#x}");
            }
        }
    }

    #[test]
    fn scale_matches_bytewise_reference() {
        let mut rng = SmallRng::seed_from_u64(37);
        for len in [1usize, 8, 13, 32] {
            let f: u8 = rng.random();
            let mut row: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            let expect: Vec<u8> = row.iter().map(|&b| gf_mul_ref(f, b)).collect();
            gf_scale(&mut row, f);
            assert_eq!(row, expect);
        }
    }

    #[test]
    fn unit_vectors_reach_full_rank_exactly_once_each() {
        for g in [1usize, 8, 16, 32] {
            let mut d = Decoder::empty(g);
            for c in 0..g {
                let v = CoeffVec::unit(g, c);
                assert!(d.insert(v), "first copy of chunk {c} must be innovative");
                assert!(!d.insert(v), "second copy of chunk {c} must be redundant");
            }
            assert!(d.is_complete());
        }
    }

    #[test]
    fn dependent_combinations_are_redundant() {
        let mut d = Decoder::empty(GENERATION_SIZE);
        assert!(d.insert([1, 2, 0, 0, 0, 0, 0, 0].into()));
        assert!(d.insert([0, 0, 3, 0, 0, 0, 0, 0].into()));
        // 5·(1,2,0,..) + 7·(0,0,3,..) is in the span.
        let mut dep = [0u8; GENERATION_SIZE];
        for k in 0..GENERATION_SIZE {
            dep[k] =
                gf_mul(5, [1, 2, 0, 0, 0, 0, 0, 0][k]) ^ gf_mul(7, [0, 0, 3, 0, 0, 0, 0, 0][k]);
        }
        assert!(!d.insert(dep.into()));
        assert_eq!(d.rank(), 2);
        // Something outside the span is still innovative.
        assert!(d.insert([0, 1, 0, 4, 0, 0, 0, 0].into()));
        assert_eq!(d.rank(), 3);
    }

    #[test]
    fn zero_vector_is_never_innovative() {
        let mut d = Decoder::empty(GENERATION_SIZE);
        assert!(!d.insert(CoeffVec::zero(GENERATION_SIZE)));
        assert_eq!(d.rank(), 0);
    }

    #[test]
    fn random_encodes_from_a_full_decoder_decode_quickly() {
        // A receiver fed random combinations of a full-rank sender reaches
        // full rank in G innovative receives with high probability per
        // packet (255/256 per draw over GF(256)). Holds at every
        // generation size the config accepts.
        for g in [8usize, 16, 32] {
            let mut rng = SmallRng::seed_from_u64(7);
            let src = Decoder::full(g);
            let mut dst = Decoder::empty(g);
            let mut receives = 0;
            while !dst.is_complete() {
                dst.insert(src.encode(&mut rng));
                receives += 1;
                assert!(receives < 4 * g, "decoder failed to converge at g={g}");
            }
            assert!(receives <= g + 2, "took {receives} receives at g={g}");
        }
    }

    #[test]
    fn sparse_encodes_from_a_full_decoder_converge() {
        // Sparse packets span fewer rows each, so convergence needs more
        // receives than dense RLNC — but it must still complete well
        // before a wave's worth of pushes at every generation size.
        for g in [8usize, 16, 32] {
            let mut rng = SmallRng::seed_from_u64(13);
            let src = Decoder::full(g);
            let mut dst = Decoder::empty(g);
            let mut receives = 0;
            while !dst.is_complete() {
                dst.insert(src.encode_sparse(&mut rng));
                receives += 1;
                assert!(receives < 16 * g, "sparse decoder failed to converge at g={g}");
            }
        }
    }

    #[test]
    fn sparse_packets_have_bounded_support_at_the_origin() {
        // At the origin (unit rows) a sparse packet combines ⌈G/4⌉ rows,
        // so its Hamming weight is at most ⌈G/4⌉.
        let mut rng = SmallRng::seed_from_u64(17);
        for g in [8usize, 16, 32] {
            let src = Decoder::full(g);
            for _ in 0..32 {
                let v = src.encode_sparse(&mut rng);
                let weight = v.as_slice().iter().filter(|&&b| b != 0).count();
                assert!(weight <= g.div_ceil(4), "weight {weight} > {} at g={g}", g.div_ceil(4));
            }
        }
    }

    #[test]
    fn absorb_transfers_the_donor_space() {
        let mut rng = SmallRng::seed_from_u64(9);
        let full = Decoder::full(GENERATION_SIZE);
        let mut donor = Decoder::empty(GENERATION_SIZE);
        for _ in 0..4 {
            donor.insert(full.encode(&mut rng));
        }
        let mut me = Decoder::empty(GENERATION_SIZE);
        let gained = me.absorb(&donor);
        assert_eq!(gained, donor.rank());
        assert_eq!(me.absorb(&donor), 0, "second absorb must be redundant");
    }

    #[test]
    fn chunked_picks_only_held_chunks() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut d = Decoder::empty(GENERATION_SIZE);
        assert_eq!(d.pick_chunk(&mut rng), None);
        let v = CoeffVec::unit(GENERATION_SIZE, 3);
        d.insert(v);
        for _ in 0..8 {
            assert_eq!(d.pick_chunk(&mut rng), Some(v));
        }
    }

    #[test]
    fn reset_restores_an_empty_decoder_at_the_new_generation() {
        let mut d = Decoder::full(8);
        d.reset(32);
        assert_eq!(d, Decoder::empty(32));
        assert_eq!(d.generation(), 32);
        d.reset(8);
        assert_eq!(d, Decoder::empty(8));
        assert_eq!(d.heap_bytes(), 32 * MAX_GENERATION, "reset keeps the row buffer");
        assert_eq!(Decoder::empty(8).heap_bytes(), 8 * MAX_GENERATION);
    }

    /// The runtime-G decoder at G=8 reproduces the pre-change fixed-8
    /// decoder bit-for-bit: encode streams and insert classifications
    /// captured from the fixed-size implementation, pinned byte-exact.
    /// (RNG draw order through `encode` must also be unchanged — one
    /// `random::<u8>()` per present row, in row order.)
    #[test]
    fn runtime_generation_at_8_matches_the_fixed_8_golden_sequences() {
        let mut rng = SmallRng::seed_from_u64(0xfeed);
        let full = Decoder::full(8);
        let golden_encodes: [[u8; 8]; 4] = [
            [78, 55, 236, 118, 91, 181, 172, 2],
            [185, 34, 230, 58, 158, 250, 9, 168],
            [51, 230, 93, 92, 68, 40, 156, 200],
            [125, 75, 159, 221, 4, 243, 193, 158],
        ];
        for expect in golden_encodes {
            assert_eq!(full.encode(&mut rng), CoeffVec::from(expect));
        }
        // The insert stream drawn right after those encodes (same rng),
        // masked to &0x3 to force dependent vectors: classifications and
        // ranks pinned from the fixed-8 implementation.
        let mut d = Decoder::empty(8);
        let golden_cls =
            [true, true, true, true, true, true, true, true, false, false, false, false];
        for expect in golden_cls {
            let mut v = [0u8; 8];
            for b in v.iter_mut() {
                *b = rng.random();
            }
            for b in v.iter_mut() {
                *b &= 0x3;
            }
            assert_eq!(d.insert(v.into()), expect);
        }
        assert_eq!(d.rank(), 8);
        // Partial-rank encodes, pinned.
        let mut rng2 = SmallRng::seed_from_u64(0xbeef);
        let mut p = Decoder::empty(8);
        p.insert([1, 2, 3, 4, 5, 6, 7, 8].into());
        p.insert([0, 1, 0, 1, 0, 1, 0, 1].into());
        let golden_partial: [[u8; 8]; 3] = [
            [161, 158, 248, 117, 19, 44, 74, 184],
            [21, 199, 63, 185, 65, 147, 107, 69],
            [231, 173, 50, 201, 86, 28, 131, 1],
        ];
        for expect in golden_partial {
            assert_eq!(p.encode(&mut rng2), CoeffVec::from(expect));
        }
    }

    #[test]
    fn push_bytes_prices_the_codec_headers() {
        assert_eq!(GossipCodec::Plain.push_bytes(8), VALUE_BYTES);
        assert_eq!(GossipCodec::Plain.push_bytes(32), VALUE_BYTES);
        // Chunked at G=8: 128-byte chunk + 1-byte offer bitmap.
        assert_eq!(GossipCodec::Chunked.push_bytes(8), 128 + 1);
        // Rlnc at G=32: 32-byte chunk + 32-byte coefficient vector.
        assert_eq!(GossipCodec::Rlnc.push_bytes(32), 32 + 32);
        assert_eq!(GossipCodec::RlncSparse.push_bytes(32), 32 + 32);
        // Pull: 4-byte bitmap + donor_rank coded rows.
        assert_eq!(pull_bytes(32, 0), 4);
        assert_eq!(pull_bytes(32, 5), 4 + 5 * (32 + 32));
        assert_eq!(pull_bytes(8, 8), 1 + 8 * (128 + 8));
    }

    /// A decoder fed `packets` random vectors at generation `g`; `mask`
    /// thins the byte alphabet so dependent vectors and zero coefficients
    /// (partial rank, skipped pivots) actually occur.
    fn random_decoder(g: usize, packets: usize, mask: u8, rng: &mut SmallRng) -> Decoder {
        let mut d = Decoder::empty(g);
        for _ in 0..packets {
            let mut v = CoeffVec::zero(g);
            v.as_mut_slice().iter_mut().for_each(|b| *b = rng.random::<u8>() & mask);
            d.insert(v);
        }
        d
    }

    /// `out ^= coeff · row` over the whole row with the reference multiply
    /// — the untruncated fold the triangular encodes must equal.
    fn fold_full_width(out: &mut [u8; MAX_GENERATION], row: &[u8; MAX_GENERATION], coeff: u8) {
        for (o, &r) in out.iter_mut().zip(row) {
            *o ^= gf_mul_ref(coeff, r);
        }
    }

    /// The reference model: a decoder with all 32 rows inline whatever the
    /// generation, and an explicit generation field — the layout
    /// [`Decoder`] had before its rows were sized to the generation.
    #[derive(Clone)]
    struct RefDecoder {
        rows: [[u8; MAX_GENERATION]; MAX_GENERATION],
        present: [bool; MAX_GENERATION],
        rank: u8,
        gen: u8,
    }

    impl RefDecoder {
        fn empty(g: usize) -> RefDecoder {
            RefDecoder {
                rows: [[0; MAX_GENERATION]; MAX_GENERATION],
                present: [false; MAX_GENERATION],
                rank: 0,
                gen: g as u8,
            }
        }

        fn make_full(&mut self) {
            *self = RefDecoder::empty(usize::from(self.gen));
            for c in 0..usize::from(self.gen) {
                self.rows[c][c] = 1;
                self.present[c] = true;
            }
            self.rank = self.gen;
        }

        fn insert(&mut self, mut v: CoeffVec) -> bool {
            let g = usize::from(self.gen);
            for c in 0..g {
                let f = v.coeffs[c];
                if f == 0 {
                    continue;
                }
                if self.present[c] {
                    gf_axpy(&mut v.coeffs[c..g], &self.rows[c][c..g], f);
                } else {
                    let inv = gf_inv(f);
                    gf_scale(&mut v.coeffs[c..g], inv);
                    self.rows[c] = v.coeffs;
                    self.present[c] = true;
                    self.rank += 1;
                    return true;
                }
            }
            false
        }

        fn encode(&self, rng: &mut SmallRng) -> CoeffVec {
            let g = usize::from(self.gen);
            let mut out = CoeffVec::zero(g);
            for c in 0..g {
                if !self.present[c] {
                    continue;
                }
                let coeff: u8 = rng.random();
                gf_axpy(&mut out.coeffs[c..g], &self.rows[c][c..g], coeff);
            }
            out
        }

        fn encode_sparse(&self, rng: &mut SmallRng) -> CoeffVec {
            let g = usize::from(self.gen);
            let mut out = CoeffVec::zero(g);
            if self.rank == 0 {
                return out;
            }
            for _ in 0..g.div_ceil(4) {
                let pick = rng.random_range(0..usize::from(self.rank));
                let c = (0..g).filter(|&c| self.present[c]).nth(pick).expect("rank held rows");
                let coeff = rng.random_range(1..=255u8);
                gf_axpy(&mut out.coeffs[c..g], &self.rows[c][c..g], coeff);
            }
            out
        }

        fn pick_chunk(&self, rng: &mut SmallRng) -> Option<CoeffVec> {
            if self.rank == 0 {
                return None;
            }
            let g = usize::from(self.gen);
            let pick = rng.random_range(0..usize::from(self.rank));
            let c = (0..g).filter(|&c| self.present[c]).nth(pick)?;
            Some(CoeffVec::unit(g, c))
        }

        fn absorb(&mut self, donor: &RefDecoder) -> usize {
            let before = self.rank;
            for c in 0..usize::from(self.gen) {
                if donor.present[c] {
                    self.insert(CoeffVec { coeffs: donor.rows[c], len: self.gen });
                }
            }
            usize::from(self.rank - before)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// What the triangular folds rely on, in the generation-sized
        /// layout: after any insert stream there are exactly `g` rows;
        /// every stored row `c` is zero before column `c`, has pivot 1 in
        /// column `c`, and is zero from the generation size on; every
        /// absent row is zero.
        #[test]
        fn stored_rows_stay_echelon_and_zero_padded(
            g in 1usize..=32,
            packets in 0usize..64,
            mask in prop::sample::select(vec![0x01u8, 0x03, 0xff]),
            seed in any::<u64>(),
        ) {
            let d = random_decoder(g, packets, mask, &mut SmallRng::seed_from_u64(seed));
            prop_assert_eq!(d.rows.len(), g);
            let mut held = 0;
            for (c, row) in d.rows.iter().enumerate() {
                if !d.present[c] {
                    prop_assert!(row.iter().all(|&b| b == 0), "absent row {c} is not zero");
                    continue;
                }
                held += 1;
                prop_assert!(row[..c].iter().all(|&b| b == 0), "row {c} before its pivot");
                prop_assert_eq!(row[c], 1);
                prop_assert!(row[g..].iter().all(|&b| b == 0), "row {c} past g={g}");
            }
            prop_assert!(d.present[g..].iter().all(|&p| !p), "a row past g={g} is marked held");
            prop_assert_eq!(held, d.rank());
        }

        /// Two decoders and their reference models driven by one stream of
        /// calls — inserts of thinned random packets, encodes, sparse
        /// encodes and chunk picks fed to the other decoder, absorbs,
        /// resets to a new generation in place and make-full — agree after
        /// every call on rank, generation, rows, every classification and
        /// packet, and the next word of the encode RNG.
        #[test]
        fn decoder_matches_the_inline_reference_model(
            g0 in 1usize..=32,
            ops in prop::collection::vec((0u8..7, 0usize..2, 1usize..=32, 0usize..3), 0..96),
            seed in any::<u64>(),
        ) {
            let mut new = [Decoder::empty(g0), Decoder::empty(g0)];
            let mut old = [RefDecoder::empty(g0), RefDecoder::empty(g0)];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ref_rng = rng.clone();
            let mut bytes = SmallRng::seed_from_u64(!seed);
            for (op, i, g, mask) in ops {
                let j = 1 - i;
                // A packet from decoder `i` (and its model's) goes on to
                // decoder `j` when the generations match.
                let (packet, expect) = match op {
                    0 => {
                        let mask = [0x01u8, 0x03, 0xff][mask];
                        let mut v = CoeffVec::zero(new[i].generation());
                        v.as_mut_slice().iter_mut().for_each(|b| *b = bytes.random::<u8>() & mask);
                        prop_assert_eq!(new[i].insert(v), old[i].insert(v));
                        (None, None)
                    }
                    1 => (Some(new[i].encode(&mut rng)), Some(old[i].encode(&mut ref_rng))),
                    2 => (
                        Some(new[i].encode_sparse(&mut rng)),
                        Some(old[i].encode_sparse(&mut ref_rng)),
                    ),
                    3 => (new[i].pick_chunk(&mut rng), old[i].pick_chunk(&mut ref_rng)),
                    4 => {
                        if new[i].generation() == new[j].generation() {
                            let (donor, ref_donor) = (new[i].clone(), old[i].clone());
                            prop_assert_eq!(new[j].absorb(&donor), old[j].absorb(&ref_donor));
                        }
                        (None, None)
                    }
                    5 => {
                        new[i].reset(g);
                        old[i] = RefDecoder::empty(g);
                        (None, None)
                    }
                    _ => {
                        new[i].make_full();
                        old[i].make_full();
                        (None, None)
                    }
                };
                prop_assert_eq!(packet, expect);
                if let Some(p) = packet.filter(|p| p.len() == new[j].generation()) {
                    prop_assert_eq!(new[j].insert(p), old[j].insert(p));
                }
                for (d, r) in new.iter().zip(&old) {
                    let g = usize::from(r.gen);
                    prop_assert_eq!(d.generation(), g);
                    prop_assert_eq!(d.rank(), usize::from(r.rank));
                    prop_assert_eq!(d.is_complete(), r.rank == r.gen);
                    prop_assert_eq!(&d.rows[..], &r.rows[..g]);
                    prop_assert_eq!(d.present, r.present);
                }
                prop_assert_eq!(rng.clone().random::<u64>(), ref_rng.clone().random::<u64>());
            }
        }

        /// `encode` and `encode_sparse` on partial-rank decoders produce
        /// the full-width reference fold and leave the RNG at the same next
        /// word.
        #[test]
        fn encodes_match_a_full_width_reference_fold(
            g in 1usize..=32,
            packets in 0usize..40,
            mask in prop::sample::select(vec![0x03u8, 0xff]),
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = random_decoder(g, packets, mask, &mut rng);
            let held: Vec<usize> = (0..g).filter(|&c| d.present[c]).collect();

            let mut ref_rng = rng.clone();
            let mut dense = [0u8; MAX_GENERATION];
            for &c in &held {
                fold_full_width(&mut dense, &d.rows[c], ref_rng.random());
            }
            prop_assert_eq!(d.encode(&mut rng), CoeffVec { coeffs: dense, len: g as u8 });
            prop_assert_eq!(rng.random::<u64>(), ref_rng.random::<u64>());

            let mut sparse = [0u8; MAX_GENERATION];
            if !held.is_empty() {
                for _ in 0..g.div_ceil(4) {
                    let c = held[ref_rng.random_range(0..held.len())];
                    fold_full_width(&mut sparse, &d.rows[c], ref_rng.random_range(1..=255u8));
                }
            }
            prop_assert_eq!(d.encode_sparse(&mut rng), CoeffVec { coeffs: sparse, len: g as u8 });
            prop_assert_eq!(rng.random::<u64>(), ref_rng.random::<u64>());
        }

        /// The axpy kernel equals the bytewise peasant fold on arbitrary
        /// lengths, offsets and multipliers — the zero multiplier included.
        #[test]
        fn sliced_axpy_matches_the_bytewise_fold(
            f in any::<u8>(),
            src in prop::collection::vec(any::<u8>(), 0..64),
            dst_seed in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let n = src.len().min(dst_seed.len());
            let mut expect: Vec<u8> = dst_seed[..n].to_vec();
            for (d, s) in expect.iter_mut().zip(&src[..n]) {
                *d ^= gf_mul_ref(*s, f);
            }
            let mut got: Vec<u8> = dst_seed[..n].to_vec();
            gf_axpy(&mut got, &src[..n], f);
            prop_assert_eq!(got, expect);
        }

        /// Every SIMD row kernel this CPU has, not only the one `encode`
        /// and `insert` dispatch to, agrees with the product-table loops on
        /// the same decoder, partial or full rank: the same encode and next
        /// RNG word, the same verdict and resulting decoder for a stream of
        /// random packets, for a dependent one and for a donor's rows, and
        /// `absorb` agrees too.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn every_simd_row_kernel_matches_the_product_table(
            g in 1usize..=32,
            packets in 0usize..80,
            mask in prop::sample::select(vec![0x01u8, 0x03, 0xff]),
            donor_packets in 0usize..40,
            seed in any::<u64>(),
        ) {
            for kernel in [RowKernel::Avx2, RowKernel::Gfni] {
                if kernel > RowKernel::detect() {
                    eprintln!(
                        "every_simd_row_kernel_matches_the_product_table: no {kernel:?} on this \
                         CPU, skipped"
                    );
                    continue;
                }
                let mut rng = SmallRng::seed_from_u64(seed);
                let d = random_decoder(g, packets, mask, &mut rng);

                let mut table_rng = rng.clone();
                prop_assert_eq!(d.encode_on(kernel, &mut rng), d.encode_table(&mut table_rng));
                prop_assert_eq!(rng.clone().random::<u64>(), table_rng.random::<u64>());

                let (mut fast, mut table) = (d.clone(), d.clone());
                for _ in 0..g + 2 {
                    let mut v = CoeffVec::zero(g);
                    v.as_mut_slice().iter_mut().for_each(|b| *b = rng.random::<u8>() & mask);
                    prop_assert_eq!(fast.insert_on(kernel, v), table.insert_table(v));
                    prop_assert_eq!(&fast, &table);
                }
                let dependent = d.encode_table(&mut rng);
                let (mut fast, mut table) = (d.clone(), d.clone());
                prop_assert!(
                    !fast.insert_on(kernel, dependent),
                    "a combination of held rows is innovative"
                );
                prop_assert!(!table.insert_table(dependent));
                prop_assert_eq!(&fast, &d);
                prop_assert_eq!(&table, &d);

                let donor = random_decoder(g, donor_packets, 0xff, &mut rng);
                let (mut fast, mut table) = (d.clone(), d.clone());
                for (c, &row) in donor.rows.iter().enumerate() {
                    if donor.present[c] {
                        let v = CoeffVec { coeffs: row, len: g as u8 };
                        prop_assert_eq!(fast.insert_on(kernel, v), table.insert_table(v));
                    }
                }
                prop_assert_eq!(&fast, &table);
                let mut absorbed = d.clone();
                prop_assert_eq!(absorbed.absorb(&donor), table.rank() - d.rank());
                prop_assert_eq!(&absorbed, &table);
            }
        }
    }
}
