//! Stable 64-bit content fingerprints (FNV-1a).
//!
//! On-disk caches key their entries by content hashes, and those hashes
//! must be stable across processes, platforms, and compiler releases —
//! which rules out `std::collections::hash_map::DefaultHasher` (its
//! algorithm is explicitly unspecified) and `#[derive(Hash)]`'s
//! discriminant encoding. [`Fnv1a`] is the classic Fowler–Noll–Vo 64-bit
//! hash over explicitly fed bytes: every write method defines exactly
//! which bytes enter the state (integers little-endian, floats as their
//! IEEE-754 bit patterns), so a fingerprint pins exact numeric content
//! and two equal inputs hash identically forever.
//!
//! [`lane_digest`] digests bulk content — every sealed file's payload
//! and every benchmark's runs — with eight interleaved FNV-1a lanes:
//! byte-serial FNV-1a is one xor-multiply dependency chain per byte, so
//! it runs at the multiplier's latency; eight independent chains run at
//! its throughput. [`LaneDigest`] is its streaming form over whole
//! little-endian words, for content that is not one byte string in
//! memory (a benchmark's runs), with the same result as `lane_digest`
//! of the words' bytes.

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// The FNV-1a 64-bit offset basis.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a {
            state: Self::OFFSET_BASIS,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` (stable across pointer widths).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` as its IEEE-754 bit pattern. Distinguishes `0.0`
    /// from `-0.0` and every NaN payload — exactly what a bit-exactness
    /// cache wants.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a whole `f64` slice, length-prefixed so `[1.0] ++ [2.0]`
    /// and `[1.0, 2.0]` fed as slices hash differently.
    pub fn write_f64s(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// Feeds a string's UTF-8 bytes, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }
}

/// Eight-lane FNV-1a digest of a byte string.
///
/// Lane `j` is plain FNV-1a over the bytes at positions ≡ `j` (mod 8)
/// of the whole 8-byte words; the eight lane states, the length and the
/// tail bytes (`len % 8`) are then folded through one more FNV-1a. Each
/// lane step is a bijection of its state, so any change confined to one
/// lane, or to the tail, changes the digest. Lanes work bytewise, not
/// wordwise: a word-wise xor-then-multiply turns a flip of a word's top
/// bit into the same top-bit flip of its state, so two such flips
/// cancel.
pub fn lane_digest(bytes: &[u8]) -> u64 {
    let mut lanes = [Fnv1a::OFFSET_BASIS; 8];
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        lane_step(&mut lanes, word);
    }
    fold_lanes(&lanes, bytes.len(), words.remainder())
}

/// One 8-byte word of the lane digest: byte `j` enters lane `j`.
#[inline]
fn lane_step(lanes: &mut [u64; 8], word: &[u8]) {
    for (lane, &b) in lanes.iter_mut().zip(word) {
        *lane = (*lane ^ u64::from(b)).wrapping_mul(Fnv1a::PRIME);
    }
}

/// Folds the lane states, the byte length and the `tail` (the bytes
/// after the last whole word) into the digest.
fn fold_lanes(lanes: &[u64; 8], len: usize, tail: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &lane in lanes {
        h.write_u64(lane);
    }
    h.write_usize(len);
    h.write_bytes(tail);
    h.finish()
}

/// [`lane_digest`] fed one whole little-endian word at a time: after
/// words `w0, w1, …` [`LaneDigest::finish`] returns `lane_digest` of
/// their concatenated little-endian bytes, without that byte string
/// ever being built.
#[derive(Debug, Clone)]
pub struct LaneDigest {
    lanes: [u64; 8],
    words: usize,
}

impl LaneDigest {
    /// A fresh digest, every lane at the FNV-1a offset basis.
    pub fn new() -> Self {
        LaneDigest {
            lanes: [Fnv1a::OFFSET_BASIS; 8],
            words: 0,
        }
    }

    /// Feeds one word as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        lane_step(&mut self.lanes, &word.to_le_bytes());
        self.words += 1;
    }

    /// Feeds a `usize` widened to `u64` (stable across pointer widths).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest of the words fed so far.
    pub fn finish(&self) -> u64 {
        fold_lanes(&self.lanes, self.words * 8, &[])
    }
}

impl Default for LaneDigest {
    fn default() -> Self {
        LaneDigest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_and_one_shot_agree() {
        let mut h = Fnv1a::new();
        h.write_bytes(b"foo");
        h.write_bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// The lane digest spelled out with one streaming hasher per lane.
    fn lane_reference(bytes: &[u8]) -> u64 {
        let body = bytes.len() - bytes.len() % 8;
        let mut lanes: Vec<Fnv1a> = (0..8).map(|_| Fnv1a::new()).collect();
        for (i, &b) in bytes[..body].iter().enumerate() {
            lanes[i % 8].write_bytes(&[b]);
        }
        let mut h = Fnv1a::new();
        for lane in &lanes {
            h.write_u64(lane.finish());
        }
        h.write_usize(bytes.len());
        h.write_bytes(&bytes[body..]);
        h.finish()
    }

    #[test]
    fn lane_digest_is_pinned() {
        // Spill files carry these digests: changing one orphans every
        // spilled shard, which needs a new spill magic.
        let pinned: [(usize, u64); 7] = [
            (0, 0x34bd_1525_c498_2fc5),
            (1, 0xa210_5dcf_79fe_33f9),
            (7, 0xb57f_df79_e449_74ae),
            (8, 0x8147_ff19_4ed8_c0f5),
            (9, 0xf2ac_6ea3_65b3_cb11),
            (64, 0xbe1f_40fd_433c_63a6),
            (1000, 0xd3a9_6f50_c01d_5d42),
        ];
        assert_eq!(LaneDigest::new().finish(), pinned[0].1, "empty stream");
        for (len, want) in pinned {
            let bytes = sample(len);
            assert_eq!(lane_digest(&bytes), lane_reference(&bytes), "len {len}");
            assert_eq!(lane_digest(&bytes), want, "len {len}");
        }
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The streaming digest of any word sequence, the empty one
            /// included, is the lane digest of its little-endian bytes.
            #[test]
            fn streamed_words_digest_like_their_bytes(
                words in prop::collection::vec(any::<u64>(), 0..40),
            ) {
                let mut streamed = LaneDigest::new();
                let mut bytes = Vec::with_capacity(words.len() * 8);
                for &w in &words {
                    streamed.write_u64(w);
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
                prop_assert_eq!(streamed.finish(), lane_digest(&bytes));
            }
        }
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let mut a = Fnv1a::new();
        a.write_f64(0.0);
        let mut b = Fnv1a::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv1a::new();
        c.write_f64(1.5);
        let mut d = Fnv1a::new();
        d.write_f64(1.5);
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn slice_writes_are_length_prefixed() {
        let mut a = Fnv1a::new();
        a.write_f64s(&[1.0]);
        a.write_f64s(&[2.0]);
        let mut b = Fnv1a::new();
        b.write_f64s(&[1.0, 2.0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn usable_as_std_hasher() {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a::new();
        42u64.hash(&mut h);
        let direct = {
            let mut d = Fnv1a::new();
            d.write_u64(42);
            Hasher::finish(&d)
        };
        assert_eq!(Hasher::finish(&h), direct);
    }
}
