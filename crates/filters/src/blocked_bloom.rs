//! Cache-line-blocked Bloom filter (Putze, Sanders & Singler, JEA 2009).
//!
//! A standard Bloom filter scatters a key's k probes across the whole bit
//! array — k potential cache misses per query. The blocked variant pays
//! one: a first hash selects a 512-bit block (one cache line), and all k
//! probes land inside it, so the entire query touches a single line. The
//! price is a small FPR penalty from block-load variance (Poisson
//! imbalance across blocks), which §V of the blocked-filter literature
//! bounds well below 2× at practical fill ratios.
//!
//! Every position derives from **one** base-hash evaluation, so the base
//! function dominates probe cost. The function is chosen at build time by
//! [`habf_hashing::calibrate::calibrate`]: the cheapest Table II member whose raw
//! collision count on a sample of the live keys matches the strongest
//! candidate's (adaptive hashing). The choice is recorded in the filter
//! and persisted, so a reloaded image probes identically. The base hash
//! is always post-mixed with [`wang_mix64`], which is what makes raw
//! 64-bit collisions the only way a cheap base function can hurt.
//!
//! The bit array is a plain [`BitVec`] over the copy-on-write word store,
//! so blocked images serve zero-copy from a shared/mmap image exactly
//! like the other filters.

use crate::{Filter, ProbeKernel};
use habf_hashing::classic::wang_mix64;
use habf_hashing::{calibrate, HashFunction};
use habf_util::BitVec;

/// Bits per block: one 64-byte cache line.
pub const BLOCK_BITS: usize = 512;

/// `u64` words per block.
pub const BLOCK_WORDS: usize = BLOCK_BITS / 64;

/// Default seed mixed into the base hash.
pub const DEFAULT_SEED: u64 = 0xB10C_4B10_0F17_7E55;

/// A blocked Bloom filter: first hash picks the cache-line block, all k
/// probes stay inside it.
#[derive(Clone, Debug)]
pub struct BlockedBloomFilter {
    bits: BitVec,
    k: usize,
    base: HashFunction,
    seed: u64,
    items: usize,
}

impl BlockedBloomFilter {
    /// Builds a filter for `keys` within a total budget of `m` bits,
    /// rounding the array down to whole 512-bit blocks (minimum one) and
    /// calibrating the base hash on the key sample.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn build(keys: &[impl AsRef<[u8]>], m: usize) -> Self {
        let base = calibrate::calibrate(keys, 0).chosen;
        Self::build_with(keys, m, base, DEFAULT_SEED)
    }

    /// Builds with an explicit base hash and seed (used by persistence to
    /// reproduce a calibrated choice, and by tests).
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn build_with(keys: &[impl AsRef<[u8]>], m: usize, base: HashFunction, seed: u64) -> Self {
        assert!(m > 0, "blocked Bloom filter needs at least one bit");
        let blocks = (m / BLOCK_BITS).max(1);
        let b = (blocks * BLOCK_BITS) as f64 / keys.len().max(1) as f64;
        let k = crate::optimal_k(b);
        let mut filter = Self {
            bits: BitVec::new(blocks * BLOCK_BITS),
            k,
            base,
            seed,
            items: 0,
        };
        for key in keys {
            filter.insert(key.as_ref());
        }
        filter
    }

    /// Reassembles a filter from its serialized parts. Adopts `bits`
    /// as-is — including a zero-copy image view.
    ///
    /// # Panics
    /// Panics if `bits` is not a whole number of 512-bit blocks or
    /// `k == 0`.
    #[must_use]
    pub fn from_parts(bits: BitVec, k: usize, base: HashFunction, seed: u64, items: usize) -> Self {
        assert!(
            !bits.is_empty() && bits.len() % BLOCK_BITS == 0,
            "blocked Bloom bits must span whole 512-bit blocks"
        );
        assert!(k > 0, "blocked Bloom filter needs at least one hash");
        Self {
            bits,
            k,
            base,
            seed,
            items,
        }
    }

    /// The underlying bit array (`blocks · 512` bits).
    #[must_use]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Number of 512-bit blocks.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.bits.len() / BLOCK_BITS
    }

    /// Probes per key.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The calibrated base hash function.
    #[must_use]
    pub fn base(&self) -> HashFunction {
        self.base
    }

    /// The seed mixed into the base hash.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of inserted keys.
    #[must_use]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Fraction of set bits.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// The mixed base hash every position derives from.
    #[inline]
    #[must_use]
    pub fn base_hash(&self, key: &[u8]) -> u64 {
        wang_mix64(self.base.hash(key) ^ self.seed)
    }

    /// First bit of the block selected by a base hash (multiply-shift
    /// range reduction on the mixed hash).
    #[inline]
    #[must_use]
    pub fn block_start(&self, h: u64) -> usize {
        (((h as u128) * (self.blocks() as u128)) >> 64) as usize * BLOCK_BITS
    }

    /// Walks the `k` in-block bit offsets derived from `h` (9 bits per
    /// probe, remixing the derivation word every 7 probes).
    #[inline]
    fn for_each_offset(h: u64, k: usize, mut f: impl FnMut(usize) -> bool) -> bool {
        let mut g = wang_mix64(h ^ 0x9E37_79B9_7F4A_7C15);
        let mut taken = 0u32;
        for _ in 0..k {
            if taken == 7 {
                g = wang_mix64(g);
                taken = 0;
            }
            let off = (g & (BLOCK_BITS as u64 - 1)) as usize;
            g >>= 9;
            taken += 1;
            if !f(off) {
                return false;
            }
        }
        true
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let h = self.base_hash(key);
        let start = self.block_start(h);
        let bits = &mut self.bits;
        Self::for_each_offset(h, self.k, |off| {
            bits.set(start + off);
            true
        });
        self.items += 1;
    }

    /// Probes one 512-bit block held as a local word array. Offsets are
    /// in `0..512` by construction, so `off / 64` always indexes the
    /// fixed-size array — the compiler drops every bounds check, and the
    /// block's words stay in registers/L1 across all `k` probes.
    #[inline]
    fn test_block(block: &[u64; BLOCK_WORDS], h: u64, k: usize) -> bool {
        Self::for_each_offset(h, k, |off| (block[off / 64] >> (off % 64)) & 1 == 1)
    }

    /// The whole 512-bit block `h` selects, viewed from a word slice.
    #[inline]
    fn block_in<'a>(&self, words: &'a [u64], h: u64) -> &'a [u64; BLOCK_WORDS] {
        let w = self.block_start(h) / 64;
        words[w..w + BLOCK_WORDS]
            .try_into()
            .expect("bit array spans whole 512-bit blocks")
    }

    /// Membership test with the base hash already evaluated — the test
    /// step of the batch pipeline, after the block line was prefetched.
    #[inline]
    #[must_use]
    pub fn contains_hashed(&self, h: u64) -> bool {
        Self::test_block(self.block_in(self.bits.words(), h), h, self.k)
    }

    /// The theoretical unblocked FPR at the current load — a lower bound;
    /// the blocked penalty sits on top.
    #[must_use]
    pub fn theoretical_fpr(&self) -> f64 {
        let k = self.k as f64;
        let n = self.items as f64;
        let m = self.bits.len() as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

/// Plans one base hash per key (prefetching the block line it selects);
/// the test derives all `k` offsets inside that block.
impl ProbeKernel for BlockedBloomFilter {
    type Plan = u64;

    #[inline]
    fn plan(&self, key: &[u8], plan: &mut Vec<u64>, prefetch: bool) {
        let h = self.base_hash(key);
        if prefetch {
            self.bits.prefetch_bit(self.block_start(h));
        }
        plan.push(h);
    }

    #[inline]
    fn test(&self, _key: &[u8], plan: &[u64]) -> bool {
        plan.first().is_some_and(|&h| self.contains_hashed(h))
    }
}

impl Filter for BlockedBloomFilter {
    fn contains(&self, key: &[u8]) -> bool {
        self.contains_hashed(self.base_hash(key))
    }

    fn space_bits(&self) -> usize {
        self.bits.len()
    }

    fn name(&self) -> &'static str {
        "BlockedBF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}-{i}").into_bytes()).collect()
    }

    #[test]
    fn zero_false_negatives() {
        let pos = keys(5_000, "pos");
        let f = BlockedBloomFilter::build(&pos, 5_000 * 10);
        for k in &pos {
            assert!(f.contains(k), "blocked Bloom dropped a member");
        }
    }

    #[test]
    fn fpr_within_blocked_penalty_of_standard() {
        let pos = keys(8_000, "member");
        let neg = keys(40_000, "outsider");
        let m = 8_000 * 12;
        let blocked = BlockedBloomFilter::build(&pos, m);
        let standard = crate::BloomFilter::build(&pos, m);
        let count = |f: &dyn Filter| neg.iter().filter(|k| f.contains(k)).count();
        let (b_fp, s_fp) = (count(&blocked), count(&standard));
        let (b_rate, s_rate) = (
            b_fp as f64 / neg.len() as f64,
            s_fp as f64 / neg.len() as f64,
        );
        assert!(
            b_rate <= s_rate * 2.5 + 0.01,
            "blocked FPR {b_rate:.4} too far above standard {s_rate:.4}"
        );
    }

    #[test]
    fn geometry_rounds_to_whole_blocks() {
        let pos = keys(100, "g");
        let f = BlockedBloomFilter::build(&pos, 768);
        assert_eq!(f.blocks(), 1, "768 bits floors to one block");
        assert_eq!(f.space_bits(), 512);
        let f = BlockedBloomFilter::build(&pos, 5_000);
        assert_eq!(f.blocks(), 9);
        assert_eq!(f.space_bits(), 9 * 512);
    }

    #[test]
    fn parts_roundtrip_preserves_answers() {
        let pos = keys(1_000, "p");
        let f = BlockedBloomFilter::build(&pos, 1_000 * 10);
        let g = BlockedBloomFilter::from_parts(
            BitVec::from_words(f.bits().words().to_vec(), f.bits().len()),
            f.k(),
            f.base(),
            f.seed(),
            f.items(),
        );
        for k in &pos {
            assert_eq!(f.contains(k), g.contains(k));
        }
    }

    #[test]
    fn calibration_is_recorded() {
        let pos = keys(2_000, "cal");
        let f = BlockedBloomFilter::build(&pos, 2_000 * 10);
        // Sequential synthetic keys measure clean for the cheapest
        // candidate — whatever is chosen must round-trip via the index.
        let idx = f.base().registry_index();
        assert_eq!(HashFunction::from_registry_index(idx), Some(f.base()));
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_budget_panics() {
        let _ = BlockedBloomFilter::build(&keys(1, "z"), 0);
    }
}
