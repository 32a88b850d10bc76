//! The 3-wise binary fuse filter (Graf & Lemire, JEA 2022) — the
//! state-of-the-art static baseline, denser than the xor filter.
//!
//! Where the xor filter maps each key to one slot in each of three
//! global segments (1.23× slack), the binary fuse filter maps it to
//! three *consecutive* small segments chosen by the first hash — a
//! windowed ("fuse") hypergraph whose peeling threshold is much lower,
//! so the table needs only ~1.125× slack for large sets. Queries are the
//! same three-probe xor test, but the three slots now sit within a
//! 3-segment window, which also makes the probe pattern cache-friendlier.
//!
//! Construction peels the fuse hypergraph with the standard count/xor
//! queue. Peeling is confluent — repeatedly removing degree-1 slots
//! always reaches the same 2-core whatever the order — so the simple
//! queue finds an assignment exactly when the reference construction
//! does; the reference's segment-sorted traversal is a speed
//! optimization, not a correctness requirement.
//!
//! Fingerprints live in a [`PackedCells`] array over the copy-on-write
//! word store, so images serve zero-copy like every other filter.

use crate::{Filter, ProbeKernel};
use habf_hashing::classic::wang_mix64;
use habf_hashing::xxhash;
use habf_util::PackedCells;

/// A static 3-wise binary fuse filter over a set fixed at construction.
#[derive(Clone, Debug)]
pub struct BinaryFuseFilter {
    fingerprints: PackedCells,
    seg_len: usize,
    seg_count: usize,
    seed: u64,
    fp_bits: u32,
    items: usize,
}

/// A key's three slots and fingerprint — its probe plan in the batch
/// pipeline, derived from one hash evaluation.
#[derive(Clone, Copy, Debug)]
pub struct KeyHashes {
    slots: [usize; 3],
    fp: u32,
}

/// Segment geometry for `n` keys, following the reference construction:
/// power-of-two segments of length `≈ 3.33^(log n)`-ish growth, and a
/// size factor that decays from ~1.7 (tiny sets) to 1.125 (large sets).
fn geometry(n: usize) -> (usize, usize) {
    let nf = n.max(2) as f64;
    let exp = (nf.ln() / 3.33f64.ln() + 2.25).floor() as u32;
    let seg_len = 1usize << exp.clamp(2, 18);
    let size_factor = (0.875 + 0.25 * 1_000_000f64.ln() / nf.ln()).max(1.125);
    let capacity = (n.max(1) as f64 * size_factor).ceil() as usize;
    let seg_count = capacity.div_ceil(seg_len).saturating_sub(2).max(1);
    (seg_len, seg_count)
}

#[inline]
fn reduce(hash: u64, n: usize) -> usize {
    (((hash as u128) * (n as u128)) >> 64) as usize
}

impl BinaryFuseFilter {
    /// Builds a filter for `keys` within a total budget of `m` bits,
    /// deriving the fingerprint width from the budget over the fuse
    /// table's slot count.
    ///
    /// # Panics
    /// Panics if `keys` is empty or the budget is below 1 bit per slot.
    #[must_use]
    pub fn build(keys: &[impl AsRef<[u8]>], m: usize) -> Self {
        let n = keys.len();
        assert!(n > 0, "binary fuse filter needs a non-empty key set");
        let slots = Self::slots_for(n);
        let fp_bits = (m / slots).min(32) as u32;
        assert!(
            fp_bits >= 1,
            "budget of {m} bits is below the fuse table's {slots} slots"
        );
        Self::build_with_fp_bits(keys, fp_bits)
    }

    /// Fuse-table slots the construction will allocate for `n` keys —
    /// a budget of `m` bits yields `m / slots_for(n)` fingerprint bits,
    /// so budget feasibility can be checked before building.
    #[must_use]
    pub fn slots_for(n: usize) -> usize {
        let (seg_len, seg_count) = geometry(n);
        (seg_count + 2) * seg_len
    }

    /// Builds with an explicit fingerprint width in bits (1..=32).
    ///
    /// # Panics
    /// Panics if `keys` is empty, `fp_bits` is out of range, or peeling
    /// fails 64 seeds in a row.
    #[must_use]
    pub fn build_with_fp_bits(keys: &[impl AsRef<[u8]>], fp_bits: u32) -> Self {
        let n = keys.len();
        assert!(n > 0, "binary fuse filter needs a non-empty key set");
        assert!(
            (1..=32).contains(&fp_bits),
            "fp_bits {fp_bits} not in 1..=32"
        );
        let (seg_len, seg_count) = geometry(n);
        for attempt in 0..64u64 {
            let seed = wang_mix64(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF0_5EED);
            if let Some(filter) = Self::try_build(keys, seg_len, seg_count, seed, fp_bits) {
                return filter;
            }
        }
        panic!("binary fuse peeling failed for 64 seeds (n={n})");
    }

    /// The three window slots plus fingerprint of one key. The first
    /// hash lands in `[0, seg_count · seg_len)`; slots 1 and 2 sit in
    /// the following two segments, displaced within their segment by
    /// 18-bit windows of the base hash (the reference's slot mapping).
    #[inline]
    fn hashes(key: &[u8], seed: u64, seg_len: usize, seg_count: usize, fp_bits: u32) -> KeyHashes {
        let hash = wang_mix64(xxhash::xxh64(key, seed));
        let mask = (seg_len - 1) as u64;
        let base = reduce(hash, seg_count * seg_len);
        let mut slots = [0usize; 3];
        for (i, slot) in slots.iter_mut().enumerate() {
            let h = base + i * seg_len;
            let window = (hash >> (36 - 18 * i)) & mask;
            *slot = h ^ window as usize;
        }
        let fp_mask = if fp_bits == 32 {
            u32::MAX
        } else {
            (1u32 << fp_bits) - 1
        };
        let fp = ((hash ^ (hash >> 32)) as u32) & fp_mask;
        KeyHashes { slots, fp }
    }

    fn try_build(
        keys: &[impl AsRef<[u8]>],
        seg_len: usize,
        seg_count: usize,
        seed: u64,
        fp_bits: u32,
    ) -> Option<Self> {
        let n = keys.len();
        let slots = (seg_count + 2) * seg_len;
        let hashes: Vec<KeyHashes> = keys
            .iter()
            .map(|k| Self::hashes(k.as_ref(), seed, seg_len, seg_count, fp_bits))
            .collect();

        let mut count = vec![0u32; slots];
        let mut key_xor = vec![0u64; slots];
        for (i, h) in hashes.iter().enumerate() {
            for &s in &h.slots {
                count[s] += 1;
                key_xor[s] ^= i as u64;
            }
        }
        let mut queue: Vec<usize> = (0..slots).filter(|&s| count[s] == 1).collect();
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        while let Some(slot) = queue.pop() {
            if count[slot] != 1 {
                continue;
            }
            let ki = key_xor[slot] as usize;
            stack.push((ki, slot));
            for &s in &hashes[ki].slots {
                count[s] -= 1;
                key_xor[s] ^= ki as u64;
                if count[s] == 1 {
                    queue.push(s);
                }
            }
        }
        if stack.len() != n {
            return None;
        }

        let mut fingerprints = PackedCells::new(slots, fp_bits);
        for &(ki, slot) in stack.iter().rev() {
            let h = &hashes[ki];
            let mut v = h.fp;
            for &s in &h.slots {
                if s != slot {
                    v ^= fingerprints.get(s);
                }
            }
            fingerprints.set(slot, v);
        }
        Some(Self {
            fingerprints,
            seg_len,
            seg_count,
            seed,
            fp_bits,
            items: n,
        })
    }

    /// Reassembles a filter from its serialized parts (for the
    /// persistence codec in `habf-core`).
    ///
    /// # Panics
    /// Panics if the fingerprint table does not span
    /// `(seg_count + 2) · seg_len` slots of `fp_bits`-wide cells, or
    /// `seg_len` is not a power of two.
    #[must_use]
    pub fn from_parts(
        fingerprints: PackedCells,
        seg_len: usize,
        seg_count: usize,
        seed: u64,
        fp_bits: u32,
        items: usize,
    ) -> Self {
        assert!(
            seg_len.is_power_of_two(),
            "fuse segments must be a power of two"
        );
        assert!(
            fingerprints.len() == (seg_count + 2) * seg_len && fingerprints.width() == fp_bits,
            "fingerprint table must span (seg_count + 2) * seg_len cells of fp_bits each"
        );
        Self {
            fingerprints,
            seg_len,
            seg_count,
            seed,
            fp_bits,
            items,
        }
    }

    /// The packed fingerprint table.
    #[must_use]
    pub fn fingerprints(&self) -> &PackedCells {
        &self.fingerprints
    }

    /// Slots per segment (a power of two).
    #[must_use]
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Number of addressable window starts (the table spans
    /// `seg_count + 2` segments).
    #[must_use]
    pub fn seg_count(&self) -> usize {
        self.seg_count
    }

    /// The peeling seed that succeeded at construction.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fingerprint width in bits.
    #[must_use]
    pub fn fp_bits(&self) -> u32 {
        self.fp_bits
    }

    /// Number of keys the filter was built from.
    #[must_use]
    pub fn items(&self) -> usize {
        self.items
    }

    /// The theoretical FPR, `2^{-L}`.
    #[must_use]
    pub fn theoretical_fpr(&self) -> f64 {
        0.5f64.powi(self.fp_bits as i32)
    }

    /// The three-probe xor test against a fingerprint word slice.
    #[inline]
    fn test_in(words: &[u64], h: &KeyHashes, width: u32) -> bool {
        let stored = habf_util::probe_cell_in(words, h.slots[0], width)
            ^ habf_util::probe_cell_in(words, h.slots[1], width)
            ^ habf_util::probe_cell_in(words, h.slots[2], width);
        stored == h.fp
    }

    /// Membership with the slots/fingerprint already derived — the test
    /// step of the batch pipeline.
    #[inline]
    fn contains_hashes(&self, h: &KeyHashes) -> bool {
        Self::test_in(self.fingerprints.words(), h, self.fp_bits)
    }
}

/// Plans a key's window and fingerprint (prefetching the first and last
/// slot's lines: the 3-segment window usually spans 1–2 lines), then runs
/// the three-probe xor test.
impl ProbeKernel for BinaryFuseFilter {
    type Plan = KeyHashes;

    #[inline]
    fn plan(&self, key: &[u8], plan: &mut Vec<KeyHashes>, prefetch: bool) {
        let h = Self::hashes(key, self.seed, self.seg_len, self.seg_count, self.fp_bits);
        if prefetch {
            let (words, width) = (self.fingerprints.words(), self.fp_bits as usize);
            habf_util::prefetch::prefetch_words(words, h.slots[0] * width / 64);
            habf_util::prefetch::prefetch_words(words, h.slots[2] * width / 64);
        }
        plan.push(h);
    }

    #[inline]
    fn test(&self, _key: &[u8], plan: &[KeyHashes]) -> bool {
        plan.first().is_some_and(|h| self.contains_hashes(h))
    }
}

impl Filter for BinaryFuseFilter {
    fn contains(&self, key: &[u8]) -> bool {
        let h = Self::hashes(key, self.seed, self.seg_len, self.seg_count, self.fp_bits);
        self.contains_hashes(&h)
    }

    fn space_bits(&self) -> usize {
        self.fingerprints.len() * self.fp_bits as usize
    }

    fn name(&self) -> &'static str {
        "BinaryFuse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    #[test]
    fn zero_false_negatives() {
        let pos = keys(10_000, "member");
        let f = BinaryFuseFilter::build_with_fp_bits(&pos, 8);
        for k in &pos {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn fpr_tracks_two_to_minus_l() {
        let pos = keys(8_000, "in");
        let neg = keys(40_000, "out");
        for fp_bits in [4u32, 8] {
            let f = BinaryFuseFilter::build_with_fp_bits(&pos, fp_bits);
            let fp = neg.iter().filter(|k| f.contains(k)).count();
            let measured = fp as f64 / neg.len() as f64;
            let theory = f.theoretical_fpr();
            assert!(
                measured < theory * 2.0 + 0.002,
                "L={fp_bits}: measured {measured:.5} vs theory {theory:.5}"
            );
        }
    }

    #[test]
    fn denser_than_the_xor_filter_at_scale() {
        let pos = keys(100_000, "k");
        let fuse = BinaryFuseFilter::build_with_fp_bits(&pos, 8);
        let xor = crate::XorFilter::build_with_fp_bits(&pos, 8);
        assert!(
            fuse.space_bits() < xor.space_bits(),
            "fuse {} bits not denser than xor {} bits",
            fuse.space_bits(),
            xor.space_bits()
        );
        // ~1.125 slots/key ⇒ ≤ ~9.5 bits/key at L=8 (power-of-two
        // segment rounding adds slack at some sizes).
        assert!(fuse.space_bits() as f64 / pos.len() as f64 <= 9.6);
    }

    #[test]
    fn slots_stay_inside_the_window_and_table() {
        let pos = keys(5_000, "w");
        let f = BinaryFuseFilter::build_with_fp_bits(&pos, 6);
        let slots = (f.seg_count() + 2) * f.seg_len();
        for k in pos.iter().take(500) {
            let h = BinaryFuseFilter::hashes(k, f.seed(), f.seg_len(), f.seg_count(), f.fp_bits());
            let window = h.slots[0] / f.seg_len();
            for (i, &s) in h.slots.iter().enumerate() {
                assert!(s < slots, "slot {s} outside table {slots}");
                assert_eq!(
                    s / f.seg_len(),
                    window + i,
                    "slot {i} left its 3-segment window"
                );
            }
        }
    }

    #[test]
    fn budgeted_build_derives_width_from_slots() {
        let pos = keys(5_000, "k");
        let f = BinaryFuseFilter::build(&pos, 50_000);
        // slots = (seg_count+2)·seg_len ≈ 1.27×n here; 10 bits/key / 1.27 ⇒ 7.
        assert!(f.fp_bits() >= 6 && f.fp_bits() <= 8, "L={}", f.fp_bits());
        assert!(f.space_bits() <= 50_000);
    }

    #[test]
    fn tiny_sets_build() {
        for n in [1usize, 2, 3, 10, 64] {
            let pos = keys(n, "tiny");
            let f = BinaryFuseFilter::build_with_fp_bits(&pos, 8);
            for k in &pos {
                assert!(f.contains(k), "n={n}");
            }
        }
    }

    #[test]
    fn batch_agrees_with_scalar() {
        let pos = keys(4_000, "in");
        let f = BinaryFuseFilter::build_with_fp_bits(&pos, 8);
        let mixed: Vec<Vec<u8>> = keys(700, "in")
            .into_iter()
            .chain(keys(700, "out"))
            .collect();
        let refs: Vec<&[u8]> = mixed.iter().map(Vec::as_slice).collect();
        let scalar: Vec<bool> = refs.iter().map(|k| f.contains(k)).collect();
        assert_eq!(scalar, crate::pipeline::contains_batch(&f, &refs));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_set_panics() {
        let empty: Vec<Vec<u8>> = vec![];
        let _ = BinaryFuseFilter::build_with_fp_bits(&empty, 8);
    }

    #[test]
    fn name_and_items() {
        let pos = keys(100, "a");
        let f = BinaryFuseFilter::build_with_fp_bits(&pos, 6);
        assert_eq!(f.name(), "BinaryFuse");
        assert_eq!(f.items(), 100);
    }
}
