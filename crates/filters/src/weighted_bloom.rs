//! The Weighted Bloom filter (Bruck, Gao & Jiang, ISIT 2006) — the
//! cost-aware non-learned baseline of Fig 11/12.
//!
//! WBF assigns each key an individual number of hash functions
//! `k(e) = k̄ + round(log2(Θ(e)/Θ̃))` (more hashes for costlier keys, fewer
//! for cheap ones), so that high-cost negative keys are tested against more
//! bits and trip false positives less often. The catch the HABF paper
//! drives home (Sections II & V-I): `k(e)` must be recoverable *at query
//! time*, so WBF carries a cost cache alongside its bit array and walks it
//! on every query — extra memory, and query latency that grows with the
//! cache ("WBF will lead to poor query performance with the size of the
//! cost list increasing"). The cache here is exactly that: a flat list of
//! `(key-hash, k)` entries scanned linearly, as the paper describes.

use crate::{optimal_k, Filter, ProbeKernel};
use habf_hashing::xxhash;
use habf_util::BitVec;

/// Maximum hashes per key; beyond ~4× the optimum the marginal gain is
/// negative for any realistic load factor.
const K_CAP: usize = 24;

/// A Weighted Bloom filter with a query-time cost cache.
#[derive(Clone, Debug)]
pub struct WeightedBloomFilter {
    bits: BitVec,
    /// Linear cost cache: `(first 64 key-hash bits, k)` per cached key.
    cache: Vec<(u64, u16)>,
    k_default: usize,
    items: usize,
}

impl WeightedBloomFilter {
    /// Builds a WBF.
    ///
    /// * `positives` — keys to insert (tested with their cached `k` if
    ///   present, else `k_default`).
    /// * `negatives_with_cost` — the known negative keys and their costs;
    ///   the `cache_size` costliest are cached with boosted `k`.
    /// * `m` — bit-array size.
    /// * `cache_size` — number of negative keys whose `k` is cached.
    ///
    /// # Panics
    /// Panics if `m == 0` or `positives` is empty.
    #[must_use]
    pub fn build(
        positives: &[impl AsRef<[u8]>],
        negatives_with_cost: &[(impl AsRef<[u8]>, f64)],
        m: usize,
        cache_size: usize,
    ) -> Self {
        assert!(m > 0, "WBF needs at least one bit");
        assert!(!positives.is_empty(), "WBF needs a non-empty positive set");
        let b = m as f64 / positives.len() as f64;
        let k_default = optimal_k(b);

        // Geometric mean of the negative costs normalizes the weight ratio
        // Θ(e)/Θ̃ of the WBF k-allocation rule.
        let costs: Vec<f64> = negatives_with_cost.iter().map(|(_, c)| *c).collect();
        let theta_geo = habf_util::stats::geometric_mean(&costs).max(1e-12);

        // Cache the costliest negatives.
        let mut order: Vec<usize> = (0..negatives_with_cost.len()).collect();
        order.sort_by(|&a, &b| {
            negatives_with_cost[b]
                .1
                .partial_cmp(&negatives_with_cost[a].1)
                .expect("NaN cost")
        });
        let mut cache = Vec::with_capacity(cache_size.min(order.len()));
        for &i in order.iter().take(cache_size) {
            let (key, cost) = &negatives_with_cost[i];
            let k = Self::k_for_cost(*cost, theta_geo, k_default);
            if k != k_default {
                cache.push((Self::cache_tag(key.as_ref()), k as u16));
            }
        }

        let mut filter = Self {
            bits: BitVec::new(m),
            cache,
            k_default,
            items: 0,
        };
        for key in positives {
            filter.insert(key.as_ref());
        }
        filter
    }

    /// The WBF k-allocation rule: `k̄ + round(log2(Θ/Θ̃))`, clamped.
    fn k_for_cost(cost: f64, theta_geo: f64, k_default: usize) -> usize {
        let boost = (cost.max(1e-12) / theta_geo).log2().round() as i64;
        (k_default as i64 + boost).clamp(1, K_CAP as i64) as usize
    }

    /// 64-bit tag identifying a cached key.
    #[inline]
    fn cache_tag(key: &[u8]) -> u64 {
        xxhash::xxh64(key, 0x5EED_CAFE)
    }

    /// Looks up the number of hashes for `key`, walking the cost list
    /// linearly — the query-cost behaviour the paper critiques.
    #[inline]
    fn k_for_key(&self, key: &[u8]) -> usize {
        let tag = Self::cache_tag(key);
        for &(t, k) in &self.cache {
            if t == tag {
                return usize::from(k);
            }
        }
        self.k_default
    }

    fn set_positions(&mut self, key: &[u8], k: usize) {
        let m = self.bits.len();
        let h = habf_hashing::DoubleHasher::new(key, 0xB10F);
        for i in 0..k as u64 {
            self.bits.set(h.position(i, m));
        }
        self.items += 1;
    }

    fn insert(&mut self, key: &[u8]) {
        let k = self.k_for_key(key);
        self.set_positions(key, k);
    }

    /// Reassembles a filter from its serialized parts (for the
    /// persistence codec in `habf-core`, which lives downstream).
    ///
    /// # Panics
    /// Panics if `bits` is empty or `k_default` is zero.
    #[must_use]
    pub fn from_parts(
        bits: BitVec,
        cache: Vec<(u64, u16)>,
        k_default: usize,
        items: usize,
    ) -> Self {
        assert!(!bits.is_empty(), "WBF needs at least one bit");
        assert!(k_default > 0, "WBF needs at least one hash");
        Self {
            bits,
            cache,
            k_default,
            items,
        }
    }

    /// The underlying bit array.
    #[must_use]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// The query-time cost cache entries (`(key tag, k)`).
    #[must_use]
    pub fn cache(&self) -> &[(u64, u16)] {
        &self.cache
    }

    /// Number of inserted keys.
    #[must_use]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Default per-key hash count (`ln 2 · b`).
    #[must_use]
    pub fn k_default(&self) -> usize {
        self.k_default
    }

    /// Entries in the query-time cost cache.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Bytes consumed by the cost cache — the "large additional memory
    /// consumption" of Section II, reported separately from `space_bits`.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.cache.capacity() * core::mem::size_of::<(u64, u16)>()
    }
}

/// Plans a key's cost-cache lookup and all its probe positions, so the
/// per-key `k` is the plan length; the cache walk and double-hash
/// derivation hide the bit-array latency of the chunk's other keys.
impl ProbeKernel for WeightedBloomFilter {
    type Plan = usize;

    #[inline]
    fn plan(&self, key: &[u8], plan: &mut Vec<usize>, prefetch: bool) {
        let k = self.k_for_key(key);
        let m = self.bits.len();
        let h = habf_hashing::DoubleHasher::new(key, 0xB10F);
        for i in 0..k as u64 {
            let p = h.position(i, m);
            if prefetch {
                self.bits.prefetch_bit(p);
            }
            plan.push(p);
        }
    }

    #[inline]
    fn test(&self, _key: &[u8], plan: &[usize]) -> bool {
        self.bits.all_set(plan)
    }
}

impl Filter for WeightedBloomFilter {
    fn contains(&self, key: &[u8]) -> bool {
        let k = self.k_for_key(key);
        let m = self.bits.len();
        let h = habf_hashing::DoubleHasher::new(key, 0xB10F);
        (0..k as u64).all(|i| self.bits.get(h.position(i, m)))
    }

    fn space_bits(&self) -> usize {
        self.bits.len()
    }

    fn name(&self) -> &'static str {
        "WBF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    fn skewed_negatives(n: usize) -> Vec<(Vec<u8>, f64)> {
        // A crude power-law: cost ~ 1/rank.
        (0..n)
            .map(|i| (format!("neg:{i}").into_bytes(), 1000.0 / (i + 1) as f64))
            .collect()
    }

    #[test]
    fn zero_false_negatives() {
        let pos = keys(3_000, "pos");
        let neg = skewed_negatives(3_000);
        let f = WeightedBloomFilter::build(&pos, &neg, 30_000, 256);
        for k in &pos {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn costly_negatives_get_more_hashes() {
        let pos = keys(1_000, "pos");
        let neg = skewed_negatives(1_000);
        let f = WeightedBloomFilter::build(&pos, &neg, 10_000, 100);
        // The single costliest negative must resolve to more hashes than
        // the default.
        let k_top = f.k_for_key(b"neg:0");
        assert!(
            k_top > f.k_default(),
            "top-cost key got k={k_top}, default {}",
            f.k_default()
        );
        // An uncached negative gets the default.
        assert_eq!(f.k_for_key(b"neg:999999"), f.k_default());
    }

    #[test]
    fn weighted_fpr_beats_uniform_k_on_cached_keys() {
        // The boosted k on costly negatives must lower their FP rate
        // compared to a plain BF of identical size.
        let pos = keys(4_000, "pos");
        let neg = skewed_negatives(4_000);
        let m = 4_000 * 8;
        let wbf = WeightedBloomFilter::build(&pos, &neg, m, 400);
        let bf = crate::BloomFilter::build(&pos, m);
        let costly: Vec<&Vec<u8>> = neg.iter().take(400).map(|(k, _)| k).collect();
        let wbf_fp = costly.iter().filter(|k| wbf.contains(k)).count();
        let bf_fp = costly.iter().filter(|k| bf.contains(k)).count();
        assert!(
            wbf_fp <= bf_fp + 2,
            "WBF false-positives {wbf_fp} vs BF {bf_fp} on costly keys"
        );
    }

    #[test]
    fn cache_is_bounded() {
        let pos = keys(100, "p");
        let neg = skewed_negatives(1_000);
        let f = WeightedBloomFilter::build(&pos, &neg, 1_000, 64);
        assert!(f.cache_len() <= 64);
        assert!(f.cache_bytes() >= f.cache_len() * 10);
    }

    #[test]
    fn batch_agrees_with_scalar_including_cached_keys() {
        let pos = keys(2_000, "pos");
        let neg = skewed_negatives(2_000);
        let f = WeightedBloomFilter::build(&pos, &neg, 20_000, 200);
        // Mix members, cached costly negatives, and uncached strangers so
        // the batch path exercises every k-resolution branch.
        let mixed: Vec<Vec<u8>> = keys(300, "pos")
            .into_iter()
            .chain(neg.iter().take(300).map(|(k, _)| k.clone()))
            .chain(keys(300, "stranger"))
            .collect();
        let refs: Vec<&[u8]> = mixed.iter().map(Vec::as_slice).collect();
        let scalar: Vec<bool> = refs.iter().map(|k| f.contains(k)).collect();
        assert_eq!(scalar, crate::pipeline::contains_batch(&f, &refs));
    }

    #[test]
    fn k_allocation_rule() {
        // cost == geometric mean -> default; 4x mean -> +2; quarter -> -2.
        assert_eq!(WeightedBloomFilter::k_for_cost(8.0, 8.0, 6), 6);
        assert_eq!(WeightedBloomFilter::k_for_cost(32.0, 8.0, 6), 8);
        assert_eq!(WeightedBloomFilter::k_for_cost(2.0, 8.0, 6), 4);
        // Clamped at 1.
        assert_eq!(WeightedBloomFilter::k_for_cost(1e-9, 8.0, 6), 1);
    }
}
