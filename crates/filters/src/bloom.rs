//! The standard Bloom filter, with the three hash-strategy variants the
//! paper evaluates in Fig 14.
//!
//! * `BF` — k *distinct* functions drawn from the Table II family (the
//!   paper's default baseline configuration).
//! * `BF(City64)` — CityHash64 with k different seeds.
//! * `BF(XXH128)` — xxHash-128 with different seeds (each call yields two
//!   64-bit values, so `⌈k/2⌉` seed calls cover k positions).
//! * Double hashing (Kirsch–Mitzenmacher) is also provided for the f-HABF
//!   style fast path and ablations.

use crate::{Filter, ProbeKernel};
use habf_hashing::{city, xxhash, DoubleHasher, HashFamily, HashId, HashProvider};
use habf_util::BitVec;

/// How a [`BloomFilter`] derives its k probe positions.
#[derive(Clone, Debug)]
pub enum BloomHashStrategy {
    /// k distinct functions from the global Table II family (ids are
    /// 1-based into [`HashFamily::full`]). Paper baseline `BF`.
    FamilyDistinct {
        /// The 1-based Table II ids to use; `len()` = k.
        ids: Vec<HashId>,
    },
    /// CityHash64 with seeds `0..k`. Paper baseline `BF(City64)`.
    SeededCity64 {
        /// Number of probe positions.
        k: usize,
    },
    /// xxHash-128 with seeds `0..⌈k/2⌉`, both halves used. Paper baseline
    /// `BF(XXH128)`.
    SeededXxh128 {
        /// Number of probe positions.
        k: usize,
    },
    /// Kirsch–Mitzenmacher double hashing from one xxh128 evaluation.
    DoubleHashing {
        /// Number of probe positions.
        k: usize,
        /// Seed of the base 128-bit hash.
        seed: u64,
    },
}

impl BloomHashStrategy {
    /// The default paper baseline: the first k Table II functions.
    #[must_use]
    pub fn family_prefix(k: usize) -> Self {
        BloomHashStrategy::FamilyDistinct {
            ids: (1..=k as u8).collect(),
        }
    }

    /// Number of probe positions produced per key.
    #[must_use]
    pub fn k(&self) -> usize {
        match self {
            BloomHashStrategy::FamilyDistinct { ids } => ids.len(),
            BloomHashStrategy::SeededCity64 { k }
            | BloomHashStrategy::SeededXxh128 { k }
            | BloomHashStrategy::DoubleHashing { k, .. } => *k,
        }
    }

    /// Appends the probe positions of `key` for a table of `m` bits to
    /// `out`. Using an out-parameter keeps the query path allocation-free
    /// and lets the batch pipeline stack a whole chunk's positions.
    pub fn positions_into(&self, key: &[u8], m: usize, out: &mut Vec<usize>) {
        debug_assert!(m > 0);
        match self {
            BloomHashStrategy::FamilyDistinct { ids } => {
                let family = HashFamily::full();
                out.extend(ids.iter().map(|&id| family.position(id, key, m)));
            }
            BloomHashStrategy::SeededCity64 { k } => {
                out.extend(
                    (0..*k as u64).map(|s| (city::city64_seeded(key, s) % m as u64) as usize),
                );
            }
            BloomHashStrategy::SeededXxh128 { k } => {
                let mut produced = 0usize;
                let mut seed = 0u64;
                while produced < *k {
                    let (lo, hi) = xxhash::xxh128(key, seed);
                    out.push((lo % m as u64) as usize);
                    produced += 1;
                    if produced < *k {
                        out.push((hi % m as u64) as usize);
                        produced += 1;
                    }
                    seed += 1;
                }
            }
            BloomHashStrategy::DoubleHashing { k, seed } => {
                let h = DoubleHasher::new(key, *seed);
                out.extend((0..*k as u64).map(|i| h.position(i, m)));
            }
        }
    }
}

/// A standard Bloom filter over a [`BitVec`].
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: BitVec,
    strategy: BloomHashStrategy,
    name: &'static str,
    items: usize,
}

impl BloomFilter {
    /// Creates an empty filter with `m` bits and the given strategy.
    ///
    /// # Panics
    /// Panics if `m == 0` or the strategy produces zero positions.
    #[must_use]
    pub fn new(m: usize, strategy: BloomHashStrategy) -> Self {
        assert!(m > 0, "Bloom filter needs at least one bit");
        assert!(strategy.k() > 0, "Bloom filter needs at least one hash");
        let name = Self::strategy_name(&strategy);
        Self {
            bits: BitVec::new(m),
            strategy,
            name,
            items: 0,
        }
    }

    /// Naming follows the paper's §V-A defaults: the plain "BF" is the
    /// xxHash-128 implementation ("we set the default hash function used
    /// by f-HABF and other algorithms to XXH128"); the k-distinct
    /// Table II variant appears only in the Fig 14 implementation study.
    fn strategy_name(strategy: &BloomHashStrategy) -> &'static str {
        match strategy {
            BloomHashStrategy::FamilyDistinct { .. } => "BF(TableII)",
            BloomHashStrategy::SeededCity64 { .. } => "BF(City64)",
            BloomHashStrategy::SeededXxh128 { .. } => "BF",
            BloomHashStrategy::DoubleHashing { .. } => "BF(double)",
        }
    }

    /// Builds a filter holding every key in `keys`, using the paper's
    /// default configuration for a given space budget: `k = ln 2 · b`
    /// probe positions derived from seeded xxHash-128 (§V-A default).
    #[must_use]
    pub fn build(keys: &[impl AsRef<[u8]>], m: usize) -> Self {
        let b = m as f64 / keys.len().max(1) as f64;
        let k = crate::optimal_k(b);
        let mut filter = Self::new(m, BloomHashStrategy::SeededXxh128 { k });
        for key in keys {
            filter.insert(key.as_ref());
        }
        filter
    }

    /// Builds with an explicit strategy.
    #[must_use]
    pub fn build_with(keys: &[impl AsRef<[u8]>], m: usize, strategy: BloomHashStrategy) -> Self {
        let mut filter = Self::new(m, strategy);
        for key in keys {
            filter.insert(key.as_ref());
        }
        filter
    }

    /// Reassembles a filter from its serialized parts (the persistence
    /// codec in `habf-core` lives downstream of this crate, so the parts
    /// constructor is public the way `HashExpressor::from_parts` is).
    /// Adopts `bits` as-is — including a zero-copy image view — without
    /// allocating a scratch array.
    ///
    /// # Panics
    /// Panics on degenerate parts (see [`BloomFilter::new`]).
    #[must_use]
    pub fn from_parts(bits: BitVec, strategy: BloomHashStrategy, items: usize) -> Self {
        assert!(!bits.is_empty(), "Bloom filter needs at least one bit");
        assert!(strategy.k() > 0, "Bloom filter needs at least one hash");
        let name = Self::strategy_name(&strategy);
        Self {
            bits,
            strategy,
            name,
            items,
        }
    }

    /// The underlying bit array.
    #[must_use]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// The probe-position strategy.
    #[must_use]
    pub fn strategy(&self) -> &BloomHashStrategy {
        &self.strategy
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let m = self.bits.len();
        let mut positions = Vec::with_capacity(self.strategy.k());
        self.strategy.positions_into(key, m, &mut positions);
        for p in positions {
            self.bits.set(p);
        }
        self.items += 1;
    }

    /// Number of inserted keys.
    #[must_use]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Number of probe positions per key.
    #[must_use]
    pub fn k(&self) -> usize {
        self.strategy.k()
    }

    /// Fraction of set bits (the load factor ρ).
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// The theoretical FPR `(1 - e^{-kn/m})^k` for the current load.
    #[must_use]
    pub fn theoretical_fpr(&self) -> f64 {
        let k = self.k() as f64;
        let n = self.items as f64;
        let m = self.bits.len() as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

/// Plans every probe position of a key (prefetching each word), then
/// tests them all from cache.
impl ProbeKernel for BloomFilter {
    type Plan = usize;

    #[inline]
    fn plan(&self, key: &[u8], plan: &mut Vec<usize>, prefetch: bool) {
        let from = plan.len();
        self.strategy.positions_into(key, self.bits.len(), plan);
        if prefetch {
            for &p in &plan[from..] {
                self.bits.prefetch_bit(p);
            }
        }
    }

    #[inline]
    fn test(&self, _key: &[u8], plan: &[usize]) -> bool {
        self.bits.all_set(plan)
    }
}

impl Filter for BloomFilter {
    fn contains(&self, key: &[u8]) -> bool {
        let m = self.bits.len();
        // Check positions lazily: compute then test; the strategy writes
        // into a small stack-like Vec reused per call. For the query path
        // the allocation is tiny compared to the k hash evaluations, and
        // keeping the strategy generic wins over micro-optimizing here.
        let mut positions = Vec::with_capacity(self.strategy.k());
        self.strategy.positions_into(key, m, &mut positions);
        positions.into_iter().all(|p| self.bits.get(p))
    }

    fn space_bits(&self) -> usize {
        self.bits.len()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}-{i}").into_bytes()).collect()
    }

    #[test]
    fn zero_false_negatives_all_strategies() {
        let pos = keys(2_000, "pos");
        let m = 2_000 * 10;
        for strategy in [
            BloomHashStrategy::family_prefix(7),
            BloomHashStrategy::SeededCity64 { k: 7 },
            BloomHashStrategy::SeededXxh128 { k: 7 },
            BloomHashStrategy::DoubleHashing { k: 7, seed: 3 },
        ] {
            let f = BloomFilter::build_with(&pos, m, strategy);
            for k in &pos {
                assert!(f.contains(k), "{} dropped a member", f.name());
            }
        }
    }

    #[test]
    fn fpr_close_to_theory() {
        let pos = keys(5_000, "member");
        let neg = keys(20_000, "outsider");
        let m = 5_000 * 10; // b=10 -> theoretical FPR ~0.8%
        let f = BloomFilter::build(&pos, m);
        let fp = neg.iter().filter(|k| f.contains(k)).count();
        let measured = fp as f64 / neg.len() as f64;
        let theory = f.theoretical_fpr();
        assert!(
            measured < theory * 3.0 + 0.01,
            "measured FPR {measured:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn build_uses_optimal_k() {
        let pos = keys(1_000, "x");
        let f = BloomFilter::build(&pos, 10_000);
        assert_eq!(f.k(), 7); // ln2 * 10
        let f = BloomFilter::build(&pos, 8_000);
        assert_eq!(f.k(), 6);
    }

    #[test]
    fn strategies_have_expected_names() {
        let pos = keys(10, "n");
        assert_eq!(BloomFilter::build(&pos, 100).name(), "BF");
        assert_eq!(
            BloomFilter::build_with(&pos, 100, BloomHashStrategy::SeededCity64 { k: 3 }).name(),
            "BF(City64)"
        );
        assert_eq!(
            BloomFilter::build_with(&pos, 100, BloomHashStrategy::family_prefix(3)).name(),
            "BF(TableII)"
        );
    }

    #[test]
    fn xxh128_strategy_produces_exactly_k() {
        for k in 1..=9 {
            let strat = BloomHashStrategy::SeededXxh128 { k };
            let mut out = Vec::new();
            strat.positions_into(b"probe", 1000, &mut out);
            assert_eq!(out.len(), k);
            assert!(out.iter().all(|&p| p < 1000));
        }
    }

    #[test]
    fn empty_filter_rejects() {
        let f = BloomFilter::new(1024, BloomHashStrategy::family_prefix(3));
        assert!(!f.contains(b"anything"));
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn batch_agrees_with_scalar_all_strategies() {
        let pos = keys(1_000, "pos");
        let mixed: Vec<Vec<u8>> = keys(300, "pos")
            .into_iter()
            .chain(keys(300, "out"))
            .collect();
        let refs: Vec<&[u8]> = mixed.iter().map(Vec::as_slice).collect();
        for strategy in [
            BloomHashStrategy::family_prefix(5),
            BloomHashStrategy::SeededCity64 { k: 5 },
            BloomHashStrategy::SeededXxh128 { k: 5 },
            BloomHashStrategy::DoubleHashing { k: 5, seed: 3 },
        ] {
            let f = BloomFilter::build_with(&pos, 10_000, strategy);
            let scalar: Vec<bool> = refs.iter().map(|k| f.contains(k)).collect();
            let batch = crate::pipeline::contains_batch(&f, &refs);
            assert_eq!(scalar, batch, "{} batch diverged", f.name());
        }
    }

    #[test]
    fn space_bits_is_m() {
        let f = BloomFilter::new(12345, BloomHashStrategy::family_prefix(2));
        assert_eq!(f.space_bits(), 12345);
    }
}
