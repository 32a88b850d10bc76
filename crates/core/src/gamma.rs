//! The runtime index `Γ` (paper §III-D, Fig 5) and conflict detection
//! (Algorithm 1).
//!
//! `Γ` has one bucket per Bloom bit; bucket `i` lists the *optimized keys*
//! (negative keys currently rejected by the filter) that map to bit `i`
//! under `H0`. When TPJO considers setting a currently-zero bit `ν` (the
//! side effect of giving a positive key a replacement hash function),
//! conflict detection walks bucket `ν` and collects the optimized keys
//! whose *other* `k−1` bits are all already set — exactly those keys would
//! flip back into collision keys if `ν` turned 1 (paper Algorithm 1).
//!
//! Membership of a bucket is never eagerly revoked: keys that turn into
//! collision keys are *flagged* and skipped during detection (and
//! re-inserted when re-optimized). f-HABF disables `Γ` entirely
//! (paper §III-G), losing candidate classes (b)/(c) but skipping this
//! module's work.
//!
//! # Layout
//!
//! The buckets are not `m` separate vectors. Almost every key is known
//! once TPJO has classified the negatives, so `Γ` stores those in
//! compressed sparse rows, built in two passes (count, then fill) by
//! `Gamma::from_keys`: an `offsets` array of `m + 1` entries and one
//! flat `keys` array, bucket `i` being `keys[offsets[i]..offsets[i + 1]]`.
//! The few keys TPJO registers later (collision keys it optimizes or
//! finds resolved) go to a small overflow map, bucket → keys.
//!
//! Two invariants hold exactly, because the requeue order — and with it
//! the filter's bytes — depends on them:
//! * **bucket order**: a bucket yields its bulk keys in ascending key
//!   index, then its later inserts in insertion order;
//! * **dedup**: a key is stored once per bucket, both when its own
//!   positions repeat and when it is registered again after a requeue.

use crate::vindex::VIndex;
use std::collections::HashMap;

/// Per-bit buckets of optimized-key indices.
#[derive(Clone, Debug)]
pub struct Gamma {
    /// Bucket `i`'s bulk keys are `keys[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Bulk keys, ascending within each bucket.
    keys: Vec<u32>,
    /// Keys registered after the bulk build, per bucket, in insertion order.
    overflow: HashMap<u32, Vec<u32>>,
}

/// Outcome of conflict detection on one bucket.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    /// Indices of the optimized keys that would become collision keys.
    pub keys: Vec<u32>,
    /// Their summed cost, `Θ(ν)` (paper §III-D).
    pub total_cost: f64,
}

impl ConflictSet {
    /// `true` when the bucket is *not* "conflict after adjustment".
    #[must_use]
    pub fn is_clear(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The positions of `chain` that no earlier slot of it repeats.
fn distinct(chain: &[u32]) -> impl Iterator<Item = usize> + '_ {
    chain
        .iter()
        .enumerate()
        .filter(|&(j, p)| !chain[..j].contains(p))
        .map(|(_, &p)| p as usize)
}

impl Gamma {
    /// Creates `m` empty buckets.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self::from_keys(m, 1, &[], |_| false)
    }

    /// Builds `m` buckets holding every key `i` for which `include(i)`
    /// holds, where `positions` lists each key's `k` `H0` positions back
    /// to back (key `i` owns `positions[i * k..(i + 1) * k]`).
    ///
    /// # Panics
    /// Panics if `k == 0` or `positions` has `u32::MAX` entries or more.
    #[must_use]
    pub(crate) fn from_keys(
        m: usize,
        k: usize,
        positions: &[u32],
        include: impl Fn(u32) -> bool,
    ) -> Self {
        assert!(
            positions.len() < u32::MAX as usize,
            "Γ indexes fewer than u32::MAX positions"
        );
        let chains = || {
            positions
                .chunks_exact(k)
                .enumerate()
                .map(|(i, chain)| (i as u32, chain))
                .filter(|&(i, _)| include(i))
        };
        // Pass 1: count, then turn the counts into bucket ends.
        let mut offsets = vec![0u32; m + 1];
        for (_, chain) in chains() {
            for p in distinct(chain) {
                offsets[p] += 1;
            }
        }
        let mut end = 0;
        for slot in &mut offsets {
            end += *slot;
            *slot = end;
        }
        // Pass 2: fill back to front, so every bucket comes out ascending
        // and `offsets[i]` walks down from bucket `i`'s end to its start.
        let mut keys = vec![0u32; end as usize];
        for (key, chain) in chains().rev() {
            for p in distinct(chain) {
                offsets[p] -= 1;
                keys[offsets[p] as usize] = key;
            }
        }
        Self {
            offsets,
            keys,
            overflow: HashMap::new(),
        }
    }

    /// Number of buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when there are no buckets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers optimized key `key_idx` into the buckets of all its
    /// positions (call with the key's `k` `H0` positions). A bucket that
    /// already holds the key is left as it is.
    pub fn insert(&mut self, key_idx: u32, positions: &[u32]) {
        for &p in positions {
            if self.bulk(p as usize).binary_search(&key_idx).is_ok() {
                continue;
            }
            let later = self.overflow.entry(p).or_default();
            if !later.contains(&key_idx) {
                later.push(key_idx);
            }
        }
    }

    /// The keys registered by [`Gamma::from_keys`] in bucket `position`.
    fn bulk(&self, position: usize) -> &[u32] {
        &self.keys[self.offsets[position] as usize..self.offsets[position + 1] as usize]
    }

    /// Occupants of the bucket behind bit `position` (unfiltered), bulk
    /// keys first, then later inserts.
    pub fn bucket(&self, position: usize) -> impl Iterator<Item = u32> + '_ {
        let later = self.overflow.get(&(position as u32));
        self.bulk(position)
            .iter()
            .chain(later.into_iter().flatten())
            .copied()
    }

    /// Algorithm 1: collects the optimized keys of bucket `nu` that become
    /// collision keys if bit `nu` flips to 1.
    ///
    /// * `nu` — the bucket/bit under consideration (currently 0).
    /// * `v` — the `V` index, whose `keyid ≠ NULL` is the `σ(i) = 1` test.
    /// * `k` — chain length.
    /// * `neg_positions(key_idx)` — the key's `k` `H0` positions.
    /// * `is_optimized(key_idx)` — `false` for entries lazily invalidated
    ///   (keys that became collision keys again).
    /// * `cost(key_idx)` — `Θ(e)`.
    #[must_use]
    pub fn detect_conflicts(
        &self,
        nu: usize,
        v: &VIndex,
        k: usize,
        neg_positions: impl Fn(u32) -> [u32; crate::MAX_K],
        is_optimized: impl Fn(u32) -> bool,
        cost: impl Fn(u32) -> f64,
    ) -> ConflictSet {
        let mut out = ConflictSet::default();
        for key_idx in self.bucket(nu) {
            if !is_optimized(key_idx) {
                continue;
            }
            let positions = neg_positions(key_idx);
            let mut count = 0usize;
            for &p in positions.iter().take(k) {
                // Paper line 4: Γ[h(e)] ≠ ν excludes the candidate bit
                // itself; V.keyid ≠ NULL tests σ(p) = 1.
                if p as usize != nu && v.bit_is_set(p as usize) {
                    count += 1;
                }
            }
            if count == k - 1 {
                out.keys.push(key_idx);
                out.total_cost += cost(key_idx);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const K: usize = 3;

    fn positions(map: &[(u32, [u32; K])], key: u32) -> [u32; crate::MAX_K] {
        let mut out = [0u32; crate::MAX_K];
        let found = map.iter().find(|(k, _)| *k == key).expect("known key").1;
        out[..K].copy_from_slice(&found);
        out
    }

    #[test]
    fn detects_exactly_the_at_risk_keys() {
        // Bits: 5 and 9 set; 2, 7 clear. Keys map as:
        //   key 0: {2, 5, 9} -> other bits (5,9) all set  => conflicts on ν=2
        //   key 1: {2, 7, 9} -> other bit 7 clear          => safe on ν=2
        let mut v = VIndex::new(16);
        v.insert(5, 100);
        v.insert(9, 101);
        let mapping = [(0u32, [2u32, 5, 9]), (1u32, [2u32, 7, 9])];
        let mut gamma = Gamma::new(16);
        gamma.insert(0, &[2, 5, 9]);
        gamma.insert(1, &[2, 7, 9]);

        let set = gamma.detect_conflicts(
            2,
            &v,
            K,
            |k| positions(&mapping, k),
            |_| true,
            |k| (k + 1) as f64,
        );
        assert_eq!(set.keys, vec![0]);
        assert!((set.total_cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flagged_keys_are_skipped() {
        let mut v = VIndex::new(8);
        v.insert(1, 50);
        v.insert(3, 51);
        let mapping = [(7u32, [0u32, 1, 3])];
        let mut gamma = Gamma::new(8);
        gamma.insert(7, &[0, 1, 3]);
        let set = gamma.detect_conflicts(
            0,
            &v,
            K,
            |k| positions(&mapping, k),
            |_| false, // lazily invalidated
            |_| 1.0,
        );
        assert!(set.is_clear());
    }

    #[test]
    fn duplicate_positions_stored_once() {
        let mut gamma = Gamma::new(8);
        gamma.insert(3, &[4, 4, 6]);
        assert_eq!(gamma.bucket(4).collect::<Vec<_>>(), [3]);
        assert_eq!(gamma.bucket(6).collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn empty_bucket_is_clear() {
        let gamma = Gamma::new(4);
        let v = VIndex::new(4);
        let set = gamma.detect_conflicts(1, &v, K, |_| [0u32; crate::MAX_K], |_| true, |_| 1.0);
        assert!(set.is_clear());
        assert_eq!(set.total_cost, 0.0);
    }

    #[test]
    fn cost_sums_over_all_conflicting() {
        let mut v = VIndex::new(8);
        v.insert(1, 9);
        v.insert(2, 9);
        let mapping = [(0u32, [5u32, 1, 2]), (1u32, [5u32, 1, 2])];
        let mut gamma = Gamma::new(8);
        gamma.insert(0, &[5, 1, 2]);
        gamma.insert(1, &[5, 1, 2]);
        let set = gamma.detect_conflicts(
            5,
            &v,
            K,
            |k| positions(&mapping, k),
            |_| true,
            |k| 10.0 + k as f64,
        );
        assert_eq!(set.keys.len(), 2);
        assert!((set.total_cost - 21.0).abs() < 1e-12);
    }

    /// Reference model: the paper's literal layout, one vector per bit,
    /// with the per-bucket dedup rule.
    struct Model {
        buckets: Vec<Vec<u32>>,
    }

    impl Model {
        fn insert(&mut self, key: u32, positions: &[u32]) {
            for &p in positions {
                let bucket = &mut self.buckets[p as usize];
                if !bucket.contains(&key) {
                    bucket.push(key);
                }
            }
        }

        /// Algorithm 1 over the model's bucket `nu`.
        fn detect_conflicts(
            &self,
            nu: usize,
            v: &VIndex,
            chains: &[Vec<u32>],
            is_optimized: impl Fn(u32) -> bool,
            cost: impl Fn(u32) -> f64,
        ) -> (Vec<u32>, f64) {
            let (mut keys, mut total) = (Vec::new(), 0.0);
            for &key in &self.buckets[nu] {
                let chain = &chains[key as usize];
                let others = chain
                    .iter()
                    .filter(|&&p| p as usize != nu && v.bit_is_set(p as usize))
                    .count();
                if is_optimized(key) && others == chain.len() - 1 {
                    keys.push(key);
                    total += cost(key);
                }
            }
            (keys, total)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The CSR layout plus overflow answers exactly like one vector per
        /// bit: same bucket sequences, same conflicts, same summed cost.
        #[test]
        fn matches_vec_of_vecs_model(
            m in 1usize..48,
            k in 1usize..=4,
            // Per key: raw positions, registered in bulk?, repeat a position?
            keys in prop::collection::vec(
                (prop::collection::vec(0u32..1024, 4), any::<bool>(), any::<bool>()),
                0..40,
            ),
            later in prop::collection::vec(0u32..1024, 0..60),
            set_bits in prop::collection::vec(0u32..1024, 0..48),
            optimized in prop::collection::vec(any::<bool>(), 64),
        ) {
            let chains: Vec<Vec<u32>> = keys
                .iter()
                .map(|(raw, _, repeat)| {
                    let mut chain: Vec<u32> = raw[..k].iter().map(|&r| r % m as u32).collect();
                    if *repeat {
                        chain[k - 1] = chain[0];
                    }
                    chain
                })
                .collect();
            let flat = chains.concat();
            let mut gamma = Gamma::from_keys(m, k, &flat, |i| keys[i as usize].1);
            let mut model = Model { buckets: vec![Vec::new(); m] };
            for (i, chain) in chains.iter().enumerate() {
                if keys[i].1 {
                    model.insert(i as u32, chain);
                }
            }
            // Later inserts hit bulk keys, fresh keys, and keys already in
            // the overflow alike.
            if !chains.is_empty() {
                for &x in &later {
                    let key = x % chains.len() as u32;
                    gamma.insert(key, &chains[key as usize]);
                    model.insert(key, &chains[key as usize]);
                }
            }

            let mut v = VIndex::new(m);
            for &b in &set_bits {
                v.insert(b as usize % m, 0);
            }
            let is_optimized = |i: u32| optimized[i as usize];
            let cost = |i: u32| 0.5 + f64::from(i) * 1.25;
            let positions = |i: u32| {
                let mut out = [0u32; crate::MAX_K];
                out[..k].copy_from_slice(&chains[i as usize]);
                out
            };
            prop_assert_eq!(gamma.len(), m);
            for nu in 0..m {
                let got: Vec<u32> = gamma.bucket(nu).collect();
                prop_assert_eq!(&got, &model.buckets[nu], "bucket {}", nu);
                let cs = gamma.detect_conflicts(nu, &v, k, positions, is_optimized, cost);
                let (want, total) = model.detect_conflicts(nu, &v, &chains, is_optimized, cost);
                prop_assert_eq!(&cs.keys, &want, "conflicts on {}", nu);
                prop_assert_eq!(cs.total_cost.to_bits(), total.to_bits());
            }
        }
    }
}
