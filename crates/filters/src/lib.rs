//! Baseline approximate-membership filters for the HABF reproduction.
//!
//! Section V of the paper compares HABF against two families of baselines,
//! all implemented from scratch here:
//!
//! * **Non-learned** — the standard [`BloomFilter`] (with the three hash
//!   strategies of Fig 14: k distinct Table II functions, seeded CityHash64,
//!   seeded xxHash-128), the [`XorFilter`] (Graf & Lemire), and the
//!   [`WeightedBloomFilter`] (Bruck, Gao & Jiang) with its query-time cost
//!   cache.
//! * **Learned** — [`LearnedBloomFilter`] (Kraska et al.),
//!   [`SandwichedLearnedBloomFilter`] (Mitzenmacher) and
//!   [`AdaptiveLearnedBloomFilter`] (Ada-BF, Dai & Shrivastava), built over
//!   the [`classifier`] module's from-scratch models (a feature-hashing
//!   logistic regression and a deliberately heavier MLP standing in for the
//!   paper's Keras GRU — see DESIGN.md §3 for the substitution argument).
//!
//! Every filter implements [`Filter`], whose `space_bits` method reports the
//! size of the *query-time* data structure; the paper's head-to-head
//! comparisons give every filter the same space budget (Section V-B).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary_fuse;
pub mod blocked_bloom;
pub mod bloom;
pub mod classifier;
pub mod learned;
pub mod pipeline;
pub mod weighted_bloom;
pub mod xor_filter;

pub use binary_fuse::BinaryFuseFilter;
pub use blocked_bloom::BlockedBloomFilter;
pub use bloom::{BloomFilter, BloomHashStrategy};
pub use classifier::{Classifier, LogisticRegression, MlpClassifier};
pub use learned::{AdaptiveLearnedBloomFilter, LearnedBloomFilter, SandwichedLearnedBloomFilter};
pub use pipeline::ProbeKernel;
pub use weighted_bloom::WeightedBloomFilter;
pub use xor_filter::XorFilter;

/// A set-membership filter with one-sided error.
///
/// Implementations guarantee **zero false negatives** for the key set they
/// were built from; `contains` may return `true` for keys outside the set
/// (false positives).
///
/// The `Send + Sync` supertraits make every filter — including trait
/// objects like `Box<dyn Filter>` — shareable across serving threads:
/// queries are read-only, and implementations hold no interior mutability.
pub trait Filter: Send + Sync {
    /// Tests whether `key` may be in the set.
    fn contains(&self, key: &[u8]) -> bool;

    /// Size of the query-time data structure in bits (bit arrays, packed
    /// fingerprints, model weights, HashExpressor cells …). This is the
    /// quantity equalized across filters in the paper's comparisons.
    fn space_bits(&self) -> usize;

    /// Short display name used by the benchmark tables.
    fn name(&self) -> &'static str;
}

/// Returns the paper's default hash count for a bits-per-key budget:
/// `k = ln 2 · b` (Section II, "Bloom filter"), clamped to `1..=30`.
///
/// The upper clamp matters: learned filters hand their *backup* filter a
/// budget sized for the classifier's false negatives, and when those are
/// few the naive formula explodes (a 3-key backup in a 0.5 Mbit budget
/// would ask for ~120,000 hash functions per query). Beyond k ≈ 30 the
/// marginal FPR gain is below 2^-30 for any realistic load, so the clamp
/// is free accuracy-wise.
#[must_use]
pub fn optimal_k(bits_per_key: f64) -> usize {
    ((core::f64::consts::LN_2 * bits_per_key).round() as usize).clamp(1, 30)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_k_matches_theory() {
        assert_eq!(optimal_k(10.0), 7); // ln2*10 = 6.93
        assert_eq!(optimal_k(8.0), 6); // 5.55
        assert_eq!(optimal_k(1.0), 1);
        assert_eq!(optimal_k(0.1), 1); // clamped low
        assert_eq!(optimal_k(1e9), 30); // clamped high (tiny backup sets)
    }
}
