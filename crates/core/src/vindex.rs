//! The runtime index `V` (paper §III-D, Fig 4).
//!
//! `V` mirrors the Bloom bit array with one unit per bit, tracking for each
//! bit **whether it is mapped by positive keys at most once** and, if so,
//! by *which* key. TPJO only ever adjusts a positive key away from a bit
//! that key maps *alone* — that is exactly the situation where the Bloom
//! bit can be reset to 0, which is what turns a collision key back into a
//! true negative.
//!
//! Case rules on insertion of key `e` into unit `u` (paper Fig 4):
//! 1. `⟨1, NULL⟩ → ⟨1, e⟩` — first mapping.
//! 2. `⟨1, e'⟩ → ⟨0, e'⟩` — second mapping degrades the single flag.
//! 3. `⟨0, e'⟩` — unchanged.
//!
//! The structure maintains the invariant `keyid ≠ NULL ⇔ the bit is mapped
//! by ≥ 1 positive key`, so `V` doubles as the ground truth for
//! `σ(i) = 1` during conflict detection (Algorithm 1 reads
//! `V[h(e_opk)].keyid ≠ NULL`).
//!
//! # Layout
//!
//! A unit is one `u32`, with the single flag folded into the key id: a
//! real key id means `⟨1, e⟩`, `NONE` means `⟨1, NULL⟩`, and `MULTI`
//! means `⟨0, ·⟩`. Nothing reads the key id of a degraded unit, so the
//! paper's `⟨0, e'⟩` loses no information. Key ids must stay below
//! `MULTI = u32::MAX - 1`.

/// Key id of a unit no positive key maps (`⟨1, NULL⟩`).
const NONE: u32 = u32::MAX;
/// Key id of a unit mapped two or more times (`⟨0, ·⟩`).
const MULTI: u32 = u32::MAX - 1;

/// The `V` index: `m` units, each a key id that carries the single flag.
#[derive(Clone, Debug)]
pub struct VIndex {
    keyid: Vec<u32>,
}

impl VIndex {
    /// Creates `m` units, all `⟨1, NULL⟩`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self {
            keyid: vec![NONE; m],
        }
    }

    /// Number of units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keyid.len()
    }

    /// `true` when there are no units.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keyid.is_empty()
    }

    /// Inserts positive key `key_idx` into unit `unit` (one per hash
    /// function application, so a key is inserted `k` times overall).
    #[inline]
    pub fn insert(&mut self, unit: usize, key_idx: u32) {
        debug_assert!(key_idx < MULTI, "key index collides with a sentinel");
        let id = &mut self.keyid[unit];
        match *id {
            // Case 1: first mapping.
            NONE => *id = key_idx,
            // Case 3: nothing to do.
            MULTI => {}
            // Case 2: mapped twice now.
            _ => *id = MULTI,
        }
    }

    /// Hints the cache that `unit` is about to be inserted into or read.
    /// Out-of-range units are ignored (hint only).
    #[inline]
    pub fn prefetch(&self, unit: usize) {
        if let Some(id) = self.keyid.get(unit) {
            habf_util::prefetch::prefetch_read(id);
        }
    }

    /// `true` iff the unit is mapped exactly once (adjustable).
    #[must_use]
    #[inline]
    pub fn is_single(&self, unit: usize) -> bool {
        self.keyid[unit] < MULTI
    }

    /// The single occupant of `unit`, if [`Self::is_single`].
    #[must_use]
    #[inline]
    pub fn single_key(&self, unit: usize) -> Option<u32> {
        if self.is_single(unit) {
            Some(self.keyid[unit])
        } else {
            None
        }
    }

    /// `true` iff the Bloom bit behind `unit` is set (mapped ≥ once) —
    /// the `keyid ≠ NULL` test of Algorithm 1.
    #[must_use]
    #[inline]
    pub fn bit_is_set(&self, unit: usize) -> bool {
        self.keyid[unit] != NONE
    }

    /// Resets `unit` to `⟨1, NULL⟩` after its single occupant was adjusted
    /// away (paper §III-D: "for updating V, we reset unit u").
    ///
    /// # Panics
    /// Panics (debug) if the unit is not single — resetting a multi-mapped
    /// unit would desynchronize `V` from the Bloom array.
    #[inline]
    pub fn reset_single(&mut self, unit: usize) {
        debug_assert!(self.is_single(unit), "resetting a non-single unit");
        self.keyid[unit] = NONE;
    }

    /// Number of single-mapped units (diagnostics; relates to `P_ξ` of
    /// Theorem 4.1).
    #[must_use]
    pub fn count_single(&self) -> usize {
        (0..self.len()).filter(|&u| self.is_single(u)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_units_are_empty() {
        let v = VIndex::new(16);
        for u in 0..16 {
            assert!(!v.is_single(u));
            assert!(!v.bit_is_set(u));
            assert_eq!(v.single_key(u), None);
        }
    }

    #[test]
    fn case_transitions() {
        let mut v = VIndex::new(8);
        // Case 1.
        v.insert(3, 7);
        assert!(v.is_single(3));
        assert_eq!(v.single_key(3), Some(7));
        assert!(v.bit_is_set(3));
        // Case 2: second mapping degrades, keeps keyid.
        v.insert(3, 9);
        assert!(!v.is_single(3));
        assert!(v.bit_is_set(3));
        assert_eq!(v.single_key(3), None);
        // Case 3: further mappings change nothing.
        v.insert(3, 11);
        assert!(!v.is_single(3));
        assert!(v.bit_is_set(3));
    }

    #[test]
    fn same_key_twice_still_degrades() {
        // A key whose two hash functions collide on one unit counts as two
        // mappings (conservative: the bit cannot be cleared by moving one
        // of them).
        let mut v = VIndex::new(4);
        v.insert(1, 5);
        v.insert(1, 5);
        assert!(!v.is_single(1));
    }

    #[test]
    fn reset_single_restores_empty() {
        let mut v = VIndex::new(4);
        v.insert(2, 1);
        v.reset_single(2);
        assert!(!v.bit_is_set(2));
        assert!(!v.is_single(2));
        // The unit is reusable.
        v.insert(2, 8);
        assert!(v.is_single(2));
        assert_eq!(v.single_key(2), Some(8));
    }

    #[test]
    fn count_single_matches_model() {
        let mut v = VIndex::new(100);
        // Brute-force model of per-unit insertion counts.
        let mut counts = vec![0usize; 100];
        let inserts = [
            (4usize, 1u32),
            (4, 2),
            (9, 3),
            (17, 3),
            (17, 4),
            (17, 5),
            (63, 9),
        ];
        for &(u, k) in &inserts {
            v.insert(u, k);
            counts[u] += 1;
        }
        let model = counts.iter().filter(|&&c| c == 1).count();
        assert_eq!(v.count_single(), model);
        for (u, &c) in counts.iter().enumerate() {
            assert_eq!(v.bit_is_set(u), c >= 1, "unit {u}");
            assert_eq!(v.is_single(u), c == 1, "unit {u}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-single")]
    fn reset_non_single_panics_in_debug() {
        let mut v = VIndex::new(4);
        v.insert(0, 1);
        v.insert(0, 2);
        v.reset_single(0);
    }
}
