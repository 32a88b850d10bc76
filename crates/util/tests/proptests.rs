//! Property-based tests for the storage primitives.

use habf_util::{BitVec, PackedCells, Xoshiro256};
use proptest::prelude::*;

proptest! {
    /// A BitVec behaves exactly like a Vec<bool> model under an arbitrary
    /// sequence of set/clear/assign operations.
    #[test]
    fn bitvec_matches_bool_vec_model(
        len in 1usize..2048,
        ops in prop::collection::vec((0usize..2048, 0u8..3), 0..300),
    ) {
        let mut bv = BitVec::new(len);
        let mut model = vec![false; len];
        for (idx, op) in ops {
            let idx = idx % len;
            match op {
                0 => { bv.set(idx); model[idx] = true; }
                1 => { bv.clear(idx); model[idx] = false; }
                _ => { let v = idx % 2 == 0; bv.assign(idx, v); model[idx] = v; }
            }
        }
        for (i, &expect) in model.iter().enumerate() {
            prop_assert_eq!(bv.get(i), expect);
        }
        prop_assert_eq!(bv.count_ones(), model.iter().filter(|&&b| b).count());
        let ones: Vec<usize> = bv.iter_ones().collect();
        let model_ones: Vec<usize> =
            model.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(ones, model_ones);
    }

    /// PackedCells round-trips arbitrary writes for every width, matching a
    /// Vec<u32> model.
    #[test]
    fn packed_cells_match_u32_model(
        len in 1usize..512,
        width in 1u32..=32,
        writes in prop::collection::vec((0usize..512, 0u64..u64::from(u32::MAX)), 0..200),
    ) {
        let mut cells = PackedCells::new(len, width);
        let mut model = vec![0u32; len];
        let max = cells.max_value() as u64;
        for (idx, raw) in writes {
            let idx = idx % len;
            let v = (raw % (max + 1)) as u32;
            cells.set(idx, v);
            model[idx] = v;
        }
        for (i, &expect) in model.iter().enumerate() {
            prop_assert_eq!(cells.get(i), expect);
        }
        prop_assert_eq!(cells.count_nonzero(), model.iter().filter(|&&v| v != 0).count());
    }

    /// The bounds-masked probe variants used by the filter query loops are
    /// exactly equivalent to the checked accessors for every in-range
    /// index, on owned AND shared-image-backed storage — the contract that
    /// lets `HashExpressor` and the filters probe without a panic branch.
    #[test]
    fn probe_variants_match_checked_accessors(
        len in 1usize..2048,
        width in 1u32..=32,
        sets in prop::collection::vec((0usize..2048, any::<u64>()), 0..200),
    ) {
        let mut bv = BitVec::new(len);
        let mut cells = PackedCells::new(len, width);
        let max = cells.max_value() as u64;
        for (idx, raw) in sets {
            let idx = idx % len;
            if raw % 2 == 0 { bv.set(idx); } else { bv.clear(idx); }
            cells.set(idx, (raw % (max + 1)) as u32);
        }
        // Owned storage.
        for i in 0..len {
            prop_assert_eq!(bv.get(i), bv.get_probe(i), "bit {}", i);
            prop_assert_eq!(cells.get(i), cells.get_probe(i), "cell {}", i);
        }
        // Shared-image-backed storage answers identically through the
        // same probe path.
        let to_image = |words: &[u64]| {
            let mut bytes = Vec::with_capacity(words.len() * 8);
            for w in words {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            std::sync::Arc::new(habf_util::ImageBytes::from_vec(bytes))
        };
        let bv_img = to_image(bv.words());
        let shared_bv = BitVec::from_shared(
            habf_util::SharedWords::new(bv_img, 0, bv.words().len()).expect("aligned"),
            len,
        );
        let cells_img = to_image(cells.words());
        let shared_cells = PackedCells::from_shared(
            habf_util::SharedWords::new(cells_img, 0, cells.words().len()).expect("aligned"),
            len,
            width,
        );
        for i in 0..len {
            prop_assert_eq!(shared_bv.get_probe(i), bv.get(i), "shared bit {}", i);
            prop_assert_eq!(shared_cells.get_probe(i), cells.get(i), "shared cell {}", i);
        }
    }

    /// Shuffling never loses or duplicates elements.
    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(any::<u32>(), 0..200)) {
        let mut rng = Xoshiro256::new(seed);
        let mut original = v.clone();
        rng.shuffle(&mut v);
        original.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(original, v);
    }

    /// distinct_indices draws n distinct in-bound values for any feasible request.
    #[test]
    fn distinct_indices_contract(seed in any::<u64>(), bound in 1usize..300, frac in 0.0f64..=1.0) {
        let n = ((bound as f64) * frac) as usize;
        let mut rng = Xoshiro256::new(seed);
        let idxs = rng.distinct_indices(n, bound);
        prop_assert_eq!(idxs.len(), n);
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n);
        prop_assert!(idxs.iter().all(|&i| i < bound));
    }
}
