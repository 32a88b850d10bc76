//! Property tests of the negative-hint pipeline: whatever mix of operator
//! hints (duplicates, member keys, shuffled costs) and mined FP feedback
//! the store receives, the hints assembled for a run build must be
//! key-unique, finite-cost, descending, capped, and disjoint from the
//! run's members. On the build side, `BuildInput::merged_negatives` must
//! merge costed negatives and hints exactly as a sort → dedup → sort
//! reference does.

use habf::lsm::{AdaptConfig, Lsm, LsmConfig};
use habf::prelude::BuildInput;
use proptest::prelude::*;

/// Costs drawn from a small table, so different keys tie on cost and
/// duplicates of one key tie or differ; the signed zeros and the NaN
/// pin `total_cmp` semantics.
const COSTS: [f64; 8] = [0.5, 1.0, 2.0, 3.5, 0.0, -0.0, 1e300, f64::NAN];

/// `(key index, cost index)` lists; a 24-key space forces duplicates.
fn costed_keys() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..24, 0usize..COSTS.len()), 0..60)
}

/// Keys of several lengths, so byte order differs from index order.
fn merge_key(i: usize) -> Vec<u8> {
    format!("{}{i}", "n".repeat(i % 3)).into_bytes()
}

/// The reference merge: sort by key (max cost first), keep the first of
/// each key, then sort by descending cost and ascending key.
fn reference_merge<'a>(input: &BuildInput<'a>) -> Vec<(&'a [u8], f64)> {
    let mut merged: Vec<(&'a [u8], f64)> = input
        .costed_negatives
        .iter()
        .chain(input.hints.iter())
        .copied()
        .collect();
    merged.sort_by(|a, b| a.0.cmp(b.0).then_with(|| b.1.total_cmp(&a.1)));
    merged.dedup_by(|a, b| a.0 == b.0);
    merged.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    merged
}

fn member_key(i: usize) -> Vec<u8> {
    format!("member:{i:06}").into_bytes()
}

/// Operator hint batches with deliberate duplicate keys and shuffled
/// costs; `key_space` keys may overlap the member space below.
fn operator_hints() -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop::collection::vec((0usize..400, 0.1f64..50.0), 0..120)
}

/// FP feedback events: key index (overlapping members and hints) + cost.
fn fp_events() -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop::collection::vec((0usize..400, 0.1f64..20.0), 0..150)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mined + operator hints are always key-unique, finite-cost,
    /// descending, capped at 2·|entries|, and disjoint from the run's
    /// members — the full satellite contract.
    #[test]
    fn assembled_hints_obey_the_pipeline_contract(
        raw_hints in operator_hints(),
        fps in fp_events(),
        members in 1usize..300,
        deep in 0usize..200,
    ) {
        let mut db = Lsm::new(LsmConfig {
            memtable_capacity: 4096,
            level_fanout: 3,
            filter: None, // hint assembly is filter-agnostic
        });
        db.enable_adaptation(AdaptConfig::default());

        // A deeper level holding stale versions of some member keys plus
        // unrelated keys (sibling fill material).
        for i in 0..deep {
            db.put(member_key(i), b"stale".to_vec());
        }
        db.flush();

        // Operator hints: `hint:` keys and some keys that ARE members.
        let hints: Vec<(Vec<u8>, f64)> = raw_hints
            .iter()
            .map(|&(k, c)| {
                if k % 3 == 0 {
                    (member_key(k), c) // collides with the member space
                } else {
                    (format!("hint:{k:06}").into_bytes(), c)
                }
            })
            .collect();
        db.set_negative_hints(hints).expect("finite costs");

        // Mined feedback, also overlapping both spaces.
        for &(k, c) in &fps {
            let key = if k % 2 == 0 {
                member_key(k)
            } else {
                format!("fp:{k:06}").into_bytes()
            };
            db.report_miss(&key, c);
        }

        // The run being built: sorted, duplicate-free member entries.
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            (0..members).map(|i| (member_key(i), b"v".to_vec())).collect();
        let assembled = db.hints_for_run(&entries);

        // Capped.
        prop_assert!(assembled.len() <= 2 * entries.len());
        // Finite positive costs only.
        for (k, c) in &assembled {
            prop_assert!(c.is_finite() && *c > 0.0, "bad cost {c} for {:?}", k);
        }
        // Descending.
        for pair in assembled.windows(2) {
            prop_assert!(
                pair[0].1 >= pair[1].1,
                "not descending: {} then {}",
                pair[0].1,
                pair[1].1
            );
        }
        // Key-unique.
        let mut keys: Vec<&[u8]> = assembled.iter().map(|(k, _)| k.as_slice()).collect();
        keys.sort_unstable();
        let total = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), total, "duplicate key in assembled hints");
        // Disjoint from the run's members.
        for (k, _) in &assembled {
            prop_assert!(
                entries.binary_search_by(|(ek, _)| ek.cmp(k)).is_err(),
                "member {:?} leaked into the hint list",
                String::from_utf8_lossy(k)
            );
        }
    }

    /// `set_negative_hints` keeps exactly the max-cost entry per key no
    /// matter how the duplicates are arranged, and rejects non-finite
    /// costs wherever they hide.
    #[test]
    fn operator_hint_dedup_keeps_max_cost(
        raw in prop::collection::vec((0usize..50, 0.1f64..100.0), 1..200),
        poison in any::<bool>(),
        poison_at in 0usize..200,
    ) {
        let mut db = Lsm::new(LsmConfig::default());
        let mut hints: Vec<(Vec<u8>, f64)> = raw
            .iter()
            .map(|&(k, c)| (format!("k{k:03}").into_bytes(), c))
            .collect();

        if poison {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.5];
            let at = poison_at % hints.len();
            hints[at].1 = bad[poison_at % bad.len()];
            prop_assert!(db.set_negative_hints(hints).is_err());
            return Ok(());
        }

        // Ground truth: per-key maximum.
        let mut expect: std::collections::HashMap<Vec<u8>, f64> = std::collections::HashMap::new();
        for (k, c) in &hints {
            let e = expect.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            if *c > *e {
                *e = *c;
            }
        }
        db.set_negative_hints(hints).expect("finite costs");
        let stored = db.negative_hints();
        prop_assert_eq!(stored.len(), expect.len(), "wrong key count");
        for (k, c) in stored {
            prop_assert_eq!(expect.get(k).copied(), Some(*c), "wrong cost kept");
        }
        for pair in stored.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1, "stored hints not descending");
        }
    }

    /// `merged_negatives` returns exactly the reference merge's Vec —
    /// same keys, same cost bits, same order — over duplicates inside
    /// the costed set, inside the hints and across the two, cost ties
    /// between keys, and empty inputs.
    #[test]
    fn merged_negatives_matches_the_reference_merge(
        costed in costed_keys(),
        hinted in costed_keys(),
    ) {
        let owned = |list: &[(usize, usize)]| -> Vec<(Vec<u8>, f64)> {
            list.iter().map(|&(k, c)| (merge_key(k), COSTS[c])).collect()
        };
        let (costed, hinted) = (owned(&costed), owned(&hinted));
        let members: Vec<Vec<u8>> = Vec::new();
        let input = BuildInput::from_members(&members)
            .with_costed_negatives(&costed)
            .with_hints(&hinted);
        let bits = |v: Vec<(&[u8], f64)>| -> Vec<(Vec<u8>, u64)> {
            v.into_iter().map(|(k, c)| (k.to_vec(), c.to_bits())).collect()
        };
        prop_assert_eq!(bits(input.merged_negatives()), bits(reference_merge(&input)));
    }
}
