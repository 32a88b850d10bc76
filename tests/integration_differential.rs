//! Differential test across filter implementations on one Zipf-costed
//! workload: `Bloom`, `WeightedBloom`, `Habf`, and the sharded serving
//! layer must all uphold zero false negatives, answer consistently with
//! themselves across query paths, and HABF's weighted FPR cost must not
//! exceed the plain Bloom baseline at equal space — the paper's central
//! claim (§V, Fig 11).

use habf::core::{probe, Habf, HabfConfig, ShardedConfig, ShardedHabf};
use habf::filters::{BloomFilter, Filter, WeightedBloomFilter};
use habf::util::Xoshiro256;
use habf::workloads::{metrics, zipf_costs, ShallaConfig};

#[test]
fn filters_agree_on_zero_fnr_and_habf_cost_beats_bloom() {
    // One Zipf(1.0) workload from habf-workloads: Shalla-like keys with
    // rank-shuffled costs, as in the paper's skewed-cost experiments.
    let ds = ShallaConfig::with_scale(0.005).generate();
    let mut rng = Xoshiro256::new(0x21FF);
    let costs = zipf_costs(ds.negatives.len(), 1.0, &mut rng);
    let negatives = ds.negatives_with_costs(&costs);
    let total_bits = ds.positives.len() * 10; // equal budget for every filter

    let bloom = BloomFilter::build(&ds.positives, total_bits);
    let cache = (ds.negatives.len() / 100).clamp(64, 4096);
    let wbf = WeightedBloomFilter::build(&ds.positives, &negatives, total_bits, cache);
    let habf = Habf::build(
        &ds.positives,
        &negatives,
        &HabfConfig::with_total_bits(total_bits),
    );
    let sharded = ShardedHabf::<Habf>::build_par(
        &ds.positives,
        &negatives,
        &ShardedConfig::new(4, HabfConfig::with_total_bits(total_bits)),
    );

    // Zero false negatives, every implementation.
    let filters: [&dyn Filter; 4] = [&bloom, &wbf, &habf, &sharded];
    for f in filters {
        let fns = metrics::false_negatives(|k| f.contains(k), &ds.positives);
        assert_eq!(fns, 0, "{} produced {fns} false negatives", f.name());
    }

    // Weighted FPR (Eq 20): HABF's misidentification cost at equal bits
    // must not exceed the cost-blind Bloom baseline.
    let w_bloom = metrics::weighted_fpr(|k| bloom.contains(k), &ds.negatives, &costs);
    let w_habf = metrics::weighted_fpr(|k| habf.contains(k), &ds.negatives, &costs);
    assert!(
        w_habf <= w_bloom,
        "HABF weighted FPR {w_habf:.6} exceeds Bloom baseline {w_bloom:.6} at equal bits"
    );

    // The sharded layer is a repartitioning, not a different algorithm:
    // its weighted cost must stay in family with Bloom too.
    let w_sharded = metrics::weighted_fpr(|k| sharded.contains(k), &ds.negatives, &costs);
    assert!(
        w_sharded <= w_bloom,
        "Sharded HABF weighted FPR {w_sharded:.6} exceeds Bloom baseline {w_bloom:.6}"
    );

    // Differential consistency: scalar, batched, and parallel-batched
    // sharded query paths agree on every key of the workload.
    let mut probe: Vec<Vec<u8>> = ds.positives.clone();
    probe.extend(ds.negatives.iter().cloned());
    let batch = sharded.contains_batch(&probe);
    let batch_par = probe::batch_par(&probe, 4, |keys| sharded.contains_batch(keys));
    for (i, key) in probe.iter().enumerate() {
        let scalar = sharded.contains(key);
        assert_eq!(scalar, batch[i], "batch diverges at key {i}");
        assert_eq!(scalar, batch_par[i], "parallel batch diverges at key {i}");
    }
}

/// The probe-pipeline variants (blocked Bloom, blocked HABF, binary
/// fuse) on the same Zipf-costed workload: zero false negatives, batch
/// paths agreeing with the scalar loop, sane uniform FPR, and — the
/// blocking trade-off pinned — blocked HABF's weighted FPR staying
/// within 10% of standard HABF at equal space.
#[test]
fn blocked_and_fuse_variants_uphold_contracts_on_zipf_workload() {
    use habf::prelude::{BuildInput, FilterSpec};

    let ds = ShallaConfig::with_scale(0.005).generate();
    let mut rng = Xoshiro256::new(0x21FF);
    let costs = zipf_costs(ds.negatives.len(), 1.0, &mut rng);
    let negatives = ds.negatives_with_costs(&costs);
    let total_bits = ds.positives.len() * 10;
    let input = BuildInput::from_members(&ds.positives).with_costed_negatives(&negatives);

    let mut probe: Vec<Vec<u8>> = ds.positives.clone();
    probe.extend(ds.negatives.iter().cloned());
    let slices: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();

    for id in ["blocked-bloom", "blocked-habf", "binary-fuse"] {
        let filter = FilterSpec::by_id(id)
            .expect("variant registered")
            .total_bits(total_bits)
            .build(&input)
            .unwrap_or_else(|e| panic!("{id} build failed: {e}"));

        let fns = metrics::false_negatives(|k| filter.contains(k), &ds.positives);
        assert_eq!(fns, 0, "{id} produced {fns} false negatives");

        // Uniform FPR sanity at 10 bits/key: all three sit well under
        // 10% (standard Bloom is ~0.8%; blocking costs < 2.5x, the fuse
        // filter ~2^-8).
        let fpr = metrics::fpr(|k| filter.contains(k), &ds.negatives);
        assert!(fpr < 0.10, "{id}: uniform FPR {fpr:.4} out of family");

        // Differential consistency across every query path.
        let batch = filter.as_batch().expect("variant is batchable");
        let scalar: Vec<bool> = slices.iter().map(|k| filter.contains(k)).collect();
        assert_eq!(
            scalar,
            batch.contains_batch(&slices),
            "{id}: batch diverged"
        );
        assert_eq!(
            scalar,
            batch.contains_batch_par(&slices, 4),
            "{id}: parallel batch diverged"
        );
    }

    // Blocking confines each key's probes to one cache line at a small
    // FPR penalty; the acceptance bound is ≤ 10% weighted-FPR regression
    // vs the unblocked HABF at equal bits on the Zipf workload.
    let habf = Habf::build(
        &ds.positives,
        &negatives,
        &HabfConfig::with_total_bits(total_bits),
    );
    let blocked = FilterSpec::blocked_habf()
        .total_bits(total_bits)
        .build(&input)
        .expect("blocked HABF builds");
    let w_habf = metrics::weighted_fpr(|k| habf.contains(k), &ds.negatives, &costs);
    let w_blocked = metrics::weighted_fpr(|k| blocked.contains(k), &ds.negatives, &costs);
    assert!(
        w_blocked <= w_habf * 1.10 + 1e-9,
        "blocked HABF weighted FPR {w_blocked:.6} regresses more than 10% over \
         standard HABF {w_habf:.6} at equal bits"
    );
}
