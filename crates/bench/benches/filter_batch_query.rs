//! Criterion micro-benchmarks: batched query throughput of the sharded
//! serving layer at 1/2/4/8 shards, against the scalar query loop.
//!
//! The batched path groups keys by shard before probing, so each shard's
//! Bloom array and HashExpressor stay cache-resident while their keys
//! drain; the parallel path additionally fans the batch out over scoped
//! threads. All shard counts share one total space budget.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use habf_core::{probe, Habf, HabfConfig, ShardedConfig, ShardedHabf};
use habf_filters::Filter;

fn bench_batch_query(c: &mut Criterion) {
    let pos: Vec<Vec<u8>> = (0..20_000)
        .map(|i| format!("pos:{i}").into_bytes())
        .collect();
    let neg: Vec<(Vec<u8>, f64)> = (0..20_000)
        .map(|i| (format!("neg:{i}").into_bytes(), 1.0))
        .collect();
    let total_bits = pos.len() * 10;

    // Even member/outsider mix, scattered across shards.
    let mut probe: Vec<Vec<u8>> = Vec::with_capacity(4_096);
    for i in 0..2_048 {
        probe.push(pos[(i * 7) % pos.len()].clone());
        probe.push(format!("absent:{i}").into_bytes());
    }

    let mut group = c.benchmark_group("batch_query");
    for shards in [1usize, 2, 4, 8] {
        let cfg = ShardedConfig::new(shards, HabfConfig::with_total_bits(total_bits));
        let filter = ShardedHabf::<Habf>::build_par(&pos, &neg, &cfg);
        group.bench_function(format!("{shards}-shard/batch"), |b| {
            b.iter(|| filter.contains_batch(black_box(&probe)))
        });
        group.bench_function(format!("{shards}-shard/batch-par"), |b| {
            b.iter(|| probe::batch_par(black_box(&probe), 4, |keys| filter.contains_batch(keys)))
        });
        group.bench_function(format!("{shards}-shard/scalar"), |b| {
            b.iter(|| {
                probe
                    .iter()
                    .filter(|k| filter.contains(black_box(k)))
                    .count()
            })
        });
    }
    group.finish();
}

fn bench_parallel_build(c: &mut Criterion) {
    let pos: Vec<Vec<u8>> = (0..20_000)
        .map(|i| format!("pos:{i}").into_bytes())
        .collect();
    let neg: Vec<(Vec<u8>, f64)> = (0..20_000)
        .map(|i| (format!("neg:{i}").into_bytes(), 1.0))
        .collect();
    let total_bits = pos.len() * 10;

    let mut group = c.benchmark_group("build_par");
    group.sample_size(10);
    for shards in [1usize, 4] {
        let cfg = ShardedConfig::new(shards, HabfConfig::with_total_bits(total_bits));
        group.bench_function(format!("{shards}-shard"), |b| {
            b.iter(|| ShardedHabf::<Habf>::build_par(black_box(&pos), black_box(&neg), &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_query, bench_parallel_build);
criterion_main!(benches);
