//! Pins TPJO's output at a scale where the runtime index `Γ` matters.
//!
//! The 64-key golden fixtures never reach conflict detection or class-(c)
//! requeues. These builds do (`requeued > 0`), and at least one of them
//! changes when `Γ`'s bucket order or dedup changes, so a drift in `Γ`,
//! `V` or the collision-queue order shows up here as a different image
//! digest or a different set of counters.
//!
//! The expected values were captured from the reference implementation.
//! A mismatch means the optimizer's output changed; that is a behaviour
//! change, not a test to re-pin.

use habf::core::BuildStats;
use habf::prelude::{DynFilter, Filter, FpLog, Habf, HabfConfig};

const SEED: u64 = 0x5eed_7a10;

fn positives(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("pin:pos:{i}").into_bytes())
        .collect()
}

/// Negatives with integer, skewed costs. The key of rank `r` costs
/// `1 + q` with `q = n / (r + 1)`, or `1 + q² / n` when `squared`.
/// Integer costs keep the queue order exact on every platform.
fn negatives(tag: &str, n: usize, squared: bool) -> Vec<(Vec<u8>, f64)> {
    (0..n)
        .map(|i| {
            let q = n / ((i * 7919) % n + 1);
            let cost = if squared { 1 + q * q / n } else { 1 + q };
            (format!("pin:{tag}:{i}").into_bytes(), cost as f64)
        })
        .collect()
}

fn config(n: usize, bits_per_key: usize) -> HabfConfig {
    let mut cfg = HabfConfig::with_total_bits(n * bits_per_key);
    cfg.seed = SEED;
    cfg
}

/// FNV-1a over the image, with its length: enough to pin bytes without
/// checking tens of KB of blobs into the tree.
fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bytes.len(), h)
}

/// The counters, in field order, as one comparable array.
fn counters(s: &BuildStats) -> [usize; 8] {
    [
        s.positives,
        s.negatives,
        s.initial_collision_keys,
        s.optimized,
        s.failed,
        s.requeued,
        s.adjusted_positives,
        s.resolved_lazily,
    ]
}

fn assert_pinned(filter: &Habf, pos: &[Vec<u8>], stats: [usize; 8], image: (usize, u64)) {
    assert!(
        filter.stats().requeued > 0,
        "workload no longer reaches class (c)"
    );
    assert_eq!(counters(filter.stats()), stats, "counters drifted");
    assert_eq!(digest(&filter.to_container_bytes()), image, "image drifted");
    assert!(pos.iter().all(|k| filter.contains(k)), "member dropped");
}

#[test]
fn costed_build_is_pinned() {
    let pos = positives(20_000);
    let filter = Habf::build(&pos, &negatives("neg", 20_000, false), &config(20_000, 6));
    assert_pinned(
        &filter,
        &pos,
        [20_000, 20_000, 2_093, 1_634, 350, 28, 1_634, 137],
        (15_120, 5_703_533_800_232_645_420),
    );
}

#[test]
fn skewed_costed_build_is_pinned() {
    let pos = positives(40_000);
    let filter = Habf::build(&pos, &negatives("neg", 40_000, true), &config(40_000, 5));
    assert_pinned(
        &filter,
        &pos,
        [40_000, 40_000, 5_803, 3_744, 1_849, 161, 3_744, 371],
        (25_120, 6_938_615_310_101_263_194),
    );
}

#[test]
fn hinted_rebuild_is_pinned() {
    let pos = positives(20_000);
    let neg = negatives("neg", 20_000, false);
    let mut filter = Habf::build(&pos, &neg, &config(20_000, 6));
    // Mine the false positives a fresh costed stream finds into hints,
    // then rebuild at the same geometry against negatives plus hints.
    let mut log = FpLog::new(4096, 1.0);
    for (key, cost) in negatives("fresh", 20_000, false) {
        log.note_lookup();
        if filter.contains(&key) {
            log.record(&key, cost);
        }
    }
    let hints = log.mine_hints(2048);
    assert!(!hints.is_empty(), "no false positives to mine");
    let mut rebuild_neg = neg;
    rebuild_neg.extend(hints);
    filter.rebuild(&pos, &rebuild_neg, SEED);
    assert_pinned(
        &filter,
        &pos,
        [20_000, 22_048, 3_660, 2_288, 1_169, 48, 2_288, 251],
        (15_120, 3_945_502_599_326_490_334),
    );
}
