//! Two-Phase Joint Optimization (paper §III-D, Fig 3, Fig 6, Fig 7).
//!
//! TPJO is the construction-time optimizer of HABF. Starting from a Bloom
//! filter where every positive key uses the initial functions `H0`, it
//! walks the *collision queue* — the negative keys currently misidentified
//! as positive, in descending cost order — and for each collision key
//! `e_ck` tries to *adjust* one positive key `e_s` away from a bit that
//! only `e_s` maps (found through [`VIndex`]), so that the bit can be
//! cleared and `e_ck` turns into a true negative.
//!
//! **Phase-I** picks the replacement hash function `h_c ∈ H − φ(e_s)`:
//!
//! * class (a): `σ(h_c(e_s)) = 1` — the replacement lands on an
//!   already-set bit; no side effects at all;
//! * class (b): the target bit is 0 but its [`Gamma`] bucket has no
//!   conflicts — setting it creates no new collision keys;
//! * class (c): every candidate bucket conflicts — take the bucket `ν'`
//!   maximizing the non-negative `Θ(e_ck) − Θ(ν')` and requeue the newly
//!   conflicted keys (tail of the queue). If every bucket costs more than
//!   `e_ck`, the adjustment is not worth it and the key is skipped.
//!
//! **Phase-II** tests whether the adjusted `φ'(e_s)` actually fits into the
//! HashExpressor; among the insertable candidates the one sharing the most
//! cells with already-stored chains is committed (the paper's "maximized
//! overlap" rule). If nothing fits, the next unit of `ξ_ck` is tried; if
//! all fail, `e_ck` stays a false positive.
//!
//! f-HABF runs the same loop with `use_gamma = false`, which restricts
//! phase-I to class (a) — adjustments that set no new bit and therefore
//! need no conflict detection (paper §III-G).

use crate::gamma::Gamma;
use crate::hash_expressor::HashExpressor;
use crate::vindex::VIndex;
use crate::MAX_K;
use habf_hashing::{HashId, HashProvider};
use habf_util::prefetch::prefetch_bytes;
use habf_util::{BitVec, Xoshiro256};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How many keys (in the hashing passes) or positions (in the Bloom/V
/// pass) ahead of the current one the build front end prefetches. Far
/// enough to cover a DRAM round-trip behind one key's hashing, near
/// enough that the hinted lines are still resident when reached.
const PREFETCH_AHEAD: usize = 16;

/// Configuration of one TPJO run.
#[derive(Clone, Debug)]
pub struct TpjoConfig {
    /// Hash functions per key (paper default 3).
    pub k: usize,
    /// Bloom bits `m` (the `∆2` share of the budget).
    pub m: usize,
    /// HashExpressor cells `ω` (the `∆1` share divided by `cell_bits`).
    pub omega: usize,
    /// HashExpressor cell width `α` (paper default 4).
    pub cell_bits: u32,
    /// `false` reproduces f-HABF's Γ-disabled fast construction.
    pub use_gamma: bool,
    /// How many times a key bumped back into the collision queue is
    /// retried before it is abandoned (termination guard; the paper's
    /// queue-tail re-insertions have no explicit bound).
    pub requeue_cap: u8,
    /// Seed for `H0` selection and the Case-1 random choice.
    pub seed: u64,
    /// Ablation: allow class-(c) adjustments (sacrifice cheaper optimized
    /// keys for a costlier collision key). Default `true`.
    pub enable_class_c: bool,
    /// Ablation: among insertable candidates, prefer the plan sharing the
    /// most HashExpressor cells (the paper's "maximized overlap" rule);
    /// with `false` the first insertable candidate wins. Default `true`.
    pub overlap_tiebreak: bool,
}

/// Counters describing what the optimizer did (drives Figs 8/9 and the
/// `F_habf ≤ (ω+t)/ω · F*_bf` bound).
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// `|S|`.
    pub positives: usize,
    /// `|O|`.
    pub negatives: usize,
    /// Initial collision-queue size `T`.
    pub initial_collision_keys: usize,
    /// Collision keys optimized (`t`).
    pub optimized: usize,
    /// Collision keys that could not be optimized.
    pub failed: usize,
    /// Keys that re-entered the queue after a class-(c) adjustment.
    pub requeued: usize,
    /// Positive keys whose chains were stored in the HashExpressor.
    pub adjusted_positives: usize,
    /// Collision keys resolved as a side effect of earlier adjustments
    /// (tested negative when popped).
    pub resolved_lazily: usize,
    /// Wall time hashing `S` with `H0` and filling the Bloom array and `V`.
    pub init_time: Duration,
    /// Wall time hashing `O`, splitting it into collision and optimized
    /// keys, and ordering the collision queue.
    pub classify_time: Duration,
    /// Wall time building `Γ` over the optimized keys (zero with Γ off).
    pub gamma_time: Duration,
    /// Wall time of the optimizer's main loop over the collision queue.
    pub main_loop_time: Duration,
}

/// Everything the query structure needs, as produced by TPJO.
pub struct TpjoOutput {
    /// The optimized Bloom bit array.
    pub bloom: BitVec,
    /// The populated HashExpressor.
    pub he: HashExpressor,
    /// The initial hash functions `H0` (ids into the provider).
    pub h0: Vec<HashId>,
    /// Optimizer counters.
    pub stats: BuildStats,
}

/// Per-negative-key runtime state.
#[derive(Clone, Copy, Debug)]
struct NegState {
    is_collision: bool,
    requeues: u8,
}

/// Runs TPJO over `positives` and cost-annotated `negatives`.
///
/// The provider's id space must cover at least `config.k` functions and at
/// most the HashExpressor's addressable range
/// (`2^(cell_bits−1) − 1`).
///
/// An empty positive set is allowed and degenerates to an all-zeros
/// filter that answers every query negatively (zero FNR vacuously) — the
/// case a sharded build hits when the splitter assigns a shard no keys.
///
/// The front end is memory-bound, not compute-bound, so it runs as bulk
/// passes that prefetch `PREFETCH_AHEAD` items ahead (when
/// [`habf_util::prefetch::enabled`]): positives are hashed into `φ` and
/// their positions first, then a second pass sets the Bloom bits and `V`
/// units in the same order, so every `V` state matches a one-pass
/// insert; negatives are hashed with their key bytes prefetched. The
/// prefetches change timing only — the output is identical either way.
/// [`BuildStats`] records the wall time of each phase.
///
/// # Panics
/// Panics on an infeasible configuration (`k` larger than the provider,
/// ids not addressable, `m == 0`).
pub fn run<P: HashProvider>(
    positives: &[impl AsRef<[u8]>],
    negatives: &[(impl AsRef<[u8]>, f64)],
    provider: &P,
    config: &TpjoConfig,
) -> TpjoOutput {
    let k = config.k;
    let m = config.m;
    let n_hash = provider.len();
    assert!(m > 0, "Bloom array needs at least one bit");
    assert!((1..=MAX_K).contains(&k), "k {k} not in 1..={MAX_K}");
    assert!(k <= n_hash, "k {k} exceeds provider size {n_hash}");
    let max_id = (1usize << (config.cell_bits - 1)) - 1;
    assert!(
        n_hash <= max_id,
        "provider size {n_hash} exceeds the {}-bit cell id space {max_id}",
        config.cell_bits
    );

    let mut rng = Xoshiro256::new(config.seed);
    let h0: Vec<HashId> = rng
        .distinct_indices(k, n_hash)
        .into_iter()
        .map(|i| (i + 1) as HashId)
        .collect();

    let mut stats = BuildStats {
        positives: positives.len(),
        negatives: negatives.len(),
        ..BuildStats::default()
    };
    let prefetch = habf_util::prefetch::enabled();
    let mut phase_start = Instant::now();
    let mut end_phase = || {
        let now = Instant::now();
        let spent = now - phase_start;
        phase_start = now;
        spent
    };

    // ---- Initialization: insert S with H0, build the Bloom array and V.
    let mut pos_phis: Vec<HashId> = Vec::with_capacity(positives.len() * k);
    let mut pos_positions: Vec<u32> = Vec::with_capacity(positives.len() * k);
    let mut scratch: Vec<u32> = Vec::with_capacity(k);
    for (idx, key) in positives.iter().enumerate() {
        if prefetch {
            if let Some(ahead) = positives.get(idx + PREFETCH_AHEAD) {
                prefetch_bytes(ahead.as_ref());
            }
        }
        positions_batch(provider, key.as_ref(), &h0, m, &mut scratch);
        pos_phis.extend_from_slice(&h0);
        pos_positions.extend_from_slice(&scratch);
    }
    let mut bloom = BitVec::new(m);
    let mut v = VIndex::new(m);
    for (i, &p) in pos_positions.iter().enumerate() {
        if prefetch {
            if let Some(&ahead) = pos_positions.get(i + PREFETCH_AHEAD) {
                bloom.prefetch_bit(ahead as usize);
                v.prefetch(ahead as usize);
            }
        }
        bloom.set(p as usize);
        v.insert(p as usize, (i / k) as u32);
    }
    stats.init_time = end_phase();

    // ---- Classify O into collision keys and optimized keys.
    let mut neg_positions: Vec<u32> = Vec::with_capacity(negatives.len() * k);
    let mut neg_state: Vec<NegState> = Vec::with_capacity(negatives.len());
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut initial_ck: Vec<u32> = Vec::new();
    for (idx, (key, _cost)) in negatives.iter().enumerate() {
        if prefetch {
            if let Some((ahead, _)) = negatives.get(idx + PREFETCH_AHEAD) {
                prefetch_bytes(ahead.as_ref());
            }
        }
        positions_batch(provider, key.as_ref(), &h0, m, &mut scratch);
        let is_collision = scratch.iter().all(|&p| bloom.get(p as usize));
        neg_positions.extend_from_slice(&scratch);
        neg_state.push(NegState {
            is_collision,
            requeues: 0,
        });
        if is_collision {
            initial_ck.push(idx as u32);
        }
    }
    // Collision queue in descending cost order (paper Fig 6).
    initial_ck.sort_by(|&a, &b| {
        negatives[b as usize]
            .1
            .partial_cmp(&negatives[a as usize].1)
            .expect("NaN cost")
    });
    stats.initial_collision_keys = initial_ck.len();
    queue.extend(initial_ck);
    stats.classify_time = end_phase();

    // Γ starts with every optimized key, i.e. every non-collision key.
    let mut gamma = config.use_gamma.then(|| {
        Gamma::from_keys(m, k, &neg_positions, |i| {
            !neg_state[i as usize].is_collision
        })
    });
    stats.gamma_time = end_phase();

    let mut he = HashExpressor::new(config.omega, config.cell_bits, k);
    let mut in_he = vec![false; positives.len()];
    let neg_pos_of = |flat: &Vec<u32>, idx: u32| -> [u32; MAX_K] {
        let mut out = [0u32; MAX_K];
        out[..k].copy_from_slice(&flat[idx as usize * k..idx as usize * k + k]);
        out
    };

    // ---- Main loop over the collision queue.
    while let Some(eck) = queue.pop_front() {
        let eck_us = eck as usize;
        let positions = &neg_positions[eck_us * k..eck_us * k + k];
        // Lazy re-test: earlier bit clears may have resolved this key.
        if positions.iter().any(|&p| !bloom.get(p as usize)) {
            if neg_state[eck_us].is_collision {
                neg_state[eck_us].is_collision = false;
                stats.resolved_lazily += 1;
                if let Some(g) = gamma.as_mut() {
                    g.insert(eck, positions);
                }
            }
            continue;
        }
        neg_state[eck_us].is_collision = true;
        let eck_cost = negatives[eck_us].1;

        // ξ_ck: adjustable units among e_ck's positions.
        let mut xi: Vec<(u32, u32)> = Vec::with_capacity(k); // (unit, e_s)
        for (i, &u) in positions.iter().enumerate() {
            if positions[..i].contains(&u) {
                continue; // duplicate position
            }
            if let Some(es) = v.single_key(u as usize) {
                if !in_he[es as usize] {
                    xi.push((u, es));
                }
            }
        }

        let mut committed = false;
        'units: for &(u, es) in &xi {
            let es_us = es as usize;
            let es_key = positives[es_us].as_ref();
            let phi = &pos_phis[es_us * k..es_us * k + k];
            // Which slot of φ(e_s) maps to u? (unique: u is single-mapped)
            let Some(slot) = (0..k).find(|&j| pos_positions[es_us * k + j] == u) else {
                continue; // stale V entry (defensive; should not happen)
            };
            let hu = phi[slot];
            debug_assert_eq!(
                provider.position(hu, es_key, m),
                u as usize,
                "V desynchronized from φ(e_s)"
            );

            // Candidate replacements from H_c = H − φ(e_s).
            let mut direct: Vec<(HashId, u32)> = Vec::new(); // classes (a)+(b)

            // Γ disabled (f-HABF): adjustments onto a zero bit are made
            // *blindly* — no conflict detection runs, so new collision keys
            // may appear unnoticed. This is the paper's "sacrificing
            // partial hash function selections by disabling Γ which
            // contains complex operations for accuracy" (§III-G): the same
            // candidate space, minus the accuracy of conflict checking.
            let mut blind: Vec<(HashId, u32)> = Vec::new();
            let mut costly: Option<(HashId, u32, crate::gamma::ConflictSet, f64)> = None;
            for id in 1..=n_hash as u8 {
                if phi.contains(&id) {
                    continue;
                }
                let p = provider.position(id, es_key, m) as u32;
                if p == u {
                    // Replacement still maps e_s to u: clearing u would be
                    // impossible, skip.
                    continue;
                }
                if bloom.get(p as usize) {
                    direct.push((id, p)); // class (a)
                } else if let Some(g) = gamma.as_ref() {
                    let cs = g.detect_conflicts(
                        p as usize,
                        &v,
                        k,
                        |i| neg_pos_of(&neg_positions, i),
                        |i| !neg_state[i as usize].is_collision,
                        |i| negatives[i as usize].1,
                    );
                    if cs.is_clear() {
                        direct.push((id, p)); // class (b)
                    } else if config.enable_class_c {
                        let gain = eck_cost - cs.total_cost;
                        if gain >= 0.0 && costly.as_ref().is_none_or(|&(_, _, _, g0)| gain > g0) {
                            costly = Some((id, p, cs, gain)); // class (c) best
                        }
                    }
                } else {
                    blind.push((id, p)); // Γ off: unchecked adjustment
                }
            }

            // Phase-II: keep the insertable plan with maximal cell overlap.
            // Side-effect-free candidates (class a / checked class b) are
            // preferred over blind ones.
            let pick_best =
                |pool: &[(HashId, u32)],
                 he: &HashExpressor,
                 rng: &mut Xoshiro256|
                 -> Option<(crate::hash_expressor::InsertPlan, HashId, u32)> {
                    let mut best: Option<(crate::hash_expressor::InsertPlan, HashId, u32)> = None;
                    for &(id, p) in pool {
                        let mut phi2: Vec<HashId> = phi.to_vec();
                        phi2[slot] = id;
                        if let Some(plan) = he.plan(es_key, &phi2, provider, rng) {
                            if best
                                .as_ref()
                                .is_none_or(|(b, _, _)| plan.shared_cells() > b.shared_cells())
                            {
                                best = Some((plan, id, p));
                            }
                            if !config.overlap_tiebreak {
                                break; // ablation: first insertable candidate wins
                            }
                        }
                    }
                    best
                };
            let mut best = pick_best(&direct, &he, &mut rng);
            if best.is_none() {
                best = pick_best(&blind, &he, &mut rng);
            }
            let mut new_conflicts: Vec<u32> = Vec::new();
            if best.is_none() {
                // Class (c) fallback.
                if let Some((id, p, cs, _)) = costly {
                    let mut phi2: Vec<HashId> = phi.to_vec();
                    phi2[slot] = id;
                    if let Some(plan) = he.plan(es_key, &phi2, provider, &mut rng) {
                        new_conflicts = cs.keys;
                        best = Some((plan, id, p));
                    }
                }
            }

            let Some((plan, hc, p_new)) = best else {
                continue 'units;
            };

            // ---- Commit: HashExpressor, Bloom bits, V, φ(e_s), Γ.
            he.commit(&plan);
            in_he[es_us] = true;
            stats.adjusted_positives += 1;

            bloom.clear(u as usize);
            v.reset_single(u as usize);
            if !bloom.get(p_new as usize) {
                bloom.set(p_new as usize);
            }
            v.insert(p_new as usize, es);
            pos_phis[es_us * k + slot] = hc;
            pos_positions[es_us * k + slot] = p_new;

            neg_state[eck_us].is_collision = false;
            stats.optimized += 1;
            if let Some(g) = gamma.as_mut() {
                g.insert(eck, positions);
            }
            for nk in new_conflicts {
                let nk_us = nk as usize;
                neg_state[nk_us].is_collision = true;
                if neg_state[nk_us].requeues < config.requeue_cap {
                    neg_state[nk_us].requeues += 1;
                    stats.requeued += 1;
                    queue.push_back(nk);
                } else {
                    stats.failed += 1;
                }
            }
            committed = true;
            break 'units;
        }

        if !committed {
            stats.failed += 1;
        }
    }
    stats.main_loop_time = end_phase();

    TpjoOutput {
        bloom,
        he,
        h0,
        stats,
    }
}

/// Computes the Bloom positions of `key` under `ids`, using the provider's
/// batch path (a single base-hash evaluation for simulated families).
#[inline]
pub fn positions_batch<P: HashProvider>(
    provider: &P,
    key: &[u8],
    ids: &[HashId],
    m: usize,
    out: &mut Vec<u32>,
) {
    provider.positions_batch(key, ids, m, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use habf_hashing::HashFamily;

    fn config(m: usize, omega: usize, use_gamma: bool) -> TpjoConfig {
        TpjoConfig {
            k: 3,
            m,
            omega,
            cell_bits: 4,
            use_gamma,
            requeue_cap: 3,
            seed: 7,
            enable_class_c: true,
            overlap_tiebreak: true,
        }
    }

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    fn query(out: &TpjoOutput, provider: &HashFamily, key: &[u8], k: usize) -> bool {
        let m = out.bloom.len();
        let round1 = out
            .h0
            .iter()
            .all(|&id| out.bloom.get(provider.position(id, key, m)));
        if round1 {
            return true;
        }
        match out.he.query(key, provider) {
            Some(phi) => {
                debug_assert_eq!(phi.len(), k);
                phi.iter()
                    .all(|&id| out.bloom.get(provider.position(id, key, m)))
            }
            None => false,
        }
    }

    #[test]
    fn zero_fnr_after_optimization() {
        let provider = HashFamily::with_size(7);
        let pos = keys(2_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(2_000, "neg")
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 1.0 + i as f64 % 10.0))
            .collect();
        let cfg = config(2_000 * 8, 2_000, true);
        let out = run(&pos, &neg, &provider, &cfg);
        for k in &pos {
            assert!(query(&out, &provider, k, 3), "member dropped");
        }
    }

    #[test]
    fn optimization_reduces_false_positives() {
        let provider = HashFamily::with_size(7);
        let pos = keys(3_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(3_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        // b = 6 bits/key: plenty of collisions to fix.
        let cfg = config(3_000 * 6, 3_000 * 2 / 4, true);
        let out = run(&pos, &neg, &provider, &cfg);
        assert!(
            out.stats.initial_collision_keys > 0,
            "no collisions to optimize"
        );
        assert!(
            out.stats.optimized + out.stats.resolved_lazily > 0,
            "optimizer did nothing: {:?}",
            out.stats
        );
        let fp_after = neg
            .iter()
            .filter(|(k, _)| query(&out, &provider, k, 3))
            .count();
        assert!(
            fp_after < out.stats.initial_collision_keys,
            "FPs not reduced: {} -> {fp_after}",
            out.stats.initial_collision_keys
        );
    }

    #[test]
    fn gamma_disabled_still_sound_and_blind() {
        let provider = HashFamily::with_size(7);
        let pos = keys(3_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(3_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let m = 3_000 * 6;
        let omega = 3_000 * 2 / 4;
        let with = run(&pos, &neg, &provider, &config(m, omega, true));
        let without = run(&pos, &neg, &provider, &config(m, omega, false));
        // Blind mode keeps zero FNR...
        for k in &pos {
            assert!(query(&without, &provider, k, 3));
        }
        // ...and still reduces false positives versus no optimization at
        // all, but pays an accuracy cost relative to conflict-checked
        // adjustments (it sets bits without knowing what they break).
        let fp = |out: &TpjoOutput| {
            neg.iter()
                .filter(|(k, _)| query(out, &provider, k, 3))
                .count()
        };
        let fp_with = fp(&with);
        let fp_without = fp(&without);
        assert!(without.stats.optimized > 0, "blind mode never optimized");
        assert!(
            fp_without < without.stats.initial_collision_keys,
            "blind mode did not reduce FPs: {fp_without} vs initial {}",
            without.stats.initial_collision_keys
        );
        assert!(
            fp_with <= fp_without + with.stats.initial_collision_keys / 10,
            "Γ-checked mode ({fp_with} FPs) should not be materially worse \
             than blind mode ({fp_without} FPs)"
        );
    }

    #[test]
    fn high_cost_keys_are_prioritized() {
        let provider = HashFamily::with_size(7);
        let pos = keys(4_000, "pos");
        // One extremely costly negative among uniform ones.
        let mut neg: Vec<(Vec<u8>, f64)> =
            keys(4_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        neg[1234].1 = 1e6;
        // Tight space: not everything can be optimized.
        let cfg = config(4_000 * 5, 4_000 / 4, true);
        let out = run(&pos, &neg, &provider, &cfg);
        // If the costly key was a collision key, it must have been among
        // the optimized ones (it sits at the head of the queue).
        let costly_fp = query(&out, &provider, &neg[1234].0, 3);
        let h0_hit = out.h0.iter().all(|&id| {
            out.bloom
                .get(provider.position(id, &neg[1234].0, out.bloom.len()))
        });
        // Either it was never a collision key, or it is now negative
        // through round 1 (unless it was simply unfixable — accept a
        // round-2 accidental hit as the only excuse).
        assert!(
            !costly_fp || h0_hit,
            "costliest key left as an avoidable false positive"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let provider = HashFamily::with_size(7);
        let pos = keys(1_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(1_000, "neg").into_iter().map(|k| (k, 2.0)).collect();
        let cfg = config(1_000 * 8, 500, true);
        let out = run(&pos, &neg, &provider, &cfg);
        assert_eq!(out.stats.positives, 1_000);
        assert_eq!(out.stats.negatives, 1_000);
        assert_eq!(out.stats.optimized, out.stats.adjusted_positives);
        assert_eq!(out.he.inserted(), out.stats.adjusted_positives);
        assert!(out.stats.optimized <= out.stats.initial_collision_keys + out.stats.requeued);
    }

    #[test]
    fn bloom_and_v_stay_synchronized() {
        // After a full optimization run, rebuild the expected bit array
        // from the final φ assignments and compare.
        let provider = HashFamily::with_size(7);
        let pos = keys(800, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(800, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let cfg = config(800 * 7, 400, true);
        let out = run(&pos, &neg, &provider, &cfg);
        // Every positive key queries positive — in particular every bit of
        // every final φ chain is set, so no committed clear was wrong.
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
        // And the filter is not degenerate (some bits are 0).
        assert!(out.bloom.count_ones() < out.bloom.len());
    }

    #[test]
    fn phase_times_are_populated_within_the_wall_time() {
        let provider = HashFamily::with_size(7);
        let pos = keys(2_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(2_000, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let start = Instant::now();
        let out = run(&pos, &neg, &provider, &config(2_000 * 6, 500, true));
        let wall = start.elapsed();
        let s = &out.stats;
        let phases = [s.init_time, s.classify_time, s.gamma_time, s.main_loop_time];
        assert!(phases.iter().all(|t| !t.is_zero()), "unset phase: {s:?}");
        assert!(phases.iter().sum::<Duration>() <= wall, "{s:?} vs {wall:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn provider_too_large_for_cells_panics() {
        let provider = HashFamily::with_size(9); // > 7 addressable with α=4
        let pos = keys(10, "p");
        let neg: Vec<(Vec<u8>, f64)> = vec![];
        let _ = run(&pos, &neg, &provider, &config(100, 10, true));
    }

    #[test]
    fn degenerate_k_equals_family_size_is_sound() {
        // k = |H|: H_c is empty, so no adjustment is ever possible — the
        // filter degrades to a plain Bloom array but must stay correct.
        let provider = HashFamily::with_size(3);
        let pos = keys(500, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(500, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let out = run(&pos, &neg, &provider, &config(500 * 8, 100, true));
        assert_eq!(out.stats.optimized, 0, "optimized without candidates");
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
    }

    #[test]
    fn k_one_minimal_configuration() {
        let provider = HashFamily::with_size(3);
        let pos = keys(300, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(300, "neg").into_iter().map(|k| (k, 2.0)).collect();
        let cfg = TpjoConfig {
            k: 1,
            m: 300 * 8,
            omega: 200,
            cell_bits: 4,
            use_gamma: true,
            requeue_cap: 3,
            seed: 7,
            enable_class_c: true,
            overlap_tiebreak: true,
        };
        let out = run(&pos, &neg, &provider, &cfg);
        for k in &pos {
            assert!(query(&out, &provider, k, 1));
        }
        // With k = 1 a collision key shares its only bit with a positive
        // key, so successful adjustments are possible and meaningful.
        let fp = neg
            .iter()
            .filter(|(k, _)| query(&out, &provider, k, 1))
            .count();
        assert!(fp <= out.stats.initial_collision_keys);
    }

    #[test]
    fn requeue_cap_zero_terminates() {
        let provider = HashFamily::with_size(7);
        let pos = keys(2_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(2_000, "neg")
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 1.0 + (i % 50) as f64))
            .collect();
        let mut cfg = config(2_000 * 6, 600, true);
        cfg.requeue_cap = 0;
        let out = run(&pos, &neg, &provider, &cfg);
        assert_eq!(out.stats.requeued, 0);
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
    }

    #[test]
    fn duplicate_positive_keys_are_tolerated() {
        // Duplicates inflate V counts (conservative) but must not break
        // correctness.
        let mut pos = keys(500, "pos");
        pos.extend(keys(500, "pos")); // every key twice
        let provider = HashFamily::with_size(7);
        let neg: Vec<(Vec<u8>, f64)> = keys(500, "neg").into_iter().map(|k| (k, 1.0)).collect();
        let out = run(&pos, &neg, &provider, &config(500 * 10, 300, true));
        for k in &pos {
            assert!(query(&out, &provider, k, 3));
        }
    }
}
