//! Workload inputs, generated from the run seed through the
//! `habf-workloads` generators. The same seed gives the same inputs; the
//! program under test only ever sees the generated keys.

use habf_util::{SplitMix64, Xoshiro256};
use habf_workloads::{CostAssignment, Dataset, DriftConfig, ShallaConfig, YcsbConfig};

/// Shalla scale of `build-shalla-zipf`: ~447k URL positives and ~431k
/// costed negatives. At the paper's 10 bits per key the HABF is ~0.55 MiB,
/// so it stays in a 2 MiB L2 and hashing, not memory, bounds a probe.
pub const SHALLA_SCALE: f64 = 0.3;
/// The paper's default space budget.
pub const BUILD_BITS_PER_KEY: f64 = 10.0;
/// Zipf skewness of the negative costs. At the paper's 1.0 one
/// unoptimized key among the top hundred can carry a third of the
/// weighted FPR, so the figure swings 5x from seed to seed; at 0.7 it is
/// still cost-skewed but steady enough to compare two commits.
pub const COST_SKEW: f64 = 0.7;
/// Cost shuffles per run: one TPJO build each, as in the paper's
/// shuffle-averaged Fig 11.
pub const COST_SHUFFLES: usize = 10;
/// Zipf skewness of the drifting query stream of `serve-adapt-mixed`.
pub const DRIFT_SKEW: f64 = 1.0;
/// Members and non-members each in the shuffled scalar probe mix.
pub const MIX_EACH: usize = 131_072;

/// Members of the `serve-tiny-frames` tenant: at 10 bits per key it is
/// 1.2 MiB, inside a 2 MiB L2. (A 100k-key tenant built in 20 ms, too
/// short for `build_s` to hold still between runs.)
pub const TINY_MEMBERS: usize = 1_000_000;
pub const TINY_BITS_PER_KEY: f64 = 10.0;
pub const TINY_FRAME_KEYS: usize = 8;
pub const TINY_FRAMES: usize = 8_192;

/// Members of the `serve-adapt-mixed` tenant, and its fixed size: 9 MiB,
/// more than four times a 2 MiB L2 (~21.6 bits per key).
pub const ADAPT_MEMBERS: usize = 3_500_000;
pub const ADAPT_TOTAL_BITS: usize = 9 * 8 * 1024 * 1024;
pub const ADAPT_FRAME_KEYS: usize = 512;
/// Drifting hot negatives: each phase has its own hot set.
pub const DRIFT_PHASES: usize = 2;
pub const DRIFT_HOT: usize = 400_000;
pub const DRIFT_QUERIES_PER_PHASE: usize = 400_000;
/// Feedback events per phase, and events per FEEDBACK frame.
pub const FEEDBACK_EVENTS: usize = 32_768;
/// Few, large frames: each FEEDBACK round trip holds back the reader
/// frames in flight, and with 128-event frames those held-back frames
/// made up about 1% of all frames, so p99 flipped between them and the
/// rest from run to run.
pub const FEEDBACK_FRAME_EVENTS: usize = 1_024;
/// Hints each REBUILD may mine from the feedback log.
pub const MAX_HINTS: u32 = 16_384;

/// YCSB's full positive count: scales map member counts to `YcsbConfig`.
const YCSB_FULL_POSITIVES: f64 = 12_500_611.0;

/// Seed of the key corpora. Like the paper's Shalla and YCSB datasets
/// the corpus is fixed; the run seed draws everything else: the cost
/// shuffles, the probe mix, the frames and the drifting query stream.
/// Redrawing the corpus per seed moved weighted FPR by a fifth between
/// seeds, which would hide a real change in it.
pub const CORPUS_SEED: u64 = 0x5348_414C;

/// The filters' own build seed (H0 selection, shard routing, rebuilds).
/// It is configuration, not input, so it stays fixed across run seeds:
/// which hash functions H0 draws alone moves query cost by tens of
/// percent, and that would drown the differences between commits.
pub const FILTER_SEED: u64 = 0x4841_4246;

/// Derives an independent sub-seed for one generator from the run seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// One probed key: a member of the filter or a key never inserted,
/// indexing the workload's member or non-member list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    pub member: bool,
    pub index: u32,
}

impl Probe {
    fn member(index: usize) -> Self {
        Self {
            member: true,
            index: index as u32,
        }
    }

    fn other(index: usize) -> Self {
        Self {
            member: false,
            index: index as u32,
        }
    }
}

/// Inputs of `build-shalla-zipf`.
pub struct BuildInputs {
    pub data: Dataset,
    /// `costs[shuffle][i]`: Zipf-skewed cost of a false positive on
    /// negative `i`, one permutation per shuffle.
    pub costs: Vec<Vec<f64>>,
    /// Shuffled member / non-member scalar probe mix.
    pub mix: Vec<Probe>,
}

impl BuildInputs {
    pub fn key(&self, p: Probe) -> &[u8] {
        if p.member {
            &self.data.positives[p.index as usize]
        } else {
            &self.data.negatives[p.index as usize]
        }
    }
}

pub fn build_inputs(seed: u64) -> BuildInputs {
    let mut cfg = ShallaConfig::with_scale(SHALLA_SCALE);
    cfg.seed = CORPUS_SEED;
    let data = cfg.generate();
    let assignment = CostAssignment::new(data.negatives.len(), COST_SKEW, sub_seed(seed, 2));
    let costs = (0..COST_SHUFFLES).map(|i| assignment.shuffle(i)).collect();
    let mut rng = Xoshiro256::new(sub_seed(seed, 3));
    let mut mix: Vec<Probe> = rng
        .distinct_indices(MIX_EACH, data.positives.len())
        .into_iter()
        .map(Probe::member)
        .chain(
            rng.distinct_indices(MIX_EACH, data.negatives.len())
                .into_iter()
                .map(Probe::other),
        )
        .collect();
    rng.shuffle(&mut mix);
    BuildInputs { data, costs, mix }
}

/// Inputs of a serve workload: the tenant's members, keys it never holds,
/// the QUERY frames of each phase, the FEEDBACK events of each phase, and
/// the costed negatives `weighted_fpr` is measured over.
pub struct ServeInputs {
    pub members: Vec<Vec<u8>>,
    pub others: Vec<Vec<u8>>,
    /// `frames[phase][frame]` lists the keys of one QUERY frame.
    pub frames: Vec<Vec<Vec<Probe>>>,
    /// `feedback[phase][frame]` lists `others` indices reported as false
    /// positives, one event of cost 1 each.
    pub feedback: Vec<Vec<Vec<u32>>>,
    /// `(others index, cost)` of the negatives `weighted_fpr` covers.
    pub eval: Vec<(u32, f64)>,
}

impl ServeInputs {
    pub fn key(&self, p: Probe) -> &[u8] {
        if p.member {
            &self.members[p.index as usize]
        } else {
            &self.others[p.index as usize]
        }
    }
}

fn ycsb(members: usize, seed: u64) -> Dataset {
    let mut cfg = YcsbConfig::with_scale(members as f64 / YCSB_FULL_POSITIVES);
    cfg.seed = seed;
    cfg.generate()
}

/// `serve-tiny-frames`: 8-key frames, half members and half YCSB
/// negatives, against a small read-only tenant. Its non-members carry unit
/// cost, so its `weighted_fpr` is the plain FPR over them.
pub fn tiny_inputs(seed: u64) -> ServeInputs {
    let data = ycsb(TINY_MEMBERS, CORPUS_SEED);
    let mut rng = Xoshiro256::new(sub_seed(seed, 12));
    let frames = (0..TINY_FRAMES)
        .map(|_| {
            (0..TINY_FRAME_KEYS)
                .map(|i| {
                    if i % 2 == 0 {
                        Probe::member(rng.next_index(data.positives.len()))
                    } else {
                        Probe::other(rng.next_index(data.negatives.len()))
                    }
                })
                .collect()
        })
        .collect();
    let eval = (0..data.negatives.len()).map(|i| (i as u32, 1.0)).collect();
    ServeInputs {
        members: data.positives,
        others: data.negatives,
        frames: vec![frames],
        feedback: vec![Vec::new()],
        eval,
    }
}

/// `serve-adapt-mixed`: 512-key frames, half members and half the phase's
/// drifting negative stream; FEEDBACK carries the first hot negatives of
/// each phase's stream.
pub fn adapt_inputs(seed: u64) -> ServeInputs {
    let mut data = ycsb(ADAPT_MEMBERS, CORPUS_SEED);
    data.negatives = Vec::new();
    let drift = DriftConfig {
        universe: DRIFT_PHASES * DRIFT_HOT,
        hot: DRIFT_HOT,
        phases: DRIFT_PHASES,
        queries_per_phase: DRIFT_QUERIES_PER_PHASE,
        hot_fraction: 0.9,
        skewness: DRIFT_SKEW,
        seed: sub_seed(seed, 22),
    }
    .generate();
    let mut rng = Xoshiro256::new(sub_seed(seed, 23));
    let half = ADAPT_FRAME_KEYS / 2;
    let mut frames = Vec::with_capacity(DRIFT_PHASES);
    let mut feedback = Vec::with_capacity(DRIFT_PHASES);
    for phase in 0..DRIFT_PHASES {
        let stream: Vec<usize> = drift.phase_range(phase).map(|q| drift.queries[q]).collect();
        frames.push(
            stream
                .chunks_exact(half)
                .map(|chunk| {
                    chunk
                        .iter()
                        .flat_map(|&other| {
                            [
                                Probe::member(rng.next_index(data.positives.len())),
                                Probe::other(other),
                            ]
                        })
                        .collect()
                })
                .collect(),
        );
        let hot = &drift.hot_sets[phase];
        let (lo, hi) = (hot[0], hot[hot.len() - 1]);
        let events: Vec<u32> = stream
            .iter()
            .filter(|&&k| (lo..=hi).contains(&k))
            .take(FEEDBACK_EVENTS)
            .map(|&k| k as u32)
            .collect();
        feedback.push(
            events
                .chunks(FEEDBACK_FRAME_EVENTS)
                .map(<[u32]>::to_vec)
                .collect(),
        );
    }
    // The final phase's hot negatives, each costed by how often the
    // phase's stream asked for it.
    let last = DRIFT_PHASES - 1;
    let hot = &drift.hot_sets[last];
    let mut counts = vec![0u32; drift.universe.len()];
    for q in drift.phase_range(last) {
        counts[drift.queries[q]] += 1;
    }
    let eval = hot
        .iter()
        .filter(|&&k| counts[k] > 0)
        .map(|&k| (k as u32, f64::from(counts[k])))
        .collect();
    ServeInputs {
        members: data.positives,
        others: drift.universe,
        frames,
        feedback,
        eval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn serve_shape(s: &ServeInputs) -> Vec<usize> {
        let mut shape = vec![s.members.len(), s.others.len(), s.eval.len()];
        shape.extend(s.frames.iter().map(Vec::len));
        shape.extend(s.frames.iter().flat_map(|p| p.iter().map(Vec::len)));
        shape.extend(s.feedback.iter().map(Vec::len));
        shape
    }

    #[test]
    fn build_inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = build_inputs(5);
        let b = build_inputs(5);
        let c = build_inputs(6);
        assert_eq!(a.data.positives, b.data.positives);
        assert_eq!(a.data.negatives, b.data.negatives);
        assert_eq!(a.costs, b.costs);
        assert_eq!(a.mix, b.mix);
        // The corpus is fixed; the costs and the probe mix follow the seed.
        assert_eq!(a.data.positives, c.data.positives);
        assert_eq!(a.costs.len(), COST_SHUFFLES);
        assert_eq!(a.costs.len(), c.costs.len());
        assert_eq!(a.mix.len(), c.mix.len());
        assert_ne!(a.costs, c.costs);
        assert_ne!(a.mix, c.mix);
        assert!(a.data.is_well_formed(), "members and negatives overlap");
        assert_eq!(a.mix.iter().filter(|p| p.member).count(), MIX_EACH);
    }

    /// Digests of a serve workload's parts: (corpus, frames, feedback,
    /// eval). Digests keep one multi-million-key input alive at a time.
    fn digests(s: &ServeInputs) -> [u64; 4] {
        fn digest(x: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        let frames: Vec<Vec<(bool, u32)>> = s
            .frames
            .iter()
            .flatten()
            .map(|f| f.iter().map(|p| (p.member, p.index)).collect())
            .collect();
        let eval: Vec<(u32, u64)> = s.eval.iter().map(|&(i, c)| (i, c.to_bits())).collect();
        [
            digest(&(&s.members, &s.others)),
            digest(&frames),
            digest(&s.feedback),
            digest(&eval),
        ]
    }

    /// Same seed, same inputs; another seed, the same shapes over the same
    /// corpus, but other frames, feedback and costs.
    fn check_serve_seeds(make: fn(u64) -> ServeInputs, seeded: &[usize]) {
        let a = make(5);
        let (a_digests, mut a_shape) = (digests(&a), serve_shape(&a));
        drop(a);
        let b = make(5);
        assert_eq!(digests(&b), a_digests);
        drop(b);
        let c = make(6);
        let c_digests = digests(&c);
        assert_eq!(c_digests[0], a_digests[0], "corpus changed with the seed");
        for &part in seeded {
            assert_ne!(
                c_digests[part], a_digests[part],
                "part {part} ignores the seed"
            );
        }
        let mut c_shape = serve_shape(&c);
        // How many hot keys a drifting stream touched follows its draw.
        if seeded.contains(&3) {
            c_shape[2] = 0;
            a_shape[2] = 0;
        }
        assert_eq!(c_shape, a_shape);
    }

    #[test]
    fn tiny_inputs_repeat_per_seed_and_differ_across_seeds() {
        check_serve_seeds(tiny_inputs, &[1]);
        let a = tiny_inputs(5);
        assert!(a.frames[0].iter().all(|f| f.len() == TINY_FRAME_KEYS));
    }

    #[test]
    fn adapt_inputs_repeat_per_seed_and_differ_across_seeds() {
        check_serve_seeds(adapt_inputs, &[1, 2, 3]);
        let a = adapt_inputs(5);
        assert_eq!(a.frames.len(), DRIFT_PHASES);
        assert!(a.frames[0].iter().all(|f| f.len() == ADAPT_FRAME_KEYS));
        assert_eq!(a.feedback[0].len(), FEEDBACK_EVENTS / FEEDBACK_FRAME_EVENTS);
        // Members never leak into the negative stream.
        assert!(a.others.iter().all(|k| k.starts_with(b"drift-miss:")));
        assert!(a.members.iter().all(|k| k.starts_with(b"user")));
    }
}
