//! The one batch-probe pipeline every batchable filter runs.
//!
//! A membership probe splits into two steps: derive where the key's bits
//! live (hash, plan) and read them (test). A filter states those two steps
//! by implementing [`ProbeKernel`]; [`drive`] owns the schedule that hides
//! memory latency between them. Per chunk of [`PROBE_CHUNK`] keys it runs
//! three passes:
//!
//! ```text
//! pass 0  key-byte prefetch : prefetch_bytes(key) for every chunk key
//! pass 1  plan              : ProbeKernel::plan — derive each key's probe
//!                             plan once, hint its filter lines, store it
//! pass 2  test              : ProbeKernel::test — check each key against
//!                             exactly the plan pass 1 stored for it
//! ```
//!
//! Pass 0 overlaps the key-fetch misses of a large shuffled batch; pass 1
//! gives each line prefetch a whole chunk of hashing as latency cover.
//! A plan is never re-derived: `test` reads what `plan` stored, so a key
//! is hashed once per probe (plus any second round a kernel runs on a
//! miss). Prefetching follows [`habf_util::prefetch::enabled`], read once
//! per [`drive`] call.
//!
//! Keys are reached through an accessor and answers leave through an emit
//! callback, so the same function serves a flat key slice (answers pushed
//! in order, see [`contains_batch`]) and a sharded filter's per-shard
//! group of scattered key indices (answers written back by index).

/// Keys planned ahead of the test pass per batch-probe chunk. 64 keys
/// give the prefetcher enough outstanding lines to hide DRAM latency
/// while the chunk's plans stay in L1.
pub const PROBE_CHUNK: usize = 64;

/// A filter's probe, split into the two steps [`drive`] schedules apart.
pub trait ProbeKernel {
    /// One entry of a key's probe plan: a bit position, a base hash, a
    /// set of slots — whatever `test` needs so it does not hash again.
    type Plan: Copy;

    /// Appends `key`'s probe plan to `plan` (zero or more entries) and,
    /// when `prefetch` is set, hints the cache lines `test` will read.
    fn plan(&self, key: &[u8], plan: &mut Vec<Self::Plan>, prefetch: bool);

    /// Answers membership for `key` given exactly the entries
    /// [`ProbeKernel::plan`] appended for it.
    fn test(&self, key: &[u8], plan: &[Self::Plan]) -> bool;
}

/// Runs the chunked plan → test schedule over `items`, reaching each
/// key through `key` and reporting each answer as `emit(item, answer)`
/// in item order. `plan` and `ends` are caller-owned scratch (cleared per
/// chunk), so a serving thread can keep them across batches.
pub fn drive<'k, K, T>(
    kernel: &K,
    items: &[T],
    key: impl Fn(&T) -> &'k [u8],
    plan: &mut Vec<K::Plan>,
    ends: &mut Vec<usize>,
    mut emit: impl FnMut(&T, bool),
) where
    K: ProbeKernel + ?Sized,
{
    let prefetch = habf_util::prefetch::enabled();
    for chunk in items.chunks(PROBE_CHUNK) {
        if prefetch {
            // On a large shuffled batch the key bytes themselves are
            // heap-random reads; start them before any hashing.
            for item in chunk {
                habf_util::prefetch::prefetch_bytes(key(item));
            }
        }
        plan_pass(kernel, chunk, &key, plan, ends, prefetch);
        test_pass(kernel, chunk, &key, plan, ends, &mut emit);
    }
}

// The two passes are separate, never-inlined functions so each loop gets
// the registers to itself. Fused into one body, the kernel's hoisted
// state spills around the plan bookkeeping: over 10 alternating 1M-key
// probe runs on a 2-vCPU Xeon, the fused loop lost 11% (blocked-bloom)
// and 15% (binary-fuse) of batch throughput. One call per 64-key chunk
// costs nothing by comparison.

/// Pass 1: appends every chunk key's plan to `plan`, recording in
/// `ends[i]` where key `i`'s entries stop.
#[inline(never)]
fn plan_pass<'k, K, T>(
    kernel: &K,
    chunk: &[T],
    key: &impl Fn(&T) -> &'k [u8],
    plan: &mut Vec<K::Plan>,
    ends: &mut Vec<usize>,
    prefetch: bool,
) where
    K: ProbeKernel + ?Sized,
{
    plan.clear();
    ends.clear();
    for item in chunk {
        kernel.plan(key(item), plan, prefetch);
        ends.push(plan.len());
    }
}

/// Pass 2: tests every chunk key against exactly its own plan entries.
#[inline(never)]
fn test_pass<'k, K, T>(
    kernel: &K,
    chunk: &[T],
    key: &impl Fn(&T) -> &'k [u8],
    plan: &[K::Plan],
    ends: &[usize],
    emit: &mut impl FnMut(&T, bool),
) where
    K: ProbeKernel + ?Sized,
{
    let mut from = 0;
    for (item, &to) in chunk.iter().zip(ends) {
        emit(item, kernel.test(key(item), &plan[from..to]));
        from = to;
    }
}

/// Answers every key of a flat batch in input order through [`drive`].
#[must_use]
pub fn contains_batch<K: ProbeKernel + ?Sized>(kernel: &K, keys: &[&[u8]]) -> Vec<bool> {
    let mut out = Vec::with_capacity(keys.len());
    drive(
        kernel,
        keys,
        |k| k,
        &mut Vec::new(),
        &mut Vec::new(),
        |_, hit| out.push(hit),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A kernel whose plan for key `i` (keys are `i` as little-endian
    /// bytes) holds 0, 1 or 3 entries `(i, j)`, chosen by `i % 4`. It logs
    /// every call so the test can check the schedule.
    #[derive(Default)]
    struct Fake {
        planned: RefCell<Vec<(u32, bool)>>,
        tested: RefCell<Vec<u32>>,
    }

    fn id(key: &[u8]) -> u32 {
        u32::from_le_bytes(key.try_into().expect("4-byte key"))
    }

    fn plan_len(i: u32) -> u32 {
        [0, 1, 3, 3][i as usize % 4]
    }

    fn answer(i: u32) -> bool {
        i % 3 != 0
    }

    impl ProbeKernel for Fake {
        type Plan = (u32, u32);

        fn plan(&self, key: &[u8], plan: &mut Vec<(u32, u32)>, prefetch: bool) {
            let i = id(key);
            self.planned.borrow_mut().push((i, prefetch));
            plan.extend((0..plan_len(i)).map(|j| (i, j)));
        }

        fn test(&self, key: &[u8], plan: &[(u32, u32)]) -> bool {
            let i = id(key);
            self.tested.borrow_mut().push(i);
            let own: Vec<(u32, u32)> = (0..plan_len(i)).map(|j| (i, j)).collect();
            assert_eq!(plan, own.as_slice(), "key {i} saw another key's plan");
            answer(i)
        }
    }

    /// Runs `drive` the way a sharded filter does: over a scattered
    /// order of key indices, writing answers back by index.
    fn run_scattered(fake: &Fake, keys: &[[u8; 4]], order: &[u32]) -> Vec<Option<bool>> {
        let mut out = vec![None; keys.len()];
        let (mut plan, mut ends) = (Vec::new(), Vec::new());
        drive(
            fake,
            order,
            |&idx| &keys[idx as usize][..],
            &mut plan,
            &mut ends,
            |&idx, hit| {
                assert!(out[idx as usize].is_none(), "key {idx} answered twice");
                out[idx as usize] = Some(hit);
            },
        );
        out
    }

    #[test]
    fn drive_plans_once_tests_own_plan_and_answers_in_place() {
        for prefetch in [false, true] {
            let _switch = habf_util::prefetch::scoped(prefetch);
            for n in [0u32, 1, 63, 64, 65, 129] {
                let keys: Vec<[u8; 4]> = (0..n).map(u32::to_le_bytes).collect();
                let expect: Vec<bool> = (0..n).map(answer).collect();

                let fake = Fake::default();
                let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
                assert_eq!(contains_batch(&fake, &refs), expect, "n={n} identity");
                let planned = fake.planned.take();
                assert_eq!(planned, (0..n).map(|i| (i, prefetch)).collect::<Vec<_>>());
                assert_eq!(fake.tested.take(), (0..n).collect::<Vec<_>>());

                // Scattered order: odd indices descending, then evens.
                let order: Vec<u32> = (0..n)
                    .rev()
                    .filter(|i| i % 2 == 1)
                    .chain((0..n).filter(|i| i % 2 == 0))
                    .collect();
                let fake = Fake::default();
                let got = run_scattered(&fake, &keys, &order);
                let want: Vec<Option<bool>> = expect.iter().copied().map(Some).collect();
                assert_eq!(got, want, "n={n} scattered");
                let planned: Vec<u32> = fake.planned.take().iter().map(|p| p.0).collect();
                assert_eq!(planned, order, "n={n}: plan once per key, in order");
                assert_eq!(fake.tested.take(), order, "n={n}: test once per key");
            }
        }
    }
}
