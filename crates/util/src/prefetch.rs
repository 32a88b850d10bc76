//! Software prefetch for the batch probe pipeline.
//!
//! Filter probes are cache-random by construction: a good hash scatters
//! the k bit positions of every key across the whole array, so a scalar
//! query pays one full DRAM round-trip per probe. The batch pipeline
//! hides that latency by splitting each batch into two passes — hash all
//! keys and *prefetch* the target cache lines, then run the tests once
//! the lines are (likely) resident.
//!
//! This module is the only place the prefetch instructions live: the
//! filter crates deny `unsafe_code`, so they call these safe wrappers.
//! A prefetch is architecturally a hint — it cannot fault, cannot trap,
//! and has no observable effect on memory — which is why a safe wrapper
//! over a raw address is sound. The wrappers still take slices and
//! indices (not raw pointers) so misuse degrades to a wasted hint, never
//! a wild address.
//!
//! On targets without a stable prefetch path the wrappers compile to
//! nothing, and [`set_enabled`] can disable prefetching at runtime so
//! tests and benchmarks can pin prefetch-on == prefetch-off answers and
//! measure the pipeline's contribution in isolation.
//!
//! ## Concurrency contract
//!
//! The switch is **process-global**: toggling it affects every thread's
//! batch pipelines at once. That is harmless for correctness (the flag
//! only gates a cache hint; answers are identical either way) but it
//! makes A/B measurements and prefetch-off assertions racy under a
//! parallel test runner — another test flipping the flag mid-batch
//! silently turns an "off" measurement into a mixed one. Tests and
//! benchmarks must therefore toggle through [`scoped`], which serializes
//! all togglers behind one process-wide lock and restores the previous
//! state on drop; bare [`set_enabled`] is for single-threaded tools that
//! own the whole process (the CLI, a bench binary's `main`).

use core::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Runtime switch for the whole pipeline (default on). Relaxed ordering
/// is enough: the flag only gates a hint.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Serializes [`scoped`] togglers. Separate from the flag itself so the
/// hot-path read stays a bare atomic load.
static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

/// Globally enables or disables prefetch hints (A/B testing; the probe
/// benchmark measures both sides). Process-global — see the module docs;
/// concurrent togglers (tests under a parallel runner) must use
/// [`scoped`] instead.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the prefetch switch for the lifetime of the returned guard,
/// holding a process-wide lock so concurrent scoped togglers serialize
/// instead of racing each other's measurements. On drop the previous
/// state is restored and the lock released. The lock is not reentrant:
/// nesting `scoped` calls on one thread deadlocks — toggle with
/// [`set_enabled`] inside an existing scope instead.
///
/// ```
/// let scalar_answers = [true, false];
/// let off = {
///     let _guard = habf_util::prefetch::scoped(false);
///     // batch pipelines in this scope run without prefetch hints
///     scalar_answers
/// };
/// assert_eq!(off, scalar_answers);
/// assert!(habf_util::prefetch::enabled(), "restored on drop");
/// ```
#[must_use = "the switch reverts when the guard drops"]
pub fn scoped(on: bool) -> ScopedPrefetch {
    // A test that panicked while holding the lock cannot have left the
    // flag in a torn state (it is a single atomic), so poisoning carries
    // no information here — take the lock either way.
    let lock = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let previous = ENABLED.swap(on, Ordering::Relaxed);
    ScopedPrefetch {
        previous,
        _lock: lock,
    }
}

/// Guard returned by [`scoped`]: restores the previous switch state and
/// releases the toggle lock on drop.
pub struct ScopedPrefetch {
    previous: bool,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ScopedPrefetch {
    fn drop(&mut self) {
        ENABLED.store(self.previous, Ordering::Relaxed);
    }
}

/// Whether prefetch hints are currently enabled. Batch pipelines read
/// this once per batch, not per key.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Issues a read prefetch (to all cache levels) for the line holding `t`.
#[inline]
pub fn prefetch_read<T>(t: &T) {
    let ptr: *const T = t;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint with no architectural side effects;
    // it cannot fault even on an invalid address, and `ptr` comes from a
    // live reference anyway.
    unsafe {
        core::arch::x86_64::_mm_prefetch(ptr.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM PLDL1KEEP is a hint: no memory access, no flags, no
    // faults; the operand register is only read.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr,
            options(readonly, nostack, preserves_flags)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = ptr;
}

/// Prefetches the word `words[word_idx]` if it exists. Out-of-range
/// indices are ignored — a stale hint is harmless.
#[inline]
pub fn prefetch_words(words: &[u64], word_idx: usize) {
    if let Some(w) = words.get(word_idx) {
        prefetch_read(w);
    }
}

/// Cache-line size the byte prefetch assumes (x86-64 and most aarch64).
const LINE: usize = 64;

/// Prefetches the cache line(s) holding a small byte slice. The batch
/// pipelines use this on the *key bytes* of upcoming probes: a large
/// shuffled batch reads its keys in heap-random order, so the key fetch
/// misses cache exactly like the filter words do. One hint covers the
/// line of the first byte; a slice whose last byte sits on another line
/// gets a second hint for that line, however short the slice: a short
/// key straddles a line boundary about as often as not. Lines strictly
/// between the first and the last, in slices past two lines, get none.
#[inline]
pub fn prefetch_bytes(bytes: &[u8]) {
    if let (Some(first), Some(last)) = (bytes.first(), bytes.last()) {
        prefetch_read(first);
        if ends_on_another_line(bytes.as_ptr() as usize, bytes.len()) {
            prefetch_read(last);
        }
    }
}

/// Whether the last byte of a `len`-byte slice at address `addr` lies on
/// a different cache line than its first byte (`len ≥ 1`).
#[inline]
fn ends_on_another_line(addr: usize, len: usize) -> bool {
    addr / LINE != (addr + len - 1) / LINE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_observably_inert() {
        let words = vec![0xDEAD_BEEFu64; 64];
        prefetch_words(&words, 0);
        prefetch_words(&words, 63);
        prefetch_words(&words, 64); // out of range: ignored
        prefetch_words(&[], 0);
        assert!(words.iter().all(|&w| w == 0xDEAD_BEEF));
    }

    #[test]
    fn second_hint_goes_to_every_slice_ending_on_another_line() {
        for offset in 0..LINE {
            for len in 1..=130 {
                // The lines the slice touches, enumerated byte by byte.
                let lines: Vec<usize> = (offset..offset + len).map(|a| a / LINE).collect();
                let spans = lines.first() != lines.last();
                assert_eq!(
                    ends_on_another_line(offset, len),
                    spans,
                    "offset {offset}, len {len}"
                );
                // A slice of at most one line needs a second hint exactly
                // when it does not fit in the rest of its first line.
                if len <= LINE {
                    assert_eq!(spans, offset + len > LINE, "offset {offset}, len {len}");
                }
            }
        }
    }

    #[test]
    fn enable_flag_round_trips() {
        let _guard = scoped(true); // serialize against the scoped tests
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn scoped_restores_previous_state() {
        let outer = scoped(false);
        assert!(!enabled());
        drop(outer);
        assert!(enabled(), "previous state restored on drop");
    }

    #[test]
    fn scoped_serializes_concurrent_togglers() {
        // Two threads each hold an exclusive off-scope; whenever either
        // observes the flag inside its scope it must read its own value,
        // never the other thread's.
        let threads: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        let _guard = scoped(false);
                        assert!(!enabled(), "another toggler raced inside the scope");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("toggler thread");
        }
        assert!(enabled());
    }
}
