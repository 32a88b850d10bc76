//! Order statistics over measured samples.

/// The `p`-th percentile (`p` in `[0, 100]`) by linear interpolation
/// between closest ranks; `0.0` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    if lo == hi {
        // Also keeps an infinite sample from turning into `inf * 0`.
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Latency summary of one closed loop: median, and the 99th percentile
/// only when at least ten samples lie beyond it. Failed or refused
/// requests count as infinitely slow, so they sit beyond any limit.
#[derive(Clone, Debug)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p99: Option<f64>,
    pub beyond_p99: usize,
}

impl Latency {
    pub fn of(mut ok: Vec<f64>, failed: usize) -> Self {
        ok.sort_by(f64::total_cmp);
        let mut all = ok;
        all.extend(std::iter::repeat_n(f64::INFINITY, failed));
        let samples = all.len();
        let p50 = percentile_sorted(&all, 50.0);
        let p99 = percentile_sorted(&all, 99.0);
        let beyond_p99 = all.iter().filter(|&&x| x > p99).count();
        Self {
            samples,
            p50,
            p99: (beyond_p99 >= 10 && p99.is_finite()).then_some(p99),
            beyond_p99,
        }
    }
}

/// Length of one slice of a measured window. The host's speed drifts
/// over seconds, so each timed metric is a median over slices rather
/// than one figure over the whole window.
pub const SLICE_S: f64 = 0.5;

/// Summaries over the full [`SLICE_S`] slices of a window: the median
/// completion rate, the median of the slices' p50s, and the first
/// quartile of their p99s. A slice's p99 counts only when ten samples
/// lie beyond it.
#[derive(Clone, Debug)]
pub struct Sliced {
    pub slices: usize,
    pub rate: f64,
    pub p50: f64,
    pub p99: Option<f64>,
}

impl Sliced {
    /// `done_at_s[i]` is when sample `i` (of value `values[i]`) completed;
    /// each sample stands for `units` units of work.
    pub fn of(done_at_s: &[f64], values: &[f64], units: f64, window_s: f64) -> Self {
        let n = ((window_s / SLICE_S).floor() as usize).max(1);
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
        for (&t, &v) in done_at_s.iter().zip(values) {
            let slot = (t / SLICE_S) as usize;
            if slot < n {
                buckets[slot].push(v);
            }
        }
        let mut rates = Vec::with_capacity(n);
        let mut p50s = Vec::with_capacity(n);
        let mut p99s = Vec::with_capacity(n);
        let slice = SLICE_S.min(window_s);
        for mut b in buckets {
            rates.push(b.len() as f64 * units / slice);
            if b.is_empty() {
                continue;
            }
            b.sort_by(f64::total_cmp);
            p50s.push(percentile_sorted(&b, 50.0));
            let p99 = percentile_sorted(&b, 99.0);
            if b.iter().filter(|&&x| x > p99).count() >= 10 {
                p99s.push(p99);
            }
        }
        Self {
            slices: n,
            rate: median(&rates),
            p50: median(&p50s),
            // The tail is what other tenants of the host disturb most:
            // for seconds at a time a slice's p99 can jump 2-8x. The
            // first quartile over slices is the tail of the run's quieter
            // part, which is what a change to the program can move.
            p99: (!p99s.is_empty()).then(|| percentile(&p99s, 25.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_report_medians_of_rate_and_percentiles() {
        // Four slices at 100 samples/slice, one slow slice at 10.
        let mut done = Vec::new();
        let mut vals = Vec::new();
        for slice in 0..5 {
            let count = if slice == 2 { 10 } else { 2_000 };
            for i in 0..count {
                done.push(slice as f64 * SLICE_S + SLICE_S * i as f64 / count as f64);
                vals.push(if slice == 2 {
                    1_000.0
                } else {
                    f64::from(i % 100)
                });
            }
        }
        let s = Sliced::of(&done, &vals, 1.0, 5.0 * SLICE_S);
        assert_eq!(s.slices, 5);
        assert_eq!(s.rate, 2_000.0 / SLICE_S);
        assert!((s.p50 - 49.5).abs() < 1.0, "{s:?}");
        assert!(s.p99.is_some_and(|p| p < 100.0), "{s:?}");
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let small = Latency::of((0..500).map(f64::from).collect(), 0);
        assert!(small.p99.is_none(), "{small:?}");
        let big = Latency::of((0..5000).map(f64::from).collect(), 0);
        assert!(big.p99.is_some() && big.beyond_p99 >= 10, "{big:?}");
        let failing = Latency::of((0..5000).map(f64::from).collect(), 100);
        assert!(failing.p99.is_none(), "failures sit beyond any limit");
    }
}
