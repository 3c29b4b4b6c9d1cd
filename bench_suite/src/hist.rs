//! Latency histograms and the slice-median estimator.
//!
//! A whole-phase p99 of a short run is set by whichever merge happened
//! to fall inside it and does not repeat from run to run. The estimator
//! the end-to-end metrics use instead cuts the phase into [`SLICES`]
//! equal time slices, takes the percentile inside each, and reports the
//! median of those: one stall moves one slice, not the result. The
//! whole-phase percentiles and the maximum are still reported, as
//! diagnostics.

/// Sub-buckets per power of two: a bucket is at most 1/64 of its value
/// wide, and percentiles interpolate inside it.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) share the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// Time slices per measured phase.
pub const SLICES: usize = 10;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = msb - SUB_BITS;
    (((shift + 1) as u64) << SUB_BITS | ((v >> shift) & (SUB - 1))) as usize
}

/// Lowest value of bucket `i` and its width.
fn bucket_span(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    (((i & (SUB - 1)) | SUB) << shift, 1 << shift)
}

/// Log-linear histogram of nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        let c = &mut self.counts[bucket_of(v)];
        *c = c.saturating_add(1);
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value of rank `ceil(q * n)` (nearest-rank percentile),
    /// interpolated inside its bucket; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= rank {
                let (lo, width) = bucket_span(i);
                // Spread the bucket's samples evenly over its width.
                let inside = ((rank - seen) as f64 - 0.5) / c as f64;
                let v = lo as f64 + width as f64 * inside;
                return v.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

/// One histogram per time slice of a phase.
#[derive(Debug, Clone, Default)]
pub struct SliceHist {
    slices: [Histogram; SLICES],
}

/// What [`SliceHist::slice_median`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceEstimate {
    /// Median over the slices of each slice's percentile.
    pub value: f64,
    /// Fewest samples any used slice had: the percentile is supported
    /// only if enough samples lie beyond it in every slice.
    pub min_samples: u64,
    /// Slices that had samples.
    pub slices_used: usize,
}

impl SliceHist {
    pub fn record(&mut self, slice: usize, v: u64) {
        self.slices[slice.min(SLICES - 1)].record(v);
    }

    pub fn merge(&mut self, other: &SliceHist) {
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.merge(b);
        }
    }

    pub fn slice_count(&self, slice: usize) -> u64 {
        self.slices[slice].count()
    }

    /// All slices `keep` accepts, folded into one histogram.
    pub fn whole(&self, keep: impl Fn(usize) -> bool) -> Histogram {
        let mut all = Histogram::default();
        for (i, h) in self.slices.iter().enumerate() {
            if keep(i) {
                all.merge(h);
            }
        }
        all
    }

    /// Each slice's `q` percentile, 0 for an empty slice.
    pub fn per_slice(&self, q: f64) -> [f64; SLICES] {
        std::array::from_fn(|i| self.slices[i].percentile(q))
    }

    /// Median, over the slices `keep` accepts, of each slice's `q`
    /// percentile.
    pub fn slice_median(&self, q: f64, keep: impl Fn(usize) -> bool) -> SliceEstimate {
        let used: Vec<&Histogram> = self
            .slices
            .iter()
            .enumerate()
            .filter(|(i, h)| keep(*i) && h.count() > 0)
            .map(|(_, h)| h)
            .collect();
        let values: Vec<f64> = used.iter().map(|h| h.percentile(q)).collect();
        SliceEstimate {
            value: median(&values),
            min_samples: used.iter().map(|h| h.count()).min().unwrap_or(0),
            slices_used: used.len(),
        }
    }
}

/// Median of a list (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, exclusive method — what
/// Python's `statistics.quantiles(values, n=4)` returns, so `compare`
/// judges a spread the way the acceptance check does. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut expect_lo = 0;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_span(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + width - 1), i);
            expect_lo = lo + width;
        }
        assert_eq!(expect_lo, 1 << MAX_EXP);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_match_a_sorted_vector() {
        let mut rng = Rng::new(42);
        // Latency-shaped: a tight body, a long tail, a few huge stalls.
        let mut values: Vec<u64> = (0..200_000)
            .map(|i| match i % 1000 {
                0 => 2_000_000_000 + rng.below(1_000_000_000),
                1..=20 => 1_000_000 + rng.below(9_000_000),
                _ => 800 + rng.below(600),
            })
            .collect();
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = oracle(&values, q) as f64;
            let got = h.percentile(q);
            assert!(
                (got - want).abs() <= want / 64.0 + 1.0,
                "q={q}: histogram {got} vs sorted {want}"
            );
        }
        assert_eq!(h.count(), 200_000);
        assert_eq!(h.max(), *values.last().unwrap());
    }

    #[test]
    fn small_values_land_in_their_own_bucket() {
        let mut h = Histogram::default();
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 25.5);
        assert_eq!(h.percentile(1.0), 50.0);
    }

    #[test]
    fn merging_agrees_with_recording_into_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [5u64, 70, 900, 900, 12_345] {
            a.record(v);
            both.record(v);
        }
        for _ in 0..3 {
            b.record(900);
            both.record(900);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(a.percentile(q), both.percentile(q));
        }
        assert_eq!(a.count(), both.count());
    }

    #[test]
    fn slice_median_shrugs_off_one_stalled_slice() {
        let mut s = SliceHist::default();
        for slice in 0..SLICES {
            for i in 0..2_000u64 {
                // Slice 3 holds a stall: a fifth of its samples are 50 ms.
                let stalled = slice == 3 && i % 5 == 0;
                s.record(slice, if stalled { 50_000_000 } else { 1_000 + i % 100 });
            }
        }
        let whole = s.whole(|_| true);
        assert!(whole.percentile(0.99) > 40_000_000.0);
        let est = s.slice_median(0.99, |_| true);
        assert!(est.value < 1_200.0, "slice median p99 {}", est.value);
        assert_eq!(est.min_samples, 2_000);
        assert_eq!(est.slices_used, SLICES);
        let odd = s.slice_median(0.5, |i| i % 2 == 1);
        assert_eq!(odd.slices_used, SLICES / 2);
    }

    #[test]
    fn slice_median_is_the_median_of_slice_percentiles() {
        let mut s = SliceHist::default();
        for slice in 0..SLICES {
            for _ in 0..100 {
                s.record(slice, 10 * (slice as u64 + 1));
            }
        }
        // Slice p50s are 10, 20, ..., 100 (each bucket one wide).
        let est = s.slice_median(0.5, |_| true);
        assert!((est.value - 56.0).abs() <= 1.0, "{}", est.value);
        assert_eq!(s.slice_median(0.5, |_| false).value, 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
