//! Log-bucketed latency histograms.
//!
//! A [`Histogram`] spreads observations over geometrically growing
//! buckets (eight per power of two, ≈9.05 % wide), so quantile queries
//! cost O(buckets) with a bounded relative error of half a bucket
//! (≈±4.4 %) while `count`/`sum`/`min`/`max` — and therefore the mean —
//! stay exact. Everything is plain integer/float state: identical runs
//! produce identical histograms.

/// Smallest representable observation (1 ns, in seconds). Anything
/// smaller lands in the first bucket.
const MIN_VALUE: f64 = 1e-9;

/// Buckets per power of two.
const BUCKETS_PER_OCTAVE: f64 = 8.0;

/// Total bucket count: 8 × 64 octaves spans 1 ns to ≈1.8e10 s.
const NUM_BUCKETS: usize = 512;

/// A fixed-layout logarithmic histogram of non-negative samples
/// (by convention, seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Exact count/sum statistics plus quantile estimates of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: f64,
    /// Exact mean (`sum / count`).
    pub mean: f64,
    /// Exact smallest observation.
    pub min: f64,
    /// Exact largest observation.
    pub max: f64,
    /// Median estimate (exact for 0- and 1-sample histograms).
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket holding `value`.
    fn bucket_index(value: f64) -> usize {
        if value <= MIN_VALUE {
            return 0;
        }
        let i = ((value / MIN_VALUE).log2() * BUCKETS_PER_OCTAVE).floor() as usize;
        i.min(NUM_BUCKETS - 1)
    }

    /// `[lo, hi)` value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = if i == 0 {
            0.0
        } else {
            MIN_VALUE * (i as f64 / BUCKETS_PER_OCTAVE).exp2()
        };
        let hi = MIN_VALUE * ((i + 1) as f64 / BUCKETS_PER_OCTAVE).exp2();
        (lo, hi)
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite sample — observations are
    /// durations, which are always finite and non-negative.
    pub fn observe(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "histogram samples must be finite and non-negative, got {value}"
        );
        let i = Self::bucket_index(value);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), or `None` when empty.
    ///
    /// The estimate is the geometric midpoint of the bucket containing
    /// the rank-`q` sample, clamped to the exact observed `[min, max]`
    /// — so a single-sample histogram reports that sample exactly, and
    /// `quantile(0.0)` / `quantile(1.0)` are always exact.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // Rank of the target sample, matching linear-interpolation
        // percentile conventions on the sample count.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let mid = if lo == 0.0 {
                    hi / 2.0
                } else {
                    (lo * hi).sqrt()
                };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Count/sum/quantile summary, or `None` when empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        (self.count > 0).then(|| HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.sum / self.count as f64,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50).expect("non-empty"),
            p95: self.quantile(0.95).expect("non-empty"),
            p99: self.quantile(0.99).expect("non-empty"),
        })
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, in value order.
    #[cfg(test)]
    fn buckets(&self) -> Vec<(f64, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert!(h.summary().is_none());
    }

    #[test]
    fn single_sample_is_exact_everywhere() {
        let mut h = Histogram::new();
        h.observe(0.125);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 0.125);
        assert_eq!(s.min, 0.125);
        assert_eq!(s.max, 0.125);
        // min == max clamping makes every quantile exact.
        assert_eq!(s.p50, 0.125);
        assert_eq!(s.p95, 0.125);
        assert_eq!(s.p99, 0.125);
    }

    #[test]
    fn bucket_boundaries_are_geometric_and_contiguous() {
        // Each bucket's hi is the next bucket's lo, and hi/lo is the
        // eighth root of two.
        for i in 1..64 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            let (next_lo, _) = Histogram::bucket_bounds(i + 1);
            assert!((hi - next_lo).abs() < 1e-18);
            assert!((hi / lo - 2f64.powf(1.0 / 8.0)).abs() < 1e-12);
        }
        // The first bucket catches everything at or below 1 ns.
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(1e-9), 0);
        assert_eq!(Histogram::bucket_index(0.5e-9), 0);
        // Values on a power-of-two boundary land in the bucket starting
        // there.
        let i = Histogram::bucket_index(2e-9);
        let (lo, hi) = Histogram::bucket_bounds(i);
        assert!(lo <= 2e-9 && 2e-9 < hi, "{lo} <= 2e-9 < {hi}");
    }

    #[test]
    fn mean_is_exact_quantiles_within_bucket_width() {
        let mut h = Histogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for &s in &samples {
            h.observe(s);
        }
        let s = h.summary().unwrap();
        let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((s.mean - exact_mean).abs() < 1e-12);
        // One bucket is ≈9 % wide; the midpoint estimate is within ±5 %.
        for (q, exact) in [(0.50, 0.5), (0.95, 0.95), (0.99, 0.99)] {
            let est = h.quantile(q).unwrap();
            assert!((est - exact).abs() / exact < 0.05, "q{q}: {est} vs {exact}");
        }
        assert_eq!(s.min, 1e-3);
        assert_eq!(s.max, 1.0);
    }

    #[test]
    fn extreme_quantiles_are_exact() {
        let mut h = Histogram::new();
        for v in [0.004, 1.7, 0.9, 0.031] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(0.004));
        assert_eq!(h.quantile(1.0), Some(1.7));
    }

    #[test]
    fn zero_samples_land_in_the_first_bucket() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(0.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_eq!(h.buckets()[0].2, 2);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_rejected() {
        let mut h = Histogram::new();
        h.observe(1.0);
        h.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_sample_rejected() {
        Histogram::new().observe(-1.0);
    }

    #[test]
    fn huge_samples_saturate_the_last_bucket() {
        let mut h = Histogram::new();
        h.observe(1e80);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(1e80)); // clamped to max
    }
}
