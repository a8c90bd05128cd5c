//! Exact sample collection with percentile queries, the streaming
//! (Welford) mean/variance estimator, and the sampled-simulation window
//! plan.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Two-sided 95% Student-t quantiles for 1–30 degrees of freedom.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The two-sided 95% Student-t critical value for `df` degrees of
/// freedom (exact table up to 30, then the usual coarse steps down to
/// the normal limit 1.96).
pub fn t95(df: u64) -> f64 {
    match df {
        0 => f64::INFINITY,
        1..=30 => T95[df as usize - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// Streaming mean/variance estimator (Welford's algorithm) with a 95%
/// confidence interval on the mean.
///
/// Numerically stable in one pass and O(1) space — the sampled simulator
/// feeds it one IPC observation per detailed window and reads the
/// interval at the end of the run.
///
/// # Examples
///
/// ```
/// use regshare_stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.record(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
/// assert!(w.ci95_half_width() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The unbiased sample variance (n−1 denominator); 0.0 with fewer
    /// than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The standard error of the mean (`s / √n`); 0.0 with fewer than
    /// two observations.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval on the mean
    /// (`t · s / √n` with n−1 degrees of freedom); 0.0 with fewer than
    /// two observations.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            t95(self.count - 1) * self.std_error()
        }
    }

    /// The 95% confidence interval on the mean as `(low, high)`;
    /// degenerate `(mean, mean)` with fewer than two observations.
    pub fn ci95(&self) -> (f64, f64) {
        let h = self.ci95_half_width();
        (self.mean - h, self.mean + h)
    }
}

impl fmt::Display for Welford {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} ±{:.4} (95% CI)",
            self.count,
            self.mean,
            self.ci95_half_width()
        )
    }
}

/// The periodic window plan of a sampled (SMARTS-style) simulation.
///
/// The instruction stream is divided into fixed windows starting at
/// multiples of `period` counted from instruction 0. Each window runs
/// `warmup` instructions of detailed simulation whose timing is
/// discarded (they drain the cold-start transient of the reconstructed
/// pipeline) followed by `measure` instructions whose IPC becomes one
/// observation. Window positions depend only on this plan — never on
/// worker count or scheduling — which is what makes sliced runs
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplePlan {
    /// Distance between consecutive window starts, in instructions.
    pub period: u64,
    /// Detailed-warmup instructions per window (timing discarded).
    pub warmup: u64,
    /// Measured instructions per window (one IPC observation each).
    pub measure: u64,
}

impl SamplePlan {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < warmup + measure <= period` and `measure > 0`.
    pub fn new(period: u64, warmup: u64, measure: u64) -> Self {
        assert!(measure > 0, "sample plan needs a measured portion");
        assert!(
            warmup + measure <= period,
            "window ({warmup}+{measure}) longer than period {period}"
        );
        SamplePlan {
            period,
            warmup,
            measure,
        }
    }

    /// Instructions of detailed simulation per window.
    pub fn window_len(&self) -> u64 {
        self.warmup + self.measure
    }

    /// Start positions (in committed instructions from 0) of every
    /// window that fits entirely below `limit`.
    pub fn window_starts(&self, limit: u64) -> Vec<u64> {
        let mut starts = Vec::new();
        let mut s = 0u64;
        while s + self.window_len() <= limit {
            starts.push(s);
            match s.checked_add(self.period) {
                Some(next) => s = next,
                None => break,
            }
        }
        starts
    }

    /// Fraction of the stream covered by detailed simulation.
    pub fn detail_fraction(&self) -> f64 {
        self.window_len() as f64 / self.period as f64
    }
}

/// Collects `u64` samples and answers min/max/mean/percentile queries.
///
/// Samples are stored verbatim; queries sort lazily and cache the sorted
/// order until the next insertion. The cache is a `OnceLock`, so a
/// finished sampler can be shared across threads. Intended for up to a
/// few million samples (e.g. per-cycle occupancy of a register bank).
///
/// # Examples
///
/// ```
/// use regshare_stats::Sampler;
///
/// let mut s = Sampler::new("live_shadow_regs");
/// for v in [4, 8, 6, 2] {
///     s.record(v);
/// }
/// assert_eq!(s.min(), Some(2));
/// assert_eq!(s.max(), Some(8));
/// assert_eq!(s.percentile(50.0), Some(4));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Sampler {
    name: String,
    samples: Vec<u64>,
    #[serde(skip)]
    sorted: OnceLock<Vec<u64>>,
}

impl Sampler {
    /// Creates an empty sampler.
    pub fn new(name: impl Into<String>) -> Self {
        Sampler {
            name: name.into(),
            samples: Vec::new(),
            sorted: OnceLock::new(),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = OnceLock::new();
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
        }
    }

    /// The value at the given percentile (nearest-rank); `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not in `0.0..=100.0`.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        assert!(
            (0.0..=100.0).contains(&pct),
            "percentile out of range: {pct}"
        );
        if self.samples.is_empty() {
            return None;
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut v = self.samples.clone();
            v.sort_unstable();
            v
        });
        let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
        let idx = rank.saturating_sub(1).min(sorted.len() - 1);
        Some(sorted[idx])
    }

    /// The name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A read-only view of the raw samples, in insertion order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

impl fmt::Display for Sampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(m) => write!(
                f,
                "{}: n={} min={} mean={:.2} max={}",
                self.name,
                self.len(),
                self.min().unwrap_or(0),
                m,
                self.max().unwrap_or(0)
            ),
            None => write!(f, "{}: empty", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sampler_has_no_stats() {
        let s = Sampler::new("s");
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    fn min_max_mean() {
        let mut s = Sampler::new("s");
        for v in [5, 1, 3] {
            s.record(v);
        }
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(5));
        assert!((s.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut s = Sampler::new("s");
        for v in 1..=100u64 {
            s.record(v);
        }
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(90.0), Some(90));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.percentile(0.0), Some(1));
    }

    #[test]
    fn percentile_cache_invalidated_by_record() {
        let mut s = Sampler::new("s");
        s.record(10);
        assert_eq!(s.percentile(100.0), Some(10));
        s.record(20);
        assert_eq!(s.percentile(100.0), Some(20));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_bad_pct() {
        let mut s = Sampler::new("s");
        s.record(1);
        s.percentile(-0.1);
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = Sampler::new("s");
        assert!(!format!("{s}").is_empty());
        s.record(3);
        assert!(format!("{s}").contains("mean"));
    }
}

#[cfg(test)]
mod welford_tests {
    use super::*;

    #[test]
    fn empty_estimator_is_degenerate() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.ci95_half_width(), 0.0);
        assert_eq!(w.ci95(), (0.0, 0.0));
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut w = Welford::new();
        w.record(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.ci95(), (42.0, 42.0));
    }

    #[test]
    fn matches_textbook_sample() {
        // Classic example: mean 5, sample variance 32/7.
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        let expected_se = (32.0f64 / 7.0 / 8.0).sqrt();
        assert!((w.std_error() - expected_se).abs() < 1e-12);
        // df = 7 → t = 2.365.
        assert!((w.ci95_half_width() - 2.365 * expected_se).abs() < 1e-9);
    }

    #[test]
    fn constant_stream_has_zero_width_interval() {
        let mut w = Welford::new();
        for _ in 0..100 {
            w.record(3.25);
        }
        assert!((w.mean() - 3.25).abs() < 1e-12);
        assert!(w.variance().abs() < 1e-20);
        assert!(w.ci95_half_width().abs() < 1e-10);
    }

    #[test]
    fn uniform_integers_match_closed_form() {
        // 1..=1000: mean 500.5, sample variance n(n+1)/12 = 83_416.666…
        let mut w = Welford::new();
        for x in 1..=1000u32 {
            w.record(x as f64);
        }
        assert!((w.mean() - 500.5).abs() < 1e-9);
        let expected_var = 1000.0 * 1001.0 / 12.0;
        assert!((w.variance() - expected_var).abs() / expected_var < 1e-12);
        // Large n → t ≈ 1.96.
        let se = (expected_var / 1000.0).sqrt();
        assert!((w.ci95_half_width() - 1.96 * se).abs() < 1e-6);
    }

    #[test]
    fn ci_covers_true_mean_of_known_distribution() {
        // Deterministic LCG noise around 10.0; the 95% interval of 200
        // samples must comfortably cover the true mean.
        let mut w = Welford::new();
        let mut state = 0x12345678u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            w.record(10.0 + noise);
        }
        let (lo, hi) = w.ci95();
        assert!(lo < 10.0 && 10.0 < hi, "CI [{lo}, {hi}] misses 10.0");
        assert!(hi - lo < 0.2, "CI suspiciously wide: [{lo}, {hi}]");
    }

    #[test]
    fn t_table_endpoints() {
        assert!((t95(1) - 12.706).abs() < 1e-9);
        assert!((t95(30) - 2.042).abs() < 1e-9);
        assert!((t95(50) - 2.000).abs() < 1e-9);
        assert!((t95(1000) - 1.960).abs() < 1e-9);
        assert!(t95(0).is_infinite());
    }

    #[test]
    fn display_mentions_ci() {
        let mut w = Welford::new();
        w.record(1.0);
        w.record(2.0);
        assert!(format!("{w}").contains("95% CI"));
    }
}

#[cfg(test)]
mod plan_tests {
    use super::*;

    #[test]
    fn window_starts_are_period_multiples() {
        let p = SamplePlan::new(1000, 100, 200);
        assert_eq!(p.window_len(), 300);
        assert_eq!(p.window_starts(3300), vec![0, 1000, 2000, 3000]);
        // 3000 + 300 > 3200: the last window no longer fits.
        assert_eq!(p.window_starts(3200), vec![0, 1000, 2000]);
    }

    #[test]
    fn no_window_fits_in_tiny_stream() {
        let p = SamplePlan::new(1000, 100, 200);
        assert!(p.window_starts(299).is_empty());
        assert_eq!(p.window_starts(300), vec![0]);
    }

    #[test]
    fn detail_fraction() {
        let p = SamplePlan::new(10_000, 1_000, 1_000);
        assert!((p.detail_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "longer than period")]
    fn window_must_fit_in_period() {
        SamplePlan::new(100, 80, 30);
    }

    #[test]
    #[should_panic(expected = "measured portion")]
    fn measure_must_be_positive() {
        SamplePlan::new(100, 10, 0);
    }
}
