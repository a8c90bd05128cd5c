//! Dense integer histogram with an overflow bucket.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A histogram over the values `0..=max`, with everything above `max`
/// collected in a single overflow bucket.
///
/// This matches how the paper buckets consumer counts ("one, two, …, six or
/// more times", Fig. 2).
///
/// # Examples
///
/// ```
/// use regshare_stats::Histogram;
///
/// let mut h = Histogram::new("reuse_chain_len", 3);
/// for len in [0, 1, 1, 2, 7] {
///     h.record(len);
/// }
/// assert_eq!(h.count(1), 2);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Histogram {
    name: String,
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with inline buckets for values `0..=max`.
    pub fn new(name: impl Into<String>, max: u64) -> Self {
        Histogram {
            name: name.into(),
            buckets: vec![0; (max + 1) as usize],
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        self.sum += value;
        match self.buckets.get_mut(value as usize) {
            Some(slot) => *slot += 1,
            None => self.overflow += 1,
        }
    }

    /// Number of observations exactly equal to `value` (0 if above `max`).
    pub fn count(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Number of observations strictly above the largest inline bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all observations; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fraction of observations equal to `value`, in `[0, 1]`.
    pub fn fraction(&self, value: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Fraction of observations in the overflow bucket.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }

    /// Smallest value `v` such that at least `pct` percent of observations
    /// are `<= v`. Overflowed observations are treated as `max + 1`.
    ///
    /// Returns 0 when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not in `0.0..=100.0`.
    pub fn percentile(&self, pct: f64) -> u64 {
        assert!(
            (0.0..=100.0).contains(&pct),
            "percentile out of range: {pct}"
        );
        if self.total == 0 {
            return 0;
        }
        let threshold = (pct / 100.0 * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (value, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= threshold {
                return value as u64;
            }
        }
        self.buckets.len() as u64
    }

    /// The largest inline bucket value.
    pub fn max_inline(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    /// The name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterates `(value, count)` over the inline buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().map(|(v, c)| (v as u64, *c))
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "cannot merge histograms with different bucket counts"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.name)?;
        for (value, count) in self.iter() {
            write!(f, " {value}:{count}")?;
        }
        write!(f, " >{}:{} ]", self.max_inline(), self.overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_inline_and_overflow_buckets() {
        let mut h = Histogram::new("h", 2);
        h.record(0);
        h.record(2);
        h.record(3);
        h.record(100);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn mean_accounts_for_overflowed_values() {
        let mut h = Histogram::new("h", 1);
        h.record(10);
        h.record(0);
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_of_a_value_and_of_the_overflow() {
        let mut h = Histogram::new("h", 3);
        for v in [1, 1, 2, 3, 9] {
            h.record(v);
        }
        assert!((h.fraction(1) - 0.4).abs() < 1e-12);
        assert!((h.overflow_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_on_simple_distribution() {
        let mut h = Histogram::new("h", 10);
        for v in 1..=10 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!(h.percentile(10.0), 1);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = Histogram::new("h", 4);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        Histogram::new("h", 1).percentile(101.0);
    }

    #[test]
    fn merge_sums_buckets() {
        let mut a = Histogram::new("a", 2);
        let mut b = Histogram::new("b", 2);
        a.record(1);
        b.record(1);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn display_is_nonempty() {
        let h = Histogram::new("h", 1);
        assert!(!format!("{h}").is_empty());
    }
}
