#![warn(missing_docs)]

//! Statistics primitives for the `regshare` simulator family.
//!
//! The timing simulator, the renaming schemes and the experiment harness all
//! report results through the small set of types defined here:
//!
//! * [`Histogram`] — a dense integer histogram with an overflow bucket.
//! * [`Ratio`] — numerator/denominator pairs rendered as percentages.
//! * [`Sampler`] — exact min/max/mean/percentile over `u64` samples.
//! * [`Table`] — fixed-width plain-text table rendering used to print the
//!   paper's tables and figures.
//!
//! It also hosts [`FastHasher`], the deterministic integer hasher the
//! simulator's hot-path hash tables share.
//!
//! # Examples
//!
//! ```
//! use regshare_stats::Histogram;
//!
//! let mut consumers = Histogram::new("consumers", 6);
//! consumers.record(1);
//! consumers.record(1);
//! consumers.record(9); // lands in the overflow bucket
//! assert_eq!(consumers.count(1), 2);
//! assert_eq!(consumers.overflow(), 1);
//! ```

mod hash;
mod histogram;
mod sampler;
mod table;

pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use histogram::Histogram;
pub use sampler::{SamplePlan, Sampler, Welford};
pub use table::{Align, Table};

use serde::{Deserialize, Serialize};
use std::fmt;

/// A numerator/denominator pair, displayed as a percentage.
///
/// `Ratio` never divides by zero: an empty denominator yields 0.0.
///
/// # Examples
///
/// ```
/// use regshare_stats::Ratio;
///
/// let mut hits = Ratio::new("l1d_hit_rate");
/// hits.record(true);
/// hits.record(true);
/// hits.record(false);
/// assert!((hits.percent() - 66.666).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Ratio {
    name: String,
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Creates an empty ratio.
    pub fn new(name: impl Into<String>) -> Self {
        Ratio {
            name: name.into(),
            hits: 0,
            total: 0,
        }
    }

    /// Records one event; `hit` selects whether it counts toward the numerator.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Adds raw numerator/denominator contributions.
    pub fn add(&mut self, hits: u64, total: u64) {
        self.hits += hits;
        self.total += total;
    }

    /// Numerator.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Denominator.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The ratio as a fraction in `[0, 1]`; 0 when empty.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// The ratio as a percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }

    /// The name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resets the numerator and denominator to zero, keeping the name.
    /// Used when warmed state is handed to a measurement window whose
    /// statistics must not include the warming traffic.
    pub fn reset(&mut self) {
        self.hits = 0;
        self.total = 0;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2}% ({}/{})",
            self.name,
            self.percent(),
            self.hits,
            self.total
        )
    }
}

/// Computes the geometric mean of `values`, ignoring non-positive entries.
///
/// Returns 0.0 for an empty input. The paper reports average speedups; for
/// ratios the geometric mean is the conventional aggregate.
///
/// # Examples
///
/// ```
/// use regshare_stats::geomean;
///
/// assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    let positives: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positives.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = positives.iter().map(|v| v.ln()).sum();
    (log_sum / positives.len() as f64).exp()
}

/// Computes the arithmetic mean of `values`; 0.0 for an empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_empty_is_zero_percent() {
        let r = Ratio::new("empty");
        assert_eq!(r.percent(), 0.0);
        assert_eq!(r.fraction(), 0.0);
    }

    #[test]
    fn ratio_records_hits_and_misses() {
        let mut r = Ratio::new("r");
        for _ in 0..3 {
            r.record(true);
        }
        r.record(false);
        assert_eq!(r.hits(), 3);
        assert_eq!(r.total(), 4);
        assert!((r.percent() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_add_merges_raw_counts() {
        let mut r = Ratio::new("r");
        r.add(1, 2);
        r.add(1, 2);
        assert!((r.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ignores_nonpositive() {
        assert!((geomean(&[0.0, -1.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_impls_are_nonempty() {
        let mut r = Ratio::new("r");
        r.record(true);
        assert!(!format!("{r}").is_empty());
    }
}
