//! Measurement instruments for simulation experiments.
//!
//! Every experiment harness in the workspace reports through these types:
//! monotonically increasing [`Counter`]s, streaming [`Histogram`]s with
//! nearest-rank summaries, and timestamped [`TimeSeries`].

use serde::{Deserialize, Serialize};
use std::fmt;
use zeiot_core::time::SimTime;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use zeiot_sim::metrics::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.increment();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(0)
    }

    /// Adds one, saturating at `u64::MAX`.
    pub fn increment(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` so long-running simulations
    /// degrade to a pinned counter instead of an overflow panic.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// The current count.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A streaming histogram over `f64` samples with exact quantiles.
///
/// Stores all samples in insertion order (experiments here are small
/// enough that exactness beats the memory savings of a sketch);
/// [`Histogram::summary`] sorts a copy for its quantiles.
///
/// # Example
///
/// ```
/// use zeiot_sim::metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] { h.record(v); }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.mean(), Some(2.5));
/// assert_eq!(h.summary().unwrap().p50, 2.0); // nearest-rank
/// assert_eq!(h.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN; NaN samples would poison every quantile.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.samples.push(value);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Summary statistics computed from `&self`, or `None` if empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded at record"));
        let nearest_rank = |q: f64| -> f64 {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[rank.min(sorted.len() - 1)]
        };
        Some(HistogramSummary {
            count: sorted.len(),
            mean: self.mean().expect("non-empty"),
            std_dev: self.std_dev().expect("non-empty"),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            sum: self.sum(),
            p50: nearest_rank(0.5),
            p90: nearest_rank(0.9),
            p99: nearest_rank(0.99),
        })
    }
}

/// Point-in-time summary statistics of a [`Histogram`], computable from a
/// shared reference (quantiles by the nearest-rank method).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of all samples.
    pub sum: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// A timestamped sequence of measurements.
///
/// # Example
///
/// ```
/// use zeiot_sim::metrics::TimeSeries;
/// use zeiot_core::time::SimTime;
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_secs(1), 0.5);
/// ts.record(SimTime::from_secs(2), 0.7);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((SimTime::from_secs(2), 0.7)));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last recorded point; series are
    /// append-only in time order. Ordering is enforced in release builds
    /// too — the workspace-wide policy for time-ordered instruments (see
    /// also [`crate::trace::TraceBuffer::push`]), since a silently
    /// misordered series corrupts every time-weighted statistic.
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "time series must be recorded in order");
        }
        self.points.push((time, value));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent point.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// All points in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.increment();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(5.0));
        assert_eq!(h.std_dev(), Some(2.0));
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(9.0));
        assert_eq!(h.sum(), 40.0);
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.summary(), None);
        assert_eq!(h.min(), None);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn time_series_append_and_query() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(0), 1.0);
        ts.record(SimTime::from_secs(10), 3.0);
        ts.record(SimTime::from_secs(20), 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last(), Some((SimTime::from_secs(20), 3.0)));
    }

    #[test]
    #[should_panic]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(5), 1.0);
        ts.record(SimTime::from_secs(4), 2.0);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.value(), u64::MAX);
        c.increment();
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn summary_quantiles_are_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, h.mean().unwrap());
    }
}
