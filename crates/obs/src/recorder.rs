//! The [`Recorder`]: one facade over every observability instrument.
//!
//! Subsystems take `&mut Recorder` (usually as an `Option`) and report
//! through labeled metric families — a family is all instruments sharing a
//! metric name (`subsystem.metric`), keyed by the [`Label`] of the entity
//! being measured. The recorder also owns a severity-tagged bounded trace
//! built on [`TraceBuffer`].

use crate::label::Label;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use zeiot_core::time::SimTime;
use zeiot_sim::metrics::{Counter, Histogram, TimeSeries};
use zeiot_sim::trace::TraceBuffer;

/// How noteworthy a trace event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    Debug,
    Info,
    Warn,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        })
    }
}

/// One entry in the recorder's bounded trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Severity tag.
    pub severity: Severity,
    /// The entity the event concerns.
    pub label: Label,
    /// Human-readable description.
    pub message: String,
}

/// Default number of trace entries retained.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Labeled metric families plus a severity-tagged trace.
///
/// # Example
///
/// ```
/// use zeiot_obs::{Label, Recorder};
/// use zeiot_core::id::NodeId;
///
/// let mut rec = Recorder::new();
/// rec.add("microdeep.tx_messages", Label::node(NodeId::new(0)), 3);
/// rec.observe("fault.recovery_latency_hops", Label::Global, 2.0);
/// assert_eq!(rec.counter_value("microdeep.tx_messages", &Label::node(NodeId::new(0))), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    counters: BTreeMap<(String, Label), Counter>,
    gauges: BTreeMap<(String, Label), f64>,
    histograms: BTreeMap<(String, Label), Histogram>,
    series: BTreeMap<(String, Label), TimeSeries>,
    trace: TraceBuffer<TraceEvent>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates an empty recorder retaining the newest
    /// [`DEFAULT_TRACE_CAPACITY`] trace entries.
    pub fn new() -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series: BTreeMap::new(),
            trace: TraceBuffer::new(DEFAULT_TRACE_CAPACITY),
        }
    }

    // -- counters ----------------------------------------------------------

    /// The counter `(name, label)`, created at zero on first access.
    pub fn counter(&mut self, name: &str, label: Label) -> &mut Counter {
        self.counters.entry((name.to_owned(), label)).or_default()
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, name: &str, label: Label, n: u64) {
        self.counter(name, label).add(n);
    }

    /// Adds one to a counter.
    pub fn inc(&mut self, name: &str, label: Label) {
        self.counter(name, label).increment();
    }

    /// Current value of a counter (zero if it was never touched).
    pub fn counter_value(&self, name: &str, label: &Label) -> u64 {
        self.counters
            .get(&(name.to_owned(), label.clone()))
            .map_or(0, |c| c.value())
    }

    /// Iterates all counters as `(name, label, value)`, sorted by key.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &Label, u64)> {
        self.counters
            .iter()
            .map(|((name, label), c)| (name.as_str(), label, c.value()))
    }

    // -- gauges ------------------------------------------------------------

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, label: Label, value: f64) {
        self.gauges.insert((name.to_owned(), label), value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str, label: &Label) -> Option<f64> {
        self.gauges.get(&(name.to_owned(), label.clone())).copied()
    }

    /// Iterates all gauges as `(name, label, value)`, sorted by key.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &Label, f64)> {
        self.gauges
            .iter()
            .map(|((name, label), v)| (name.as_str(), label, *v))
    }

    // -- histograms --------------------------------------------------------

    /// The histogram `(name, label)`, created empty on first access.
    pub fn histogram(&mut self, name: &str, label: Label) -> &mut Histogram {
        self.histograms.entry((name.to_owned(), label)).or_default()
    }

    /// Records one sample into a histogram.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN (see [`Histogram::record`]).
    pub fn observe(&mut self, name: &str, label: Label, value: f64) {
        self.histogram(name, label).record(value);
    }

    /// Read-only view of a histogram, if it exists.
    pub fn histogram_ref(&self, name: &str, label: &Label) -> Option<&Histogram> {
        self.histograms.get(&(name.to_owned(), label.clone()))
    }

    /// Iterates all histograms as `(name, label, histogram)`, sorted by key.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Label, &Histogram)> {
        self.histograms
            .iter()
            .map(|((name, label), h)| (name.as_str(), label, h))
    }

    // -- time series -------------------------------------------------------

    /// The time series `(name, label)`, created empty on first access.
    pub fn series(&mut self, name: &str, label: Label) -> &mut TimeSeries {
        self.series.entry((name.to_owned(), label)).or_default()
    }

    /// Appends a timestamped point to a series.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the series' last point (see
    /// [`TimeSeries::record`]).
    pub fn sample(&mut self, name: &str, label: Label, time: SimTime, value: f64) {
        self.series(name, label).record(time, value);
    }

    /// Read-only view of a series, if it exists.
    pub fn series_ref(&self, name: &str, label: &Label) -> Option<&TimeSeries> {
        self.series.get(&(name.to_owned(), label.clone()))
    }

    /// Iterates all series as `(name, label, series)`, sorted by key.
    pub fn series_iter(&self) -> impl Iterator<Item = (&str, &Label, &TimeSeries)> {
        self.series
            .iter()
            .map(|((name, label), s)| (name.as_str(), label, s))
    }

    // -- tracing -----------------------------------------------------------

    /// Appends a trace event.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the newest trace entry (see
    /// [`TraceBuffer::push`]).
    pub fn trace(
        &mut self,
        time: SimTime,
        severity: Severity,
        label: Label,
        message: impl Into<String>,
    ) {
        self.trace.push(
            time,
            TraceEvent {
                severity,
                label,
                message: message.into(),
            },
        );
    }

    /// The bounded trace buffer.
    pub fn trace_buffer(&self) -> &TraceBuffer<TraceEvent> {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_core::id::NodeId;

    #[test]
    fn counters_are_keyed_by_name_and_label() {
        let mut rec = Recorder::new();
        rec.add("m.tx", Label::node(NodeId::new(0)), 2);
        rec.add("m.tx", Label::node(NodeId::new(1)), 5);
        rec.inc("m.tx", Label::node(NodeId::new(0)));
        assert_eq!(rec.counter_value("m.tx", &Label::node(NodeId::new(0))), 3);
        assert_eq!(rec.counter_value("m.tx", &Label::node(NodeId::new(1))), 5);
        assert_eq!(rec.counter_value("m.tx", &Label::Global), 0);
        assert_eq!(rec.counters().count(), 2);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut rec = Recorder::new();
        rec.set_gauge("drift", Label::Global, 0.5);
        rec.set_gauge("drift", Label::Global, 0.25);
        assert_eq!(rec.gauge("drift", &Label::Global), Some(0.25));
        assert_eq!(rec.gauge("other", &Label::Global), None);
    }

    #[test]
    fn histograms_and_series_accumulate() {
        let mut rec = Recorder::new();
        rec.observe("h", Label::Global, 1.0);
        rec.observe("h", Label::Global, 3.0);
        rec.sample("v", Label::Global, SimTime::from_secs(1), 2.0);
        rec.sample("v", Label::Global, SimTime::from_secs(2), 4.0);
        assert_eq!(rec.histogram_ref("h", &Label::Global).unwrap().len(), 2);
        assert_eq!(rec.series_ref("v", &Label::Global).unwrap().len(), 2);
    }
}
