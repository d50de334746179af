//! JSON Lines export of a [`Snapshot`].
//!
//! Each line is one self-describing record (externally tagged by kind), so
//! dumps can be streamed, grepped, and re-loaded without reading the whole
//! file. Time-series are expanded to one record per point.
//!
//! Record schema (one JSON object per line):
//!
//! ```text
//! {"Counter":{"name":"mac.grants","label":"Global","value":12}}
//! {"Gauge":{"name":"microdeep.replica_drift","label":{"Node":{"id":3}},"value":0.01}}
//! {"Histogram":{"name":"...","label":...,"summary":{...}}}
//! {"SeriesPoint":{"name":"energy.capacitor_v","label":...,"time":1000000,"value":2.4}}
//! {"Trace":{"time":1000000,"severity":"Warn","label":...,"message":"brownout"}}
//! ```

use crate::label::Label;
use crate::recorder::Severity;
use crate::registry::UnknownName;
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::path::Path;
use zeiot_core::time::SimTime;
use zeiot_sim::metrics::HistogramSummary;

/// Typed parse failure for JSONL dumps: names the 1-based line that was
/// truncated or garbage, so analysis tooling can report (not panic on)
/// corrupted dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    line: usize,
    message: String,
}

impl JsonlError {
    /// Wraps a serde failure with its 1-based line number.
    pub fn at_line(line: usize, cause: &dyn std::fmt::Display) -> Self {
        Self {
            line,
            message: cause.to_string(),
        }
    }

    /// The 1-based line number of the malformed line.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The underlying parser message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jsonl line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonlError {}

/// One line of a JSONL metrics dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JsonlRecord {
    /// Final value of one counter instance.
    Counter {
        /// Metric family name.
        name: String,
        /// Entity the count belongs to.
        label: Label,
        /// Final count.
        value: u64,
    },
    /// Last written value of one gauge instance.
    Gauge {
        /// Metric family name.
        name: String,
        /// Entity the gauge belongs to.
        label: Label,
        /// Last written value.
        value: f64,
    },
    /// Summary statistics of one histogram instance.
    Histogram {
        /// Metric family name.
        name: String,
        /// Entity the distribution belongs to.
        label: Label,
        /// Summary statistics.
        summary: HistogramSummary,
    },
    /// One point of one time-series instance.
    SeriesPoint {
        /// Metric family name.
        name: String,
        /// Entity the series belongs to.
        label: Label,
        /// Sample time.
        time: SimTime,
        /// Sample value.
        value: f64,
    },
    /// One retained trace event.
    Trace {
        /// Simulated time of the event.
        time: SimTime,
        /// Event severity.
        severity: Severity,
        /// Entity the event concerns.
        label: Label,
        /// Human-readable message.
        message: String,
    },
}

/// Flattens a snapshot into its JSONL records, in snapshot order.
pub fn records(snapshot: &Snapshot) -> Vec<JsonlRecord> {
    let mut out = Vec::new();
    for e in &snapshot.counters {
        out.push(JsonlRecord::Counter {
            name: e.name.clone(),
            label: e.label.clone(),
            value: e.value,
        });
    }
    for e in &snapshot.gauges {
        out.push(JsonlRecord::Gauge {
            name: e.name.clone(),
            label: e.label.clone(),
            value: e.value,
        });
    }
    for e in &snapshot.histograms {
        out.push(JsonlRecord::Histogram {
            name: e.name.clone(),
            label: e.label.clone(),
            summary: e.summary,
        });
    }
    for e in &snapshot.series {
        for &(time, value) in &e.points {
            out.push(JsonlRecord::SeriesPoint {
                name: e.name.clone(),
                label: e.label.clone(),
                time,
                value,
            });
        }
    }
    for t in &snapshot.trace {
        out.push(JsonlRecord::Trace {
            time: t.time,
            severity: t.event.severity,
            label: t.event.label.clone(),
            message: t.event.message.clone(),
        });
    }
    out
}

/// Serializes a snapshot as JSON Lines (one record per line, trailing
/// newline).
pub fn to_jsonl(snapshot: &Snapshot) -> String {
    encode_lines(&records(snapshot))
}

/// Parses a JSONL dump back into records. Blank lines are skipped.
///
/// # Errors
///
/// Returns a [`JsonlError`] naming the first truncated or garbage line.
pub fn from_jsonl(text: &str) -> Result<Vec<JsonlRecord>, JsonlError> {
    decode_lines(text)
}

/// Writes a snapshot's JSONL dump to `path`, validating every metric
/// name against [`crate::registry`] first — a dump with a typo'd name
/// is a hole in every downstream report, so the exporter refuses to
/// produce one.
///
/// # Errors
///
/// Fails with `InvalidData` when a metric name is not registered, and
/// propagates filesystem errors.
pub fn write_jsonl(path: &Path, snapshot: &Snapshot) -> std::io::Result<()> {
    write_lines(
        path,
        crate::registry::validate_snapshot(snapshot),
        &records(snapshot),
    )
}

// The JSON-lines codec shared by the metric dump above and the trace
// dump in `crate::trace`.

/// Encodes one JSON object per item, each on its own line.
pub(crate) fn encode_lines<T: Serialize>(items: &[T]) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&serde_json::to_string(item).expect("JSONL items are serializable"));
        out.push('\n');
    }
    out
}

/// Decodes one item per non-blank line.
pub(crate) fn decode_lines<T: Deserialize>(text: &str) -> Result<Vec<T>, JsonlError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| JsonlError::at_line(i + 1, &e)))
        .collect()
}

/// Writes `items` to `path` as JSON Lines once the registry check of
/// their names, `names`, has passed.
pub(crate) fn write_lines<T: Serialize>(
    path: &Path,
    names: Result<(), UnknownName>,
    items: &[T],
) -> std::io::Result<()> {
    names.map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, encode_lines(items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use zeiot_core::id::NodeId;

    fn sample_snapshot() -> Snapshot {
        let mut rec = Recorder::new();
        rec.add("mac.grants", Label::Global, 12);
        rec.add("net.tx", Label::node(NodeId::new(7)), 3);
        rec.set_gauge("drift", Label::Global, 0.5);
        rec.observe("cost", Label::Global, 2.0);
        rec.sample("volts", Label::Global, SimTime::from_secs(1), 2.4);
        rec.sample("volts", Label::Global, SimTime::from_secs(2), 2.2);
        rec.trace(
            SimTime::from_secs(2),
            Severity::Error,
            Label::Global,
            "died",
        );
        rec.snapshot()
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample_snapshot();
        let text = to_jsonl(&snap);
        assert_eq!(text.lines().count(), 7);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, records(&snap));
    }

    #[test]
    fn one_record_per_series_point() {
        let text = to_jsonl(&sample_snapshot());
        let points = text.lines().filter(|l| l.contains("SeriesPoint")).count();
        assert_eq!(points, 2);
    }

    #[test]
    fn export_ordering_is_stable_across_runs() {
        // Snapshots flatten in insertion order — no hash iteration
        // anywhere on the export path — so two identically-built
        // recorders dump byte-identical JSONL (determinism contract
        // rule d1; regression guard for the HashMap→BTreeMap sweep).
        let a = to_jsonl(&sample_snapshot());
        let b = to_jsonl(&sample_snapshot());
        assert_eq!(a, b);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", to_jsonl(&sample_snapshot()));
        assert_eq!(from_jsonl(&text).unwrap().len(), 7);
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(from_jsonl("{\"Counter\":").is_err());
    }

    #[test]
    fn malformed_line_error_carries_the_line_number() {
        let good = to_jsonl(&sample_snapshot());
        let text = format!("{good}garbage not json\n");
        let err = from_jsonl(&text).unwrap_err();
        assert_eq!(err.line(), good.lines().count() + 1);
        assert!(err.to_string().starts_with("jsonl line"));
        assert!(!err.message().is_empty());
    }
}
