//! Workspace-wide observability: a labeled metric [`Recorder`] with a
//! severity-tagged trace, causal request traces ([`Tracer`]), and exporters
//! (JSONL dump, serializable [`Snapshot`], console summary table).
//!
//! A subsystem is observed through its own call: it takes an optional
//! `&mut Recorder` and, where it has causal structure, an optional
//! `&mut Tracer`, and returns the same result with or without them.
//!
//! # Conventions
//!
//! Metric names are `subsystem.metric` (e.g. `microdeep.tx_messages`,
//! `mac.collisions`, `energy.capacitor_v`); the [`Label`] half of the key
//! identifies *which* entity — a [`NodeId`](zeiot_core::id::NodeId), a
//! [`DeviceId`](zeiot_core::id::DeviceId), a named part, or the global
//! scope.

pub mod analysis;
pub mod jsonl;
pub mod label;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod snapshot;
pub mod trace;

pub use analysis::{attribution, critical_path, Attribution, CriticalStep, LayerRollup};
pub use jsonl::{from_jsonl, to_jsonl, write_jsonl, JsonlError, JsonlRecord};
pub use label::Label;
pub use recorder::{Recorder, Severity, TraceEvent};
pub use registry::{
    is_registered_metric, is_registered_span, validate_snapshot, validate_traces, UnknownName,
};
pub use slo::{evaluate_all, SloBreach, SloObjective, SloSpec};
pub use snapshot::{CounterEntry, GaugeEntry, HistogramEntry, SeriesEntry, Snapshot, TraceEntry};
pub use trace::{
    traces_from_jsonl, traces_to_jsonl, write_traces_jsonl, ClockDomain, Span, SpanEvent, SpanId,
    SpanLayer, SpanScope, Trace, TraceId, TraceSampler, Tracer,
};
