//! Trace analysis: per-layer latency attribution and critical-path
//! extraction over a [`Trace`] span tree.
//!
//! # The attribution invariant
//!
//! The serving layer constructs serve-clock spans that *tile* their
//! parents: the root covers `[arrival, completion]`, its queue and batch
//! children partition it, and the batch's overhead/infer children sit
//! inside the batch span. [`attribution`] therefore computes **self
//! time** — a span's duration minus its serve-clock children's durations
//! — and the per-layer totals sum exactly to the end-to-end latency.
//! [`Attribution::total`] reconstructs that sum and the invariant test
//! in `zeiot-serve` asserts it equals the root duration for every traced
//! request.
//!
//! Fabric-clock spans ([`ClockDomain::Fabric`]) are transport
//! annotations living on the fault fabric's own clock (which advances
//! only on retransmission backoff); they are **excluded** from the
//! serve-time tiling and reported separately as hop message counts and
//! fabric-clock retransmit time.

use crate::trace::{ClockDomain, Span, SpanEvent, SpanLayer, Trace};
use zeiot_core::time::SimDuration;

/// Per-layer latency attribution of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Serve-clock self time of the root request span (zero when the
    /// request's children tile it fully; the whole latency for sheds).
    pub request: SimDuration,
    /// Serve-clock time spent queued awaiting dispatch.
    pub queue: SimDuration,
    /// Serve-clock time in the micro-batch: dispatch overhead plus
    /// waiting on other members' service slots.
    pub batch: SimDuration,
    /// Serve-clock time of the request's own inference slot.
    pub infer: SimDuration,
    /// Cross-node messages transported by fabric-clock hop spans
    /// (a count, not a duration — see the module docs).
    pub hop_messages: u64,
    /// Fabric-clock time consumed by retransmission backoff within this
    /// trace's hop spans.
    pub retransmit: SimDuration,
}

impl Attribution {
    /// Sum of the serve-clock components; equals the root span's
    /// duration by the tiling invariant.
    pub fn total(&self) -> SimDuration {
        self.request + self.queue + self.batch + self.infer
    }
}

/// Serve-clock self time of `span`: duration minus serve-clock
/// children's durations (saturating at zero, so a malformed tree can't
/// underflow).
fn self_time(trace: &Trace, span: &Span) -> SimDuration {
    let child_total: u64 = trace
        .children(span.id)
        .filter(|c| c.clock == ClockDomain::Serve)
        .map(|c| c.duration().as_nanos())
        .sum();
    SimDuration::from_nanos(span.duration().as_nanos().saturating_sub(child_total))
}

/// Computes the per-layer attribution of one trace (see module docs).
pub fn attribution(trace: &Trace) -> Attribution {
    let mut out = Attribution::default();
    for span in &trace.spans {
        match span.clock {
            ClockDomain::Serve => {
                let dt = self_time(trace, span);
                match span.layer {
                    SpanLayer::Request => out.request += dt,
                    SpanLayer::Queue => out.queue += dt,
                    SpanLayer::Batch => out.batch += dt,
                    SpanLayer::Infer => out.infer += dt,
                    // MAC roots use the sim clock; they attribute like
                    // requests (self time only).
                    SpanLayer::Mac => out.request += dt,
                    SpanLayer::Hop => {}
                }
            }
            ClockDomain::Fabric => {
                out.retransmit += span.duration();
                for ev in &span.events {
                    if let SpanEvent::Messages { sent } = ev.event {
                        out.hop_messages += sent;
                    }
                }
            }
        }
    }
    out
}

/// One step of a critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalStep {
    /// The span on the path.
    pub span: crate::trace::SpanId,
    /// Its layer.
    pub layer: SpanLayer,
    /// Its name.
    pub name: String,
    /// Serve-clock self time this step contributes.
    pub self_time: SimDuration,
}

/// Extracts the critical path: the root-to-leaf chain of serve-clock
/// spans that bounds the request's completion.
///
/// At each node, the child whose `(end, start, id)` is greatest is the
/// one the completion waited on — a total order, so the walk is
/// deterministic even among ties. Fabric-clock children never appear on
/// the path (they are a different clock).
pub fn critical_path(trace: &Trace) -> Vec<CriticalStep> {
    let mut path = Vec::new();
    let Some(root) = trace.root() else {
        return path;
    };
    let mut cursor = root.id;
    while let Some(span) = trace.span(cursor) {
        path.push(CriticalStep {
            span: span.id,
            layer: span.layer,
            name: span.name.clone(),
            self_time: self_time(trace, span),
        });
        let next = trace
            .children(cursor)
            .filter(|c| c.clock == ClockDomain::Serve)
            .max_by_key(|c| (c.end, c.start, c.id));
        match next {
            Some(c) => cursor = c.id,
            None => break,
        }
    }
    path
}

/// Flame-style per-layer rollup over many traces: serve-clock self time
/// and span counts per [`SpanLayer`], plus fabric-side totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerRollup {
    /// Total serve-clock self time per layer, indexed as
    /// [`SpanLayer::all`].
    pub self_time: [SimDuration; 6],
    /// Span count per layer, indexed as [`SpanLayer::all`].
    pub spans: [u64; 6],
    /// Total hop messages across all traces.
    pub hop_messages: u64,
    /// Total fabric-clock retransmit time across all traces.
    pub retransmit: SimDuration,
    /// Number of traces rolled up.
    pub traces: u64,
}

impl LayerRollup {
    /// Accumulates one trace into the rollup.
    pub fn add(&mut self, trace: &Trace) {
        self.traces += 1;
        for span in &trace.spans {
            let idx = SpanLayer::all()
                .iter()
                .position(|l| *l == span.layer)
                .unwrap_or(0);
            self.spans[idx] += 1;
            if span.clock == ClockDomain::Serve {
                self.self_time[idx] += self_time(trace, span);
            }
        }
        let attr = attribution(trace);
        self.hop_messages += attr.hop_messages;
        self.retransmit += attr.retransmit;
    }

    /// Rolls up a batch of traces.
    pub fn of(traces: &[Trace]) -> Self {
        let mut out = Self::default();
        for t in traces {
            out.add(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanLayer, TraceSampler, Tracer};
    use zeiot_core::time::SimTime;

    /// Builds the canonical serve span tiling: root [0,100ms],
    /// queue [0,40ms], batch [40,100ms] with overhead [40,50ms] and
    /// infer [70,100ms] children, plus a fabric hop span.
    fn tiled_trace() -> Trace {
        let ms = SimTime::from_millis;
        let mut tracer = Tracer::new(TraceSampler::always());
        let root = tracer
            .begin(0, 0, "serve.request", SpanLayer::Request, ms(0))
            .unwrap();
        tracer
            .push_span(
                0,
                0,
                root,
                SpanLayer::Queue,
                "serve.queue",
                ClockDomain::Serve,
                ms(0),
                ms(40),
            )
            .unwrap();
        let batch = tracer
            .push_span(
                0,
                0,
                root,
                SpanLayer::Batch,
                "serve.batch",
                ClockDomain::Serve,
                ms(40),
                ms(100),
            )
            .unwrap();
        tracer
            .push_span(
                0,
                0,
                batch,
                SpanLayer::Batch,
                "serve.batch_overhead",
                ClockDomain::Serve,
                ms(40),
                ms(50),
            )
            .unwrap();
        let infer = tracer
            .push_span(
                0,
                0,
                batch,
                SpanLayer::Infer,
                "serve.infer",
                ClockDomain::Serve,
                ms(70),
                ms(100),
            )
            .unwrap();
        let mut scope = tracer.scope(0, 0, infer).unwrap();
        let hop = scope.push_span(
            SpanLayer::Hop,
            "hop.conv",
            ClockDomain::Fabric,
            ms(0),
            ms(3),
        );
        scope.event(hop, ms(3), SpanEvent::Messages { sent: 12 });
        scope.event(hop, ms(3), SpanEvent::Retransmit { retries: 2 });
        tracer.finish(0, 0, ms(100));
        tracer.take_finished().remove(0)
    }

    #[test]
    fn attribution_sums_to_end_to_end_latency() {
        let trace = tiled_trace();
        let attr = attribution(&trace);
        assert_eq!(attr.queue, SimDuration::from_millis(40));
        // Batch self time: 60ms span − 10ms overhead child − 30ms infer
        // child = 20ms waiting on other members, plus the 10ms overhead
        // child (also layer Batch) = 30ms.
        assert_eq!(attr.batch, SimDuration::from_millis(30));
        assert_eq!(attr.infer, SimDuration::from_millis(30));
        assert_eq!(attr.request, SimDuration::ZERO);
        assert_eq!(attr.total(), trace.root().unwrap().duration());
        assert_eq!(attr.hop_messages, 12);
        assert_eq!(attr.retransmit, SimDuration::from_millis(3));
    }

    #[test]
    fn critical_path_follows_latest_serve_child() {
        let trace = tiled_trace();
        let path = critical_path(&trace);
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        // Fabric hop is excluded; the path ends at the infer slot that
        // bounded completion.
        assert_eq!(names, vec!["serve.request", "serve.batch", "serve.infer"]);
        let total: u64 = path.iter().map(|s| s.self_time.as_nanos()).sum();
        // Path self times: request 0 (fully tiled) + batch 20ms (60 −
        // 10 overhead − 30 infer) + infer 30ms. The queue branch and
        // the off-path overhead child are excluded.
        assert_eq!(total, SimDuration::from_millis(50).as_nanos());
    }

    #[test]
    fn rollup_accumulates_per_layer() {
        let trace = tiled_trace();
        let rollup = LayerRollup::of(&[trace.clone(), trace]);
        assert_eq!(rollup.traces, 2);
        let layers = SpanLayer::all();
        let infer_idx = layers.iter().position(|l| *l == SpanLayer::Infer).unwrap();
        assert_eq!(rollup.spans[infer_idx], 2);
        assert_eq!(rollup.self_time[infer_idx], SimDuration::from_millis(60));
        assert_eq!(rollup.hop_messages, 24);
    }

    #[test]
    fn empty_trace_yields_empty_path_and_zero_attribution() {
        let trace = Trace {
            id: crate::trace::TraceId::derive(0, 0),
            tenant: 0,
            seq: 0,
            spans: Vec::new(),
        };
        assert!(critical_path(&trace).is_empty());
        assert_eq!(attribution(&trace), Attribution::default());
    }

    #[test]
    fn shed_request_attributes_everything_to_the_root() {
        let mut tracer = Tracer::new(TraceSampler::always());
        let root = tracer
            .begin(1, 2, "serve.request", SpanLayer::Request, SimTime::ZERO)
            .unwrap();
        tracer.event(
            1,
            2,
            root,
            SimTime::ZERO,
            SpanEvent::Shed {
                reason: "shard_queue_full".into(),
            },
        );
        tracer.finish(1, 2, SimTime::ZERO);
        let trace = tracer.take_finished().remove(0);
        let attr = attribution(&trace);
        assert_eq!(attr.total(), SimDuration::ZERO);
        assert_eq!(critical_path(&trace).len(), 1);
    }
}
