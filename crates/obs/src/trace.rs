//! Deterministic causal tracing: per-request span trees.
//!
//! A [`Trace`] is the end-to-end story of one request — admission,
//! queueing, batching, inference, and every cross-node transport hop —
//! as a parent/child tree of [`Span`]s. Everything here obeys the
//! workspace determinism contract (DESIGN.md §7b):
//!
//! * **Identity is derived, not generated.** A [`TraceId`] is a pure
//!   [`splitmix64`] mix of the request's `(tenant, seq)` coordinates, so
//!   the same request gets the same id on every run and thread count.
//! * **Sampling is seeded, not random.** A [`TraceSampler`] keeps a
//!   trace iff `splitmix64(seed ^ id)` clears a rate-derived threshold —
//!   a pure per-request function with no shared RNG stream to race on.
//! * **Two clock domains, kept apart.** Serving spans run on the
//!   server's virtual clock ([`ClockDomain::Serve`]); transport hop
//!   spans run on the fault fabric's own clock
//!   ([`ClockDomain::Fabric`]), which only advances on retransmission
//!   backoff. Analysis (see [`crate::analysis`]) never mixes the two:
//!   serve-clock children tile their parents exactly, so per-layer
//!   attribution sums to the end-to-end latency, while fabric-clock
//!   spans ride along as transport annotations.
//!
//! Traces export as JSON Lines (one trace per line) via
//! [`traces_to_jsonl`] / [`traces_from_jsonl`], byte-identical across
//! thread counts when produced in `(tenant, seq)` order.

use crate::jsonl::{decode_lines, encode_lines, write_lines, JsonlError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use zeiot_core::rng::splitmix64;
use zeiot_core::time::{SimDuration, SimTime};

/// Deterministic identity of one trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the id for request `(tenant, seq)`:
    /// `splitmix64(splitmix64(tenant) ^ seq)`.
    ///
    /// The outer finalizer is a bijection, so two requests collide iff
    /// `splitmix64(t1) ^ s1 == splitmix64(t2) ^ s2` — impossible within
    /// one tenant and vanishingly unlikely across tenants. The id is
    /// used for sampling and export only; in-flight bookkeeping keys on
    /// `(tenant, seq)` directly.
    pub fn derive(tenant: u64, seq: u64) -> Self {
        Self(splitmix64(splitmix64(tenant) ^ seq))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Index of a span within its trace's `spans` vector.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SpanId(pub u32);

/// Which clock a span's timestamps belong to (never compare across
/// domains — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ClockDomain {
    /// The serving layer's virtual clock (arrival → completion).
    Serve,
    /// The fault fabric's clock (advances on retransmission backoff and
    /// per-pass periods).
    Fabric,
}

/// The layer a span attributes its self-time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanLayer {
    /// The end-to-end request root.
    Request,
    /// Time queued in a shard's EDF queue awaiting dispatch.
    Queue,
    /// Micro-batch residence: dispatch overhead plus waiting on other
    /// batch members' service slots.
    Batch,
    /// The request's own inference service slot.
    Infer,
    /// A cross-node transport hop group (fabric clock).
    Hop,
    /// A backscatter MAC interaction (grants, carriers).
    Mac,
}

impl SpanLayer {
    /// Stable metric suffix: `trace.attr.<suffix>` is the attribution
    /// histogram this layer's self-time lands in.
    pub fn metric_suffix(&self) -> &'static str {
        match self {
            SpanLayer::Request => "request",
            SpanLayer::Queue => "queue",
            SpanLayer::Batch => "batch",
            SpanLayer::Infer => "infer",
            SpanLayer::Hop => "hop",
            SpanLayer::Mac => "mac",
        }
    }

    /// Every layer, in declaration order (for rollup tables).
    pub fn all() -> [SpanLayer; 6] {
        [
            SpanLayer::Request,
            SpanLayer::Queue,
            SpanLayer::Batch,
            SpanLayer::Infer,
            SpanLayer::Hop,
            SpanLayer::Mac,
        ]
    }
}

/// A structured annotation on a span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanEvent {
    /// Admission control shed the request.
    Shed {
        /// The typed rejection reason's stable label.
        reason: String,
    },
    /// The completion overran the request's deadline.
    DeadlineMiss,
    /// The fabric aborted the inference mid-pass.
    Aborted,
    /// The answer came from the stale-result cache.
    StaleAnswer,
    /// Cross-node messages this hop span transported.
    Messages {
        /// Transmission attempts (including retransmissions).
        sent: u64,
    },
    /// Attempts lost to drops or outages within this span.
    Loss {
        /// Dropped attempts.
        drops: u64,
    },
    /// Retransmission attempts within this span.
    Retransmit {
        /// Retry attempts.
        retries: u64,
    },
    /// Lost values substituted by a degrade policy (or corrupted in
    /// flight) within this span.
    Degraded {
        /// Substituted or corrupted values.
        substituted: u64,
    },
    /// A backscatter MAC grant (dummy carrier) was issued.
    Grant,
    /// Backscatter tags collided on one carrier frame.
    Collision {
        /// How many tags rode the frame.
        tags: u64,
    },
}

/// A [`SpanEvent`] with its timestamp (in the owning span's clock).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: SpanEvent,
}

/// One node of a trace's span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// This span's id (its index in the trace's span list).
    pub id: SpanId,
    /// Parent span, `None` only for the root.
    pub parent: Option<SpanId>,
    /// Attribution layer.
    pub layer: SpanLayer,
    /// Human-readable name (`serve.queue`, `hop.conv`, …).
    pub name: String,
    /// The clock `start`/`end` belong to.
    pub clock: ClockDomain,
    /// Span start.
    pub start: SimTime,
    /// Span end (equals `start` while the span is open).
    pub end: SimTime,
    /// Structured annotations, in record order.
    pub events: Vec<TimedEvent>,
}

impl Span {
    /// The span's duration (zero while open or for instant spans).
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// One request's complete span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Derived identity (see [`TraceId::derive`]).
    pub id: TraceId,
    /// The issuing tenant's index.
    pub tenant: u64,
    /// The request's per-tenant sequence number.
    pub seq: u64,
    /// Spans in creation order; the root is `spans[0]`.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span, if the trace has any spans.
    pub fn root(&self) -> Option<&Span> {
        self.spans.first()
    }

    /// Direct children of `parent`, in creation order.
    pub fn children(&self, parent: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// Looks up a span by id.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id.0 as usize)
    }
}

/// Deterministic keep/drop decision per trace.
///
/// A trace is kept iff `splitmix64(seed ^ id)` falls below a threshold
/// equal to `rate` of the `u64` range — a pure function of `(seed, id)`,
/// so the sampled set is identical across runs, threads, and the order
/// requests happen to be offered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSampler {
    seed: u64,
    threshold: u64,
}

impl TraceSampler {
    /// Keeps every trace.
    pub fn always() -> Self {
        Self {
            seed: 0,
            threshold: u64::MAX,
        }
    }

    /// Keeps no trace (the tracer becomes a no-op).
    pub fn never() -> Self {
        Self {
            seed: 0,
            threshold: 0,
        }
    }

    /// Keeps roughly `rate` of traces, decided per-trace by seeded hash.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn rate(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "sample rate out of [0,1]");
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            // Deterministic: f64 → u64 saturating cast, same on every
            // platform the workspace targets.
            (rate * u64::MAX as f64) as u64
        };
        Self { seed, threshold }
    }

    /// Whether a trace with this id is kept.
    pub fn keeps(&self, id: TraceId) -> bool {
        self.threshold == u64::MAX || splitmix64(self.seed ^ id.0) < self.threshold
    }
}

/// A borrowed handle for appending spans under a fixed parent — how
/// subsystems that only see "the current request" (the lossy MicroDeep
/// runtime, the MAC) add their hops without knowing the tracer's keys.
#[derive(Debug)]
pub struct SpanScope<'a> {
    trace: &'a mut Trace,
    parent: SpanId,
}

impl SpanScope<'_> {
    /// The parent every [`SpanScope::push_span`] attaches to.
    pub fn parent(&self) -> SpanId {
        self.parent
    }

    /// Appends a completed span under the scope's parent.
    pub fn push_span(
        &mut self,
        layer: SpanLayer,
        name: impl Into<String>,
        clock: ClockDomain,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        let id = SpanId(self.trace.spans.len() as u32);
        self.trace.spans.push(Span {
            id,
            parent: Some(self.parent),
            layer,
            name: name.into(),
            clock,
            start,
            end,
            events: Vec::new(),
        });
        id
    }

    /// Appends an event to a span of this trace.
    pub fn event(&mut self, span: SpanId, at: SimTime, event: SpanEvent) {
        if let Some(s) = self.trace.spans.get_mut(span.0 as usize) {
            s.events.push(TimedEvent { at, event });
        }
    }
}

/// Collects traces for in-flight requests keyed by `(tenant, seq)` and
/// retires them into a finished list.
///
/// All storage is ordered ([`BTreeMap`] / creation-order vectors), and
/// [`Tracer::take_finished`] sorts by `(tenant, seq)`, so a tracer fed
/// the same requests produces byte-identical exports regardless of
/// completion order.
#[derive(Debug)]
pub struct Tracer {
    sampler: TraceSampler,
    active: BTreeMap<(u64, u64), Trace>,
    finished: Vec<Trace>,
}

impl Tracer {
    /// An empty tracer with the given sampling policy.
    pub fn new(sampler: TraceSampler) -> Self {
        Self {
            sampler,
            active: BTreeMap::new(),
            finished: Vec::new(),
        }
    }

    /// The sampling policy.
    pub fn sampler(&self) -> TraceSampler {
        self.sampler
    }

    /// Opens the root span for request `(tenant, seq)` at `start`.
    /// Returns the root's id, or `None` when sampling drops the trace
    /// (every later call for this request is then a no-op).
    pub fn begin(
        &mut self,
        tenant: u64,
        seq: u64,
        name: impl Into<String>,
        layer: SpanLayer,
        start: SimTime,
    ) -> Option<SpanId> {
        let id = TraceId::derive(tenant, seq);
        if !self.sampler.keeps(id) {
            return None;
        }
        let root = SpanId(0);
        self.active.insert(
            (tenant, seq),
            Trace {
                id,
                tenant,
                seq,
                spans: vec![Span {
                    id: root,
                    parent: None,
                    layer,
                    name: name.into(),
                    clock: ClockDomain::Serve,
                    start,
                    end: start,
                    events: Vec::new(),
                }],
            },
        );
        Some(root)
    }

    /// Whether request `(tenant, seq)` has an in-flight trace.
    pub fn is_active(&self, tenant: u64, seq: u64) -> bool {
        self.active.contains_key(&(tenant, seq))
    }

    /// The root span id of an in-flight trace.
    pub fn root(&self, tenant: u64, seq: u64) -> Option<SpanId> {
        self.active.get(&(tenant, seq)).map(|_| SpanId(0))
    }

    /// Appends a completed span to an in-flight trace. No-op (returning
    /// `None`) when the request is not traced.
    #[allow(clippy::too_many_arguments)]
    pub fn push_span(
        &mut self,
        tenant: u64,
        seq: u64,
        parent: SpanId,
        layer: SpanLayer,
        name: impl Into<String>,
        clock: ClockDomain,
        start: SimTime,
        end: SimTime,
    ) -> Option<SpanId> {
        let trace = self.active.get_mut(&(tenant, seq))?;
        let id = SpanId(trace.spans.len() as u32);
        trace.spans.push(Span {
            id,
            parent: Some(parent),
            layer,
            name: name.into(),
            clock,
            start,
            end,
            events: Vec::new(),
        });
        Some(id)
    }

    /// Appends an event to a span of an in-flight trace (no-op when the
    /// request is not traced).
    pub fn event(&mut self, tenant: u64, seq: u64, span: SpanId, at: SimTime, event: SpanEvent) {
        if let Some(trace) = self.active.get_mut(&(tenant, seq)) {
            if let Some(s) = trace.spans.get_mut(span.0 as usize) {
                s.events.push(TimedEvent { at, event });
            }
        }
    }

    /// A scope appending children under `parent` of the in-flight trace
    /// for `(tenant, seq)`, or `None` when the request is not traced.
    pub fn scope(&mut self, tenant: u64, seq: u64, parent: SpanId) -> Option<SpanScope<'_>> {
        self.active
            .get_mut(&(tenant, seq))
            .map(|trace| SpanScope { trace, parent })
    }

    /// Closes the root span at `end` and retires the trace to the
    /// finished list (no-op when the request is not traced).
    pub fn finish(&mut self, tenant: u64, seq: u64, end: SimTime) {
        if let Some(mut trace) = self.active.remove(&(tenant, seq)) {
            if let Some(root) = trace.spans.first_mut() {
                root.end = end;
            }
            self.finished.push(trace);
        }
    }

    /// Finished traces, in retirement order.
    pub fn finished(&self) -> &[Trace] {
        &self.finished
    }

    /// Drains the finished traces, sorted by `(tenant, seq)` — the
    /// canonical export order, invariant to completion order.
    pub fn take_finished(&mut self) -> Vec<Trace> {
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by_key(|t| (t.tenant, t.seq));
        out
    }
}

/// Serializes traces as JSON Lines (one trace per line, trailing
/// newline).
pub fn traces_to_jsonl(traces: &[Trace]) -> String {
    encode_lines(traces)
}

/// Parses a trace JSONL dump. Blank lines are skipped.
///
/// # Errors
///
/// Returns a [`JsonlError`] naming the first malformed line.
pub fn traces_from_jsonl(text: &str) -> Result<Vec<Trace>, JsonlError> {
    decode_lines(text)
}

/// Writes traces as JSONL to `path`, validating every span name
/// against [`crate::registry`] first.
///
/// # Errors
///
/// Fails with `InvalidData` when a span name is not registered, and
/// propagates filesystem errors.
pub fn write_traces_jsonl(path: &Path, traces: &[Trace]) -> std::io::Result<()> {
    write_lines(path, crate::registry::validate_traces(traces), traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_pure_and_distinct_within_a_tenant() {
        assert_eq!(TraceId::derive(3, 17), TraceId::derive(3, 17));
        let mut seen = std::collections::BTreeSet::new();
        for tenant in 0..4u64 {
            for seq in 0..256u64 {
                assert!(seen.insert(TraceId::derive(tenant, seq)), "collision");
            }
        }
    }

    #[test]
    fn sampler_is_deterministic_and_rate_shaped() {
        let sampler = TraceSampler::rate(42, 0.25);
        let kept: Vec<bool> = (0..4096u64)
            .map(|s| sampler.keeps(TraceId::derive(0, s)))
            .collect();
        let again: Vec<bool> = (0..4096u64)
            .map(|s| sampler.keeps(TraceId::derive(0, s)))
            .collect();
        assert_eq!(kept, again);
        let frac = kept.iter().filter(|&&k| k).count() as f64 / kept.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "kept fraction {frac}");
        assert!((0..64u64).all(|s| TraceSampler::always().keeps(TraceId::derive(1, s))));
        assert!(!(0..64u64).any(|s| TraceSampler::never().keeps(TraceId::derive(1, s))));
    }

    fn build_one(tracer: &mut Tracer, tenant: u64, seq: u64) {
        let root = tracer
            .begin(
                tenant,
                seq,
                "serve.request",
                SpanLayer::Request,
                SimTime::from_millis(10),
            )
            .expect("always-sampled");
        let q = tracer
            .push_span(
                tenant,
                seq,
                root,
                SpanLayer::Queue,
                "serve.queue",
                ClockDomain::Serve,
                SimTime::from_millis(10),
                SimTime::from_millis(30),
            )
            .unwrap();
        tracer.event(
            tenant,
            seq,
            q,
            SimTime::from_millis(30),
            SpanEvent::DeadlineMiss,
        );
        let mut scope = tracer.scope(tenant, seq, root).unwrap();
        let hop = scope.push_span(
            SpanLayer::Hop,
            "hop.conv",
            ClockDomain::Fabric,
            SimTime::ZERO,
            SimTime::from_millis(2),
        );
        scope.event(
            hop,
            SimTime::from_millis(2),
            SpanEvent::Messages { sent: 5 },
        );
        tracer.finish(tenant, seq, SimTime::from_millis(70));
    }

    #[test]
    fn tracer_builds_a_span_tree_and_closes_the_root() {
        let mut tracer = Tracer::new(TraceSampler::always());
        build_one(&mut tracer, 2, 9);
        assert!(!tracer.is_active(2, 9));
        let traces = tracer.take_finished();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.id, TraceId::derive(2, 9));
        let root = t.root().unwrap();
        assert_eq!(root.duration(), SimDuration::from_millis(60));
        assert_eq!(t.children(root.id).count(), 2);
        let hop = t.spans.iter().find(|s| s.layer == SpanLayer::Hop).unwrap();
        assert_eq!(hop.clock, ClockDomain::Fabric);
        assert_eq!(hop.events.len(), 1);
    }

    #[test]
    fn unsampled_requests_are_free_no_ops() {
        let mut tracer = Tracer::new(TraceSampler::never());
        assert!(tracer
            .begin(0, 0, "serve.request", SpanLayer::Request, SimTime::ZERO)
            .is_none());
        assert!(tracer
            .push_span(
                0,
                0,
                SpanId(0),
                SpanLayer::Queue,
                "q",
                ClockDomain::Serve,
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .is_none());
        assert!(tracer.scope(0, 0, SpanId(0)).is_none());
        tracer.finish(0, 0, SimTime::ZERO);
        assert!(tracer.take_finished().is_empty());
    }

    #[test]
    fn take_finished_sorts_by_tenant_then_seq() {
        let mut tracer = Tracer::new(TraceSampler::always());
        build_one(&mut tracer, 1, 5);
        build_one(&mut tracer, 0, 7);
        build_one(&mut tracer, 0, 2);
        let keys: Vec<(u64, u64)> = tracer
            .take_finished()
            .iter()
            .map(|t| (t.tenant, t.seq))
            .collect();
        assert_eq!(keys, vec![(0, 2), (0, 7), (1, 5)]);
    }

    #[test]
    fn trace_jsonl_round_trips_and_is_stable() {
        let mut tracer = Tracer::new(TraceSampler::always());
        build_one(&mut tracer, 0, 0);
        build_one(&mut tracer, 1, 1);
        let traces = tracer.take_finished();
        let text = traces_to_jsonl(&traces);
        assert_eq!(text.lines().count(), 2);
        let back = traces_from_jsonl(&text).unwrap();
        assert_eq!(back, traces);
        assert_eq!(traces_to_jsonl(&back), text);
    }

    #[test]
    fn malformed_trace_line_is_a_typed_error_with_line_number() {
        let err = traces_from_jsonl("\n{\"id\":1,").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(!err.to_string().is_empty());
    }
}
