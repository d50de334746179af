//! The declared observability-name registry.
//!
//! Every metric and span name the workspace emits is declared here,
//! once, in a generated-style table: the `zeiot-audit` rule `o1`
//! statically checks every string literal flowing into recorder/tracer
//! APIs against these tables (and that every declared name is emitted
//! somewhere), and the JSONL exporters validate names at runtime
//! through [`validate_snapshot`] / [`validate_traces`]. A typo in a
//! metric name therefore fails the audit and the export instead of
//! silently producing an always-zero counter.
//!
//! Maintained in lockstep with the `o1` rule: add the name here *and*
//! emit it, or the audit reports whichever half is missing. Entries
//! ending in `.*` are dynamic families whose suffix is computed at
//! runtime (the audit exempts them from the emitted-somewhere check).
//! Both tables are sorted and duplicate-free (unit-enforced).

use crate::snapshot::Snapshot;
use crate::trace::Trace;

/// Every registered metric name (counters, gauges, histograms, and
/// time-series share one namespace). `.*` marks a dynamic family.
#[rustfmt::skip]
pub const METRICS: &[&str] = &[
    "audit.files_scanned",          // counter: sources scanned per audit run
    "audit.findings.*",             // counters: audit.findings.<status>, labeled per rule
    "bench.*",                      // gauges: bench.<metric> from the bench report table
    "energy.brownouts",             // counter: brownout events per device
    "energy.capacitor_v",           // series: capacitor voltage trajectory
    "energy.checkpoints",           // counter: state checkpoints taken
    "energy.consumed_uj",           // counter: microjoules consumed
    "energy.harvested_uj",          // counter: microjoules harvested
    "energy.power_cycles",          // counter: off/on cycles per device
    "fault.aborted",                // counter: transfers aborted by policy
    "fault.corrupted",              // counter: frames delivered corrupted
    "fault.degraded",               // counter: links entering degraded mode
    "fault.delivered",              // counter: frames delivered
    "fault.drops",                  // counter: frames dropped
    "fault.failed",                 // counter: transfers failed terminally
    "fault.recovered",              // counter: links recovered
    "fault.recovery_latency_hops",  // histogram: hops spent recovering
    "fault.retries",                // counter: retransmissions
    "fault.sent",                   // counter: frames sent
    "fusion.abstained",             // counter: fusion rounds with no winner
    "fusion.fallback",              // counter: single-source fallback rounds
    "fusion.fused",                 // counter: multi-source fused rounds
    "mac.ap_resets",                // counter: access-point resets
    "mac.collisions",               // counter: slot collisions
    "mac.dummy_frames",             // counter: dummy frames for idle slots
    "mac.grant_losses",             // counter: grants lost to brownout
    "mac.grants",                   // counter: slot grants issued
    "mac.registrations",            // counter: devices admitted
    "mac.registrations_rejected",   // counter: admissions rejected
    "mac.samples_dropped",          // counter: sensor samples dropped
    "microdeep.batch_loss",         // series: training loss per batch
    "microdeep.replica_drift",      // gauge: max replica weight drift
    "microdeep.replica_drift_step", // series: drift trajectory per step
    "microdeep.rx_messages",        // counter: messages received per node
    "microdeep.tx_messages",        // counter: messages sent per node
    "quant.activation_saturated",   // counter: i8 activations clipped
    "quant.forwards",               // counter: quantized forward passes
    "quant.input_saturated",        // counter: i8 inputs clipped
    "replace.budget_exhausted",     // counter: epochs cut by migration budget
    "replace.epochs",               // counter: re-placement epochs
    "replace.failed_handoffs",      // counter: migrations lost to the fabric
    "replace.handoff_cost",         // counter: hop-frames spent on handoffs
    "replace.handoff_frames",       // counter: state frames delivered
    "replace.migrations",           // counter: units migrated
    "replace.stranded",             // counter: units left unhosted
    "serve.admitted",               // counter: requests admitted per tenant
    "serve.deadline_miss",          // counter: served past deadline
    "serve.degraded",               // counter: requests served degraded
    "serve.failed",                 // counter: admitted requests failed
    "serve.latency",                // histogram: request latency seconds
    "serve.offered",                // counter: requests offered per tenant
    "serve.queue_depth",            // histogram: shard queue depth
    "serve.served",                 // counter: requests served
    "serve.shed.shard_queue_full",  // counter: shed at the shard queue
    "serve.shed.tenant_limit",      // counter: shed at the tenant limit
    "serve.stale",                  // counter: responses from stale replicas
    "slo.breaches",                 // counter: SLO objectives breached
    "trace.attr.batch",             // histogram: per-trace batch wait share
    "trace.attr.hop",               // histogram: per-trace hop share
    "trace.attr.infer",             // histogram: per-trace inference share
    "trace.attr.queue",             // histogram: per-trace queue share
    "trace.attr.retransmit",        // histogram: per-trace retransmit share
];

/// Every registered span name (trace spans pushed through
/// `Tracer`/`SpanScope`).
#[rustfmt::skip]
pub const SPANS: &[&str] = &[
    "fusion.gather",        // scenario: gathering per-zone context votes
    "hop.conv",             // microdeep: conv partials crossing the mesh
    "hop.hidden",           // microdeep: hidden-layer aggregation hop
    "hop.logit",            // microdeep: logit aggregation hop
    "hop.pool",             // microdeep: pooling hop
    "hop.qconv",            // quantized conv hop
    "hop.qhidden",          // quantized hidden hop
    "hop.qlogit",           // quantized logit hop
    "hop.qpool",            // quantized pooling hop
    "mac.device",           // backscatter MAC device slot activity
    "replace.migrate",      // re-placement state handoff over the fabric
    "serve.batch",          // batch execution window
    "serve.batch_overhead", // batch formation overhead
    "serve.infer",          // model inference inside a batch
    "serve.queue",          // shard queue wait
    "serve.request",        // root span: admission to completion
];

/// Whether `name` matches a registered metric (exact, or a dynamic
/// `family.*` prefix).
pub fn is_registered_metric(name: &str) -> bool {
    METRICS.iter().any(|entry| matches(entry, name))
}

/// Whether `name` is a registered span name.
pub fn is_registered_span(name: &str) -> bool {
    SPANS.contains(&name)
}

fn matches(entry: &str, name: &str) -> bool {
    match entry.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix) && name.len() > prefix.len(),
        None => entry == name,
    }
}

/// A name outside the registry, rejected at export time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownName {
    /// `"metric"` or `"span"`.
    pub kind: &'static str,
    /// The offending name.
    pub name: String,
}

impl std::fmt::Display for UnknownName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} name `{}` is not declared in zeiot-obs::registry",
            self.kind, self.name
        )
    }
}

impl std::error::Error for UnknownName {}

/// Validates every metric name in a snapshot against the registry.
///
/// # Errors
///
/// Returns the first [`UnknownName`] encountered, in snapshot order.
pub fn validate_snapshot(snapshot: &Snapshot) -> Result<(), UnknownName> {
    let names = snapshot
        .counters
        .iter()
        .map(|e| e.name.as_str())
        .chain(snapshot.gauges.iter().map(|e| e.name.as_str()))
        .chain(snapshot.histograms.iter().map(|e| e.name.as_str()))
        .chain(snapshot.series.iter().map(|e| e.name.as_str()));
    for name in names {
        if !is_registered_metric(name) {
            return Err(UnknownName {
                kind: "metric",
                name: name.to_string(),
            });
        }
    }
    Ok(())
}

/// Validates every span name in a trace set against the registry.
///
/// # Errors
///
/// Returns the first [`UnknownName`] encountered, in trace order.
pub fn validate_traces(traces: &[Trace]) -> Result<(), UnknownName> {
    for trace in traces {
        for span in &trace.spans {
            if !is_registered_span(&span.name) {
                return Err(UnknownName {
                    kind: "span",
                    name: span.name.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::recorder::Recorder;

    #[test]
    fn tables_are_sorted_and_duplicate_free() {
        for table in [METRICS, SPANS] {
            let mut sorted = table.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(table, &sorted[..], "registry table unsorted or duplicated");
        }
    }

    #[test]
    fn exact_and_dynamic_matching() {
        assert!(is_registered_metric("serve.latency"));
        assert!(is_registered_metric("audit.findings.active"));
        assert!(is_registered_metric("bench.e9_slo_breaches"));
        assert!(!is_registered_metric("serve.latencyy"));
        assert!(!is_registered_metric("bench.")); // a bare family is not a name
        assert!(is_registered_span("serve.request"));
        assert!(!is_registered_span("serve.requests"));
    }

    #[test]
    fn snapshot_validation_names_the_offender() {
        let mut rec = Recorder::new();
        rec.add("mac.grants", Label::Global, 1);
        assert_eq!(validate_snapshot(&rec.snapshot()), Ok(()));
        rec.add("mac.grantz", Label::Global, 1);
        let err = validate_snapshot(&rec.snapshot()).unwrap_err();
        assert_eq!(err.name, "mac.grantz");
        assert!(err.to_string().contains("registry"));
    }
}
