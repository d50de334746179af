//! E11 — causal tracing, latency attribution, and SLO burn rates under
//! load × loss.
//!
//! No table in the paper corresponds to this harness; it closes the
//! observability loop over the serving stack that E10 opened. Every
//! sweep point serves the E10 tenant mix through `zeiot-serve` with
//! **causal tracing** on (a deterministic per-request sample), then
//! answers three questions the aggregate counters cannot:
//!
//! - **where does the time go?** Per-trace attribution
//!   ([`zeiot_obs::analysis::attribution`]) splits each request's
//!   end-to-end latency into queue / batch / infer self-times (the
//!   serve-clock spans tile, so the split sums exactly to the latency)
//!   and rides the fabric-clock hop spans along as message and
//!   retransmission annotations — exported as the `trace.attr.*`
//!   histograms.
//! - **which requests were slow, structurally?** Critical-path
//!   signatures group traces by their dominant span chain (the
//!   `trace-report` CLI renders the same view offline).
//! - **is the service meeting its objectives?** Each point's outcome is
//!   sliced into 1 s windows ([`zeiot_serve::windowed_snapshots`]) and
//!   evaluated against declarative [`SloSpec`]s — p99 latency,
//!   deadline-miss rate, shed rate — with burn-rate thresholds; the
//!   breach stream is part of the report and is byte-reproducible.
//!
//! The sweep crosses offered load (0.5×, 1×, 3×) with fabric loss (0,
//! 2 %, 5 %) under a retransmit-then-stale recovery ladder. The axes
//! separate cleanly, which is itself the finding: load moves the
//! serve-clock SLOs (queueing pushes p99 and then the shed rate), while
//! fabric loss never does — substitution and retransmission cost fabric
//! time, not serve time — so the loss axis is visible *only* in the
//! causal traces (retransmit backoff, hop loss annotations) and the
//! outcome-quality counters (stale/failed answers). Aggregate serving
//! metrics alone would hide that an unreliable fabric is being ridden;
//! the attribution layer is what surfaces it.

use super::mesh::{self, Baseline};
use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::time::SimDuration;
use zeiot_fault::{FaultPlan, RecoveryPolicy};
use zeiot_obs::analysis::{attribution, LayerRollup};
use zeiot_obs::slo::{evaluate_all, SloBreach, SloObjective, SloSpec};
use zeiot_obs::trace::{SpanLayer, Trace, TraceSampler, Tracer};
use zeiot_obs::Label;
use zeiot_serve::{windowed_snapshots, DegradedServing, QuantMode, ServeReport};

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Labelled samples per class (training + tenant request pools).
    pub samples_per_class: usize,
    /// Training epochs for the shared baseline model.
    pub epochs: usize,
    /// Simulated serving horizon per sweep point, in seconds.
    pub horizon_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Deterministic trace sampling rate in `[0, 1]` (per-unit hop
    /// spans make traced requests heavy; sample, don't take all).
    pub sample_rate: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            samples_per_class: 40,
            epochs: 10,
            horizon_secs: 8,
            seed: 42,
            sample_rate: 0.25,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            samples_per_class: 24,
            epochs: 5,
            horizon_secs: 4,
            seed: 42,
            sample_rate: 0.5,
        }
    }
}

/// Load multipliers swept over the nominal tenant mix.
pub const LOAD_SCALES: [f64; 3] = [0.5, 1.0, 3.0];

/// Per-attempt fabric loss rates swept (0 = lossless serving).
pub const LOSS_RATES: [f64; 3] = [0.0, 0.02, 0.05];

/// Burn-rate evaluation window.
const WINDOW: SimDuration = SimDuration::from_secs(1);

/// Index of the nominal point (1.0× load, 2 % loss) whose traces feed
/// the attribution rows.
const NOMINAL: usize = 4;

/// The declarative objectives every point is held to, fleet-wide scope.
pub fn slo_specs() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "p99-latency".to_owned(),
            scope: Label::Global,
            objective: SloObjective::P99LatencySecs { target: 0.25 },
            window: WINDOW,
            burn_threshold: 1.0,
        },
        SloSpec {
            name: "deadline-miss".to_owned(),
            scope: Label::Global,
            objective: SloObjective::DeadlineMissRate { target: 0.05 },
            window: WINDOW,
            burn_threshold: 2.0,
        },
        SloSpec {
            name: "shed-rate".to_owned(),
            scope: Label::Global,
            objective: SloObjective::ShedRate { target: 0.01 },
            window: WINDOW,
            burn_threshold: 2.0,
        },
    ]
}

/// `(load scale, loss rate)` of sweep point `index`, row-major over
/// [`LOAD_SCALES`] × [`LOSS_RATES`].
pub fn point(index: usize) -> (f64, f64) {
    (
        LOAD_SCALES[index / LOSS_RATES.len()],
        LOSS_RATES[index % LOSS_RATES.len()],
    )
}

/// Stable row label of sweep point `index`.
fn point_label(index: usize) -> String {
    let (scale, loss) = point(index);
    format!("load {scale:.2}x, loss {loss:.3}")
}

/// What one sweep point produced.
#[derive(Debug, Clone)]
struct PointResult {
    report: ServeReport,
    traces: Vec<Trace>,
    breaches: Vec<SloBreach>,
}

/// Runs E11 serially (equivalent to [`run_with`] at any thread count).
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Runs E11 and discards the trace export (the report keeps the
/// attribution and breach rows).
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    run_with_traces(params, runner).0
}

/// Runs E11: one clean baseline is trained and shared, then every sweep
/// point serves its scaled tenant mix with causal tracing on, slices
/// the outcome into burn-rate windows, and evaluates the SLO specs.
/// Returns the report plus every sampled trace in `(point, tenant,
/// seq)` order — byte-identical across thread counts.
pub fn run_with_traces(params: &Params, runner: &SweepRunner) -> (ExperimentReport, Vec<Trace>) {
    let baseline = Baseline::train(params.samples_per_class, params.epochs, params.seed);

    let horizon = SimDuration::from_secs(params.horizon_secs);
    let plan_seed = params.seed ^ 0xFA17;
    let rate = params.sample_rate.clamp(0.0, 1.0);
    let points = LOAD_SCALES.len() * LOSS_RATES.len();
    let specs = slo_specs();

    let sweep = runner.run_seeded(params.seed ^ 0xE115, points, |index, _rng, recorder| {
        let (scale, loss) = point(index);
        let mut server = mesh::server(2, 4, baseline.tenants(scale, QuantMode::F32));
        if loss > 0.0 {
            server = server.with_degraded(DegradedServing {
                plan: FaultPlan::uniform(plan_seed, loss).expect("valid rate"),
                policy: RecoveryPolicy::Retransmit {
                    max_retries: 2,
                    timeout: SimDuration::from_millis(2),
                    backoff: 2.0,
                },
                pass_period: mesh::PASS_PERIOD,
                stale_cache: true,
                replace: None,
            });
        }
        // Sampling is a pure function of (seed, point, trace id), so the
        // sampled set is invariant to threads and completion order.
        let mut tracer = Tracer::new(TraceSampler::rate(
            params.seed ^ 0xE11 ^ ((index as u64) << 8),
            rate,
        ));
        let outcome = server.run_traced(params.seed, horizon, Some(recorder), Some(&mut tracer));
        let traces = tracer.take_finished();
        // Per-layer latency attribution histograms, one observation per
        // sampled trace.
        for trace in &traces {
            let attr = attribution(trace);
            recorder.observe("trace.attr.queue", Label::Global, attr.queue.as_secs_f64());
            recorder.observe("trace.attr.batch", Label::Global, attr.batch.as_secs_f64());
            recorder.observe("trace.attr.infer", Label::Global, attr.infer.as_secs_f64());
            recorder.observe("trace.attr.hop", Label::Global, attr.hop_messages as f64);
            recorder.observe(
                "trace.attr.retransmit",
                Label::Global,
                attr.retransmit.as_secs_f64(),
            );
        }
        let windows = windowed_snapshots(&outcome, WINDOW);
        let breaches = evaluate_all(&specs, &windows);
        recorder.add("slo.breaches", Label::Global, breaches.len() as u64);
        PointResult {
            report: outcome.report,
            traces,
            breaches,
        }
    });

    let mut report = ExperimentReport::new(
        "E11",
        "Causal tracing, latency attribution, and SLO burn rates under load x loss",
    );

    let breach_curve: Vec<f64> = sweep
        .outputs
        .iter()
        .map(|p| p.breaches.len() as f64)
        .collect();
    for (index, result) in sweep.outputs.iter().enumerate() {
        let label = point_label(index);
        let total = result.report.total();
        report.push(Row::measured_only(
            format!("p99 latency ({label})"),
            total.p99_latency().unwrap_or(0.0) * 1e3,
            "ms",
        ));
        report.push(Row::measured_only(
            format!("shed rate ({label})"),
            total.shed_rate(),
            "fraction",
        ));
        report.push(Row::measured_only(
            format!("slo breaches ({label})"),
            result.breaches.len() as f64,
            "count",
        ));
        let max_burn = result
            .breaches
            .iter()
            .map(|b| b.burn_rate)
            .filter(|b| b.is_finite())
            .fold(0.0f64, f64::max);
        report.push(Row::measured_only(
            format!("max finite burn rate ({label})"),
            max_burn,
            "x budget",
        ));
        let retransmit: f64 = result
            .traces
            .iter()
            .map(|t| attribution(t).retransmit.as_secs_f64())
            .sum();
        report.push(Row::measured_only(
            format!("mean retransmit backoff per trace ({label})"),
            retransmit * 1e3 / result.traces.len().max(1) as f64,
            "ms",
        ));
        report.push(Row::measured_only(
            format!("stale+failed answers ({label})"),
            (total.stale + total.failed) as f64,
            "count",
        ));
    }
    report.push_series("slo breaches by point", breach_curve);

    // Attribution at the nominal point: where the sampled requests'
    // latency actually went, as mean milliseconds per layer.
    let nominal = &sweep.outputs[NOMINAL];
    let rollup = LayerRollup::of(&nominal.traces);
    let traced = nominal.traces.len().max(1) as f64;
    for layer in [SpanLayer::Queue, SpanLayer::Batch, SpanLayer::Infer] {
        report.push(Row::measured_only(
            format!("mean {} self-time (nominal)", layer.metric_suffix()),
            rollup.self_time[layer as usize].as_secs_f64() * 1e3 / traced,
            "ms",
        ));
    }
    report.push(Row::measured_only(
        "mean hop messages per trace (nominal)",
        rollup.hop_messages as f64 / traced,
        "messages",
    ));
    report.push(Row::measured_only(
        "sampled traces (nominal)",
        nominal.traces.len() as f64,
        "count",
    ));

    report.attach_metrics(sweep.metrics);
    let traces: Vec<Trace> = sweep.outputs.into_iter().flat_map(|p| p.traces).collect();
    (report, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_traces_attributes_and_breaches() {
        let (report, traces) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        // Sampling produced traces, and every one tiles its latency.
        assert!(!traces.is_empty());
        for trace in &traces {
            let root = trace.root().expect("rooted trace");
            assert_eq!(attribution(trace).total(), root.duration());
        }
        // Overload at 2x trips the shed-rate objective; the light
        // lossless point burns no budget.
        let calm = report
            .row("slo breaches (load 0.50x, loss 0.000)")
            .expect("row present")
            .measured;
        let hot = report
            .row("slo breaches (load 3.00x, loss 0.000)")
            .expect("row present")
            .measured;
        assert_eq!(calm, 0.0, "calm point must not breach");
        assert!(hot > 0.0, "overload must breach");
        // The loss axis never moves the serve clock; it shows up as
        // fabric-clock retransmit backoff in the traces instead.
        let lossless = report
            .row("mean retransmit backoff per trace (load 1.00x, loss 0.000)")
            .expect("row present")
            .measured;
        let lossy = report
            .row("mean retransmit backoff per trace (load 1.00x, loss 0.050)")
            .expect("row present")
            .measured;
        assert_eq!(lossless, 0.0, "no retransmits without loss");
        assert!(lossy > 0.0, "5% loss must retransmit");
        // The attribution histograms made it into the metrics export.
        let snapshot = report.export_snapshot();
        assert!(snapshot
            .histograms
            .iter()
            .any(|h| h.name == "trace.attr.queue"));
        assert!(snapshot
            .histograms
            .iter()
            .any(|h| h.name == "trace.attr.retransmit"));
    }

    #[test]
    fn report_and_traces_are_reproducible() {
        let (report_a, traces_a) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        let (report_b, traces_b) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        assert_eq!(report_a.to_json(), report_b.to_json());
        assert_eq!(traces_a, traces_b);
    }

    #[test]
    fn point_grid_is_row_major() {
        assert_eq!(point(0), (0.5, 0.0));
        assert_eq!(point(NOMINAL), (1.0, 0.02));
        assert_eq!(point(8), (3.0, 0.05));
    }
}
