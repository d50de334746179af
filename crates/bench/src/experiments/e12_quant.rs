//! E12 — quantized serving: int8 × load × loss.
//!
//! No table in the paper corresponds to this harness; it evaluates the
//! deployed integer inference path (`zeiot_microdeep::QuantizedCnn`,
//! DESIGN.md §11) against the f32 training-precision path under the
//! serving conditions E10/E11 established. One baseline is trained and
//! shared; every sweep point serves the E10 tenant mix in one numeric
//! format ([`QuantMode`]) at one load scale through one fabric loss
//! rate, and the report answers:
//!
//! - **what does quantization cost?** Per-condition serving accuracy
//!   for both formats plus explicit int8−f32 deltas, and a direct
//!   differential pass over the held-out test set (top-1 agreement,
//!   worst per-logit deviation).
//! - **what does it change operationally?** p99 latency, degraded
//!   answers, and fabric traffic per point — the integer path ships one
//!   byte per activation and rides the same degradation ladder.
//! - **is it deterministic?** Integer accumulation is exact, so the
//!   report and the trace JSONL export are byte-identical across
//!   `--threads 1/4` (CI diffs the `e12_quant` bin's output) — the
//!   quantized hop spans (`hop.q*`) land in the same traces the f32
//!   path produces.

use super::mesh::{self, Baseline};
use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_microdeep::QuantizedCnn;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::{Trace, TraceSampler, Tracer};
use zeiot_serve::{DegradedServing, QuantMode, ServeReport};

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
    /// Deterministic trace sampling rate in `[0, 1]`.
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
            horizon_secs: 3,
            seed: 42,
            sample_rate: 0.5,
        }
    }
}

/// Numeric formats swept.
pub const MODES: [QuantMode; 2] = [QuantMode::F32, QuantMode::Int8];

/// Load multipliers swept over the nominal tenant mix.
pub const LOAD_SCALES: [f64; 2] = [1.0, 3.0];

/// Per-attempt fabric loss rates swept (0 = lossless serving).
pub const LOSS_RATES: [f64; 2] = [0.0, 0.05];

/// `(mode, load scale, loss rate)` of sweep point `index`, row-major
/// over [`MODES`] × [`LOAD_SCALES`] × [`LOSS_RATES`].
pub fn point(index: usize) -> (QuantMode, f64, f64) {
    let per_mode = LOAD_SCALES.len() * LOSS_RATES.len();
    (
        MODES[index / per_mode],
        LOAD_SCALES[(index / LOSS_RATES.len()) % LOAD_SCALES.len()],
        LOSS_RATES[index % LOSS_RATES.len()],
    )
}

/// Stable row label of sweep point `index`.
fn point_label(index: usize) -> String {
    let (mode, scale, loss) = point(index);
    format!("{}, load {scale:.2}x, loss {loss:.3}", mode.label())
}

/// The condition (load, loss) half of a point label, shared by the two
/// formats it compares.
fn condition_label(scale: f64, loss: f64) -> String {
    format!("load {scale:.2}x, loss {loss:.3}")
}

/// What one sweep point produced.
#[derive(Debug, Clone)]
struct PointResult {
    report: ServeReport,
    traces: Vec<Trace>,
}

impl PointResult {
    /// Serving accuracy over the point's labelled completions.
    fn accuracy(&self) -> f64 {
        self.report.total().accuracy()
    }
}

/// Runs E12 serially (equivalent to [`run_with`] at any thread count).
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Runs E12 and discards the trace export.
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    run_with_traces(params, runner).0
}

/// Runs E12: one clean baseline is trained and shared; each sweep point
/// serves the tenant mix in one numeric format × load × loss, and a
/// final serial differential pass compares the two formats directly on
/// the held-out test set. Returns the report plus every sampled trace
/// in `(point, tenant, seq)` order — byte-identical across thread
/// counts.
pub fn run_with_traces(params: &Params, runner: &SweepRunner) -> (ExperimentReport, Vec<Trace>) {
    let baseline = Baseline::train(params.samples_per_class, params.epochs, params.seed);

    let horizon = SimDuration::from_secs(params.horizon_secs);
    let plan_seed = params.seed ^ 0xFA17;
    let rate = params.sample_rate.clamp(0.0, 1.0);
    let points = MODES.len() * LOAD_SCALES.len() * LOSS_RATES.len();

    let sweep = runner.run_seeded(params.seed ^ 0xE12A, points, |index, _rng, recorder| {
        let (mode, scale, loss) = point(index);
        let mut server = mesh::server(2, 4, baseline.tenants(scale, mode));
        if loss > 0.0 {
            server = server.with_degraded(DegradedServing {
                plan: FaultPlan::uniform(plan_seed, loss).expect("valid rate"),
                policy: RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                pass_period: mesh::PASS_PERIOD,
                stale_cache: true,
                replace: None,
            });
        }
        // Sampling is a pure function of (seed, point, trace id), so the
        // sampled set is invariant to threads and completion order.
        let mut tracer = Tracer::new(TraceSampler::rate(
            params.seed ^ 0xE12 ^ ((index as u64) << 8),
            rate,
        ));
        let outcome = server.run_traced(params.seed, horizon, Some(recorder), Some(&mut tracer));
        PointResult {
            report: outcome.report,
            traces: tracer.take_finished(),
        }
    });

    let mut report = ExperimentReport::new(
        "E12",
        "Quantized serving: int8 vs f32 accuracy, latency and traffic under load x loss",
    );

    let accuracy_curve: Vec<f64> = sweep.outputs.iter().map(PointResult::accuracy).collect();
    for (index, result) in sweep.outputs.iter().enumerate() {
        let label = point_label(index);
        let total = result.report.total();
        report.push(Row::measured_only(
            format!("serving accuracy ({label})"),
            result.accuracy(),
            "fraction",
        ));
        report.push(Row::measured_only(
            format!("p99 latency ({label})"),
            total.p99_latency().unwrap_or(0.0) * 1e3,
            "ms",
        ));
        report.push(Row::measured_only(
            format!("degraded answers ({label})"),
            total.degraded as f64,
            "count",
        ));
        report.push(Row::measured_only(
            format!("fabric messages sent ({label})"),
            result.report.fault.as_ref().map_or(0.0, |f| f.sent as f64),
            "count",
        ));
    }
    report.push_series("serving accuracy by point", accuracy_curve);

    // int8 − f32 serving-accuracy delta per shared (load, loss)
    // condition: the two formats' points are `per_mode` apart.
    let per_mode = LOAD_SCALES.len() * LOSS_RATES.len();
    for cond in 0..per_mode {
        let (_, scale, loss) = point(cond);
        let delta = sweep.outputs[per_mode + cond].accuracy() - sweep.outputs[cond].accuracy();
        report.push(Row::measured_only(
            format!("accuracy delta int8-f32 ({})", condition_label(scale, loss)),
            delta,
            "fraction",
        ));
    }

    // Direct differential pass over the held-out test set, outside the
    // serving loop: the same frozen model tenants deploy (calibrated on
    // the same pool), compared logit-by-logit against f32.
    let mut f32_model = baseline.restore();
    let mut int8_model = {
        let calibration: Vec<Tensor> = baseline.test.iter().map(|(x, _)| x.clone()).collect();
        QuantizedCnn::new(&mut baseline.restore(), &calibration)
    };
    let mut agree = 0usize;
    let mut max_logit_delta = 0.0f64;
    let (mut f32_correct, mut int8_correct) = (0usize, 0usize);
    for (x, t) in &baseline.test {
        let f = f32_model.forward(x);
        let q = int8_model.forward_quantized(x);
        if f.argmax() == q.argmax() {
            agree += 1;
        }
        if f.argmax() == *t {
            f32_correct += 1;
        }
        if q.argmax() == *t {
            int8_correct += 1;
        }
        for (&a, &b) in f.data().iter().zip(q.data()) {
            max_logit_delta = max_logit_delta.max((a as f64 - b as f64).abs());
        }
    }
    let n = baseline.test.len().max(1) as f64;
    report.push(Row::measured_only(
        "top-1 agreement (direct)",
        agree as f64 / n,
        "fraction",
    ));
    report.push(Row::measured_only(
        "max |logit delta| (direct)",
        max_logit_delta,
        "logits",
    ));
    report.push(Row::measured_only(
        "f32 test accuracy (direct)",
        f32_correct as f64 / n,
        "fraction",
    ));
    report.push(Row::measured_only(
        "int8 test accuracy (direct)",
        int8_correct as f64 / n,
        "fraction",
    ));
    report.push(Row::measured_only(
        "int8 saturated activations (direct)",
        int8_model.stats().activation_saturated as f64,
        "count",
    ));

    report.attach_metrics(sweep.metrics);
    let traces: Vec<Trace> = sweep.outputs.into_iter().flat_map(|p| p.traces).collect();
    (report, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_obs::trace::SpanLayer;

    #[test]
    fn point_grid_is_row_major() {
        assert_eq!(point(0), (QuantMode::F32, 1.0, 0.0));
        assert_eq!(point(3), (QuantMode::F32, 3.0, 0.05));
        assert_eq!(point(4), (QuantMode::Int8, 1.0, 0.0));
        assert_eq!(point(7), (QuantMode::Int8, 3.0, 0.05));
    }

    #[test]
    fn reduced_run_compares_formats_and_traces_quantized_hops() {
        let (report, traces) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        // The direct differential pass bounds the quantization error.
        let agreement = report
            .row("top-1 agreement (direct)")
            .expect("row present")
            .measured;
        assert!(agreement >= 0.9, "int8 disagrees too often: {agreement}");
        let delta = report
            .row("accuracy delta int8-f32 (load 1.00x, loss 0.000)")
            .expect("row present")
            .measured;
        assert!(
            delta.abs() <= 0.1,
            "serving accuracy moved too far: {delta}"
        );
        // Quantized lossy points leave quantized hop spans in the traces.
        assert!(!traces.is_empty());
        assert!(
            traces.iter().any(|t| t
                .spans
                .iter()
                .any(|s| s.layer == SpanLayer::Hop && s.name.starts_with("hop.q"))),
            "int8 lossy serving must emit hop.q* spans"
        );
        // The quant counters made it into the metrics export.
        let snapshot = report.export_snapshot();
        assert!(snapshot.counter_total("quant.forwards") > 0);
    }

    #[test]
    fn report_and_traces_are_reproducible() {
        let (report_a, traces_a) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        let (report_b, traces_b) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        assert_eq!(report_a.to_json(), report_b.to_json());
        assert_eq!(traces_a, traces_b);
    }
}
