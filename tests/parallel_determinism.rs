//! Serial-equivalence safety net for the parallel sweep layer.
//!
//! Every experiment fans its sweep points out through
//! [`zeiot_bench::SweepRunner`]; these tests pin the contract that makes
//! that safe: the merged [`ExperimentReport`] serialized as JSON is
//! **byte-identical** between `--threads 1` and `--threads 4` at a fixed
//! seed, for every experiment.

use zeiot_bench::experiments::{
    e10_serving, e11_slo, e12_quant, e13_replace, e14_venue, e1_temperature, e2_motion, e3_mac,
    e4_train, e5_counting, e6_csi, e7_link, e8_energy, e9_faults,
};
use zeiot_bench::SweepRunner;
use zeiot_obs::trace::traces_to_jsonl;

/// Asserts byte-identical JSON between a serial and a 4-thread run.
fn assert_thread_invariant(name: &str, serial: &str, parallel: &str) {
    assert_eq!(
        serial, parallel,
        "{name}: report JSON differs between --threads 1 and --threads 4"
    );
}

#[test]
fn e1_report_is_thread_invariant() {
    let params = e1_temperature::Params::reduced();
    let serial = e1_temperature::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e1_temperature::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E1", &serial, &parallel);
}

#[test]
fn e2_report_is_thread_invariant() {
    let params = e2_motion::Params::reduced();
    let serial = e2_motion::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e2_motion::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E2", &serial, &parallel);
}

#[test]
fn e3_report_is_thread_invariant() {
    let params = e3_mac::Params::reduced();
    let serial = e3_mac::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e3_mac::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E3", &serial, &parallel);
}

#[test]
fn e4_report_is_thread_invariant() {
    let params = e4_train::Params::reduced();
    let serial = e4_train::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e4_train::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E4", &serial, &parallel);
}

#[test]
fn e5_report_is_thread_invariant() {
    let params = e5_counting::Params::reduced();
    let serial = e5_counting::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e5_counting::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E5", &serial, &parallel);
}

#[test]
fn e6_report_is_thread_invariant() {
    let params = e6_csi::Params::reduced();
    let serial = e6_csi::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e6_csi::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E6", &serial, &parallel);
}

#[test]
fn e7_report_is_thread_invariant() {
    let params = e7_link::Params::reduced();
    let serial = e7_link::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e7_link::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E7", &serial, &parallel);
}

#[test]
fn e8_report_is_thread_invariant() {
    let params = e8_energy::Params::reduced();
    let serial = e8_energy::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e8_energy::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E8", &serial, &parallel);
}

/// E9 crosses fault plans with recovery policies; its loss decisions are
/// pure hashes of the message coordinates, so neither accuracy curves
/// nor fault counters may move with the thread count.
#[test]
fn e9_report_is_thread_invariant() {
    let params = e9_faults::Params::reduced();
    let serial = e9_faults::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e9_faults::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E9", &serial, &parallel);
}

/// E9's exported per-point fault counters must also be thread-invariant
/// (they feed the JSONL export).
#[test]
fn e9_exported_snapshot_is_thread_invariant() {
    let params = e9_faults::Params::reduced();
    let serial = e9_faults::run_with(&params, &SweepRunner::serial()).export_snapshot();
    let parallel = e9_faults::run_with(&params, &SweepRunner::new(4)).export_snapshot();
    assert_eq!(serial, parallel);
}

/// E10 simulates a full multi-tenant serving layer per sweep point —
/// virtual-time queues, EDF dispatch, micro-batching, degraded-mode
/// fabrics. Each point is a serial simulation, so the merged report must
/// not move with the thread count.
#[test]
fn e10_report_is_thread_invariant() {
    let params = e10_serving::Params::reduced();
    let serial = e10_serving::run_with(&params, &SweepRunner::serial()).to_json();
    let parallel = e10_serving::run_with(&params, &SweepRunner::new(4)).to_json();
    assert_thread_invariant("E10", &serial, &parallel);
}

/// E10's exported per-point serve/fault metrics must also be
/// thread-invariant (they feed the JSONL export).
#[test]
fn e10_exported_snapshot_is_thread_invariant() {
    let params = e10_serving::Params::reduced();
    let serial = e10_serving::run_with(&params, &SweepRunner::serial()).export_snapshot();
    let parallel = e10_serving::run_with(&params, &SweepRunner::new(4)).export_snapshot();
    assert_eq!(serial, parallel);
}

/// E11 adds causal tracing, windowed SLO evaluation, and attribution
/// histograms on top of the serving layer. The trace sampler is a pure
/// hash of `(seed, trace id)` and the export order is `(point, tenant,
/// seq)`, so both the report **and the trace JSONL bytes** must be
/// identical at every thread count.
#[test]
fn e11_report_and_trace_jsonl_are_thread_invariant() {
    let params = e11_slo::Params::reduced();
    let (serial_report, serial_traces) = e11_slo::run_with_traces(&params, &SweepRunner::serial());
    let (parallel_report, parallel_traces) =
        e11_slo::run_with_traces(&params, &SweepRunner::new(4));
    assert_thread_invariant("E11", &serial_report.to_json(), &parallel_report.to_json());
    assert_eq!(
        traces_to_jsonl(&serial_traces),
        traces_to_jsonl(&parallel_traces),
        "E11: trace JSONL differs between --threads 1 and --threads 4"
    );
    assert!(!serial_traces.is_empty(), "E11 must sample some traces");
}

/// E11's exported snapshot carries the `trace.attr.*` histograms and
/// the `slo.breaches` counters; it feeds the JSONL export, so it must
/// not move with the thread count either.
#[test]
fn e11_exported_snapshot_is_thread_invariant() {
    let params = e11_slo::Params::reduced();
    let serial = e11_slo::run_with(&params, &SweepRunner::serial()).export_snapshot();
    let parallel = e11_slo::run_with(&params, &SweepRunner::new(4)).export_snapshot();
    assert_eq!(serial, parallel);
}

/// E12 serves the same workload in f32 and int8. The integer path's
/// accumulation is exact (reassociation-free by construction), so the
/// quantized points have no excuse at all: report bytes and trace JSONL
/// bytes must match at every thread count.
#[test]
fn e12_report_and_trace_jsonl_are_thread_invariant() {
    let params = e12_quant::Params::reduced();
    let (serial_report, serial_traces) =
        e12_quant::run_with_traces(&params, &SweepRunner::serial());
    let (parallel_report, parallel_traces) =
        e12_quant::run_with_traces(&params, &SweepRunner::new(4));
    assert_thread_invariant("E12", &serial_report.to_json(), &parallel_report.to_json());
    assert_eq!(
        traces_to_jsonl(&serial_traces),
        traces_to_jsonl(&parallel_traces),
        "E12: trace JSONL differs between --threads 1 and --threads 4"
    );
    assert!(!serial_traces.is_empty(), "E12 must sample some traces");
}

/// E12's exported snapshot carries the `quant.*` counters next to the
/// serving metrics; the merged per-point snapshot must not move with
/// the thread count either.
#[test]
fn e12_exported_snapshot_is_thread_invariant() {
    let params = e12_quant::Params::reduced();
    let serial = e12_quant::run_with(&params, &SweepRunner::serial()).export_snapshot();
    let parallel = e12_quant::run_with(&params, &SweepRunner::new(4)).export_snapshot();
    assert_eq!(serial, parallel);
}

/// E13 is the load-bearing entry: its re-placement engine mutates
/// per-tenant placements mid-run, so any hidden cross-point state would
/// surface here first. The metrics snapshot rides inside the report
/// JSON; it is compared separately first so a drift there fails with a
/// focused message.
#[test]
fn e13_report_and_trace_jsonl_are_thread_invariant() {
    let params = e13_replace::Params::reduced();
    let (serial_report, serial_traces) =
        e13_replace::run_with_traces(&params, &SweepRunner::serial());
    let (parallel_report, parallel_traces) =
        e13_replace::run_with_traces(&params, &SweepRunner::new(4));
    assert_eq!(
        serial_report.metrics, parallel_report.metrics,
        "E13: replace.* counters diverged across thread counts"
    );
    assert_thread_invariant("E13", &serial_report.to_json(), &parallel_report.to_json());
    assert_eq!(
        traces_to_jsonl(&serial_traces),
        traces_to_jsonl(&parallel_traces),
        "E13: trace JSONL differs between --threads 1 and --threads 4"
    );
}

/// E14 serves four modality tenants per venue and fuses their answers;
/// the fusion counters, the report and the trace JSONL must all be
/// identical at every thread count.
#[test]
fn e14_report_and_trace_jsonl_are_thread_invariant() {
    let params = e14_venue::Params::reduced();
    let (serial_report, serial_traces) =
        e14_venue::run_with_traces(&params, &SweepRunner::serial());
    let (parallel_report, parallel_traces) =
        e14_venue::run_with_traces(&params, &SweepRunner::new(4));
    assert_eq!(
        serial_report.metrics, parallel_report.metrics,
        "E14: fusion.* counters diverged across thread counts"
    );
    assert_thread_invariant("E14", &serial_report.to_json(), &parallel_report.to_json());
    assert_eq!(
        traces_to_jsonl(&serial_traces),
        traces_to_jsonl(&parallel_traces),
        "E14: trace JSONL differs between --threads 1 and --threads 4"
    );
}

/// E8's merged per-point metrics — not just the report rows — must also
/// be identical across thread counts (exported snapshots feed JSONL).
#[test]
fn e8_exported_snapshot_is_thread_invariant() {
    let params = e8_energy::Params::reduced();
    let serial = e8_energy::run_with(&params, &SweepRunner::serial()).export_snapshot();
    let parallel = e8_energy::run_with(&params, &SweepRunner::new(4)).export_snapshot();
    assert_eq!(serial, parallel);
}

/// An uneven thread count (3) exercises the work-stealing index counter
/// with a worker count that does not divide the point count.
#[test]
fn e8_report_is_invariant_at_odd_thread_counts() {
    let params = e8_energy::Params::reduced();
    let serial = e8_energy::run_with(&params, &SweepRunner::serial()).to_json();
    for threads in [2usize, 3, 8] {
        let parallel = e8_energy::run_with(&params, &SweepRunner::new(threads)).to_json();
        assert_thread_invariant("E8", &serial, &parallel);
    }
}
