//! Causal-tracing contract tests for the serving layer:
//!
//! * **tracing is pure observation** — the [`ServeOutcome`] of a traced
//!   run is `assert_eq!`-identical to the untraced path (which is the
//!   same code with no tracer);
//! * **attribution tiles** — for *every* traced request, the per-layer
//!   serve-clock attribution sums exactly to the end-to-end latency;
//! * **traces are deterministic** — two identical runs export
//!   byte-identical trace JSONL.

use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, WeightUpdate};
use zeiot_net::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::analysis::{attribution, critical_path};
use zeiot_obs::trace::{traces_to_jsonl, SpanLayer, TraceSampler, Tracer};
use zeiot_serve::{
    ArrivalProcess, DegradedServing, Outcome, ServeConfig, Server, Tenant, TenantSpec,
};

fn topology() -> Topology {
    Topology::grid(3, 3, 2.0, 3.0).expect("valid grid")
}

fn small_net(seed: u64) -> DistributedCnn {
    let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).expect("valid config");
    let graph = config.unit_graph().expect("valid graph");
    let assignment = Assignment::balanced_correspondence(&graph, &topology());
    let mut rng = SeedRng::new(seed);
    DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng)
}

fn pool(n: usize) -> Vec<(Tensor, usize)> {
    let mut rng = SeedRng::new(77);
    (0..n)
        .map(|i| {
            let mut img = Tensor::zeros(vec![1, 8, 8]);
            for y in 0..4 {
                for x in 0..4 {
                    let (yy, xx) = if i % 2 == 0 { (y, x) } else { (y + 4, x + 4) };
                    img.set(&[0, yy, xx], 1.0 + rng.normal_with(0.0, 0.1) as f32);
                }
            }
            (img, i % 2)
        })
        .collect()
}

fn tenant(name: &str, arrivals: ArrivalProcess) -> Tenant {
    let spec = TenantSpec::new(name, arrivals, SimDuration::from_millis(400));
    Tenant::new(spec, small_net(5), pool(8)).expect("valid tenant")
}

/// A small degraded-mode server with enough load to exercise queueing,
/// batching, shedding, degrade substitutions, and stale answers.
fn degraded_server() -> Server {
    let config = ServeConfig::new(2, 3, 8, SimDuration::from_millis(40))
        .expect("valid config")
        .with_batch_overhead(SimDuration::from_millis(20));
    let degraded = DegradedServing {
        plan: FaultPlan::uniform(9, 0.08).expect("valid plan"),
        policy: RecoveryPolicy::Degrade {
            mode: DegradeMode::ZeroFill,
        },
        pass_period: SimDuration::from_millis(100),
        stale_cache: true,
        replace: None,
    };
    Server::new(
        config,
        topology(),
        vec![
            tenant("alpha", ArrivalProcess::poisson(40.0)),
            tenant(
                "beta",
                ArrivalProcess::periodic(SimDuration::from_millis(150)),
            ),
        ],
    )
    .expect("tenants present")
    .with_degraded(degraded)
}

#[test]
fn tracing_is_pure_observation() {
    let untraced = degraded_server().run(42, SimDuration::from_secs(3), None);
    let mut tracer = Tracer::new(TraceSampler::always());
    let traced =
        degraded_server().run_traced(42, SimDuration::from_secs(3), None, Some(&mut tracer));
    assert_eq!(untraced, traced);
    assert!(
        !tracer.finished().is_empty(),
        "always-sampled run must trace"
    );

    // A never-sampling tracer is also transparent and collects nothing.
    let mut noop = Tracer::new(TraceSampler::never());
    let noop_outcome =
        degraded_server().run_traced(42, SimDuration::from_secs(3), None, Some(&mut noop));
    assert_eq!(untraced, noop_outcome);
    assert!(noop.finished().is_empty());
}

#[test]
fn attribution_sums_to_end_to_end_latency_for_every_trace() {
    let mut tracer = Tracer::new(TraceSampler::always());
    let outcome =
        degraded_server().run_traced(7, SimDuration::from_secs(3), None, Some(&mut tracer));
    let traces = tracer.take_finished();
    // Every offered request retires exactly one trace.
    assert_eq!(traces.len(), outcome.completions.len());

    for (trace, completion) in traces.iter().zip(&outcome.completions) {
        assert_eq!(
            (trace.tenant, trace.seq),
            (completion.tenant as u64, completion.seq)
        );
        let root = trace.root().expect("rooted trace");
        let attr = attribution(trace);
        // The tiling invariant: per-layer serve-clock self-times sum to
        // the root's duration, i.e. the request's end-to-end latency.
        assert_eq!(
            attr.total(),
            root.duration(),
            "attribution must tile latency for trace {} ({}, {})",
            trace.id,
            trace.tenant,
            trace.seq
        );
        // And the root duration is the served latency / zero for sheds.
        match &completion.outcome {
            Outcome::Served {
                completion: done, ..
            } => {
                assert_eq!(root.duration(), done.duration_since(completion.arrival));
            }
            Outcome::Shed { .. } => assert!(root.duration().is_zero()),
            Outcome::Failed => {}
        }
        // The critical path starts at the root and stays on serve-clock
        // spans whose self-times are a subset of the attribution.
        let path = critical_path(trace);
        assert_eq!(path.first().map(|s| s.layer), Some(SpanLayer::Request));
    }
    // The workload is rich enough for the invariant to mean something.
    assert!(
        outcome
            .completions
            .iter()
            .any(|c| !matches!(c.outcome, Outcome::Served { .. })),
        "expected some sheds/failures in the workload"
    );
}

#[test]
fn trace_export_is_deterministic() {
    let dump = |seed: u64| {
        let mut tracer = Tracer::new(TraceSampler::rate(seed, 0.5));
        degraded_server().run_traced(seed, SimDuration::from_secs(3), None, Some(&mut tracer));
        traces_to_jsonl(&tracer.take_finished())
    };
    let a = dump(11);
    let b = dump(11);
    assert_eq!(a, b, "identical runs must export identical bytes");
    assert!(!a.is_empty());
}
