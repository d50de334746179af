//! The tracked perf trajectory: the workspace's hottest paths — the
//! MicroDeep forward pass (f32 lossless, f32 through a degraded
//! fabric, and the deployed int8 path), the blocked i8 dense kernel,
//! the incremental re-placement planner, the serving layer's
//! admission/dispatch loop, the scenario fusion step, and the audit's
//! full workspace scan — timed by the vendored criterion stub and
//! exported as `BENCH_10.json` for the CI `perf` job to archive.
//!
//! Usage: `cargo bench -p zeiot-bench --bench perf_trajectory --
//! [--out PATH]` (default `BENCH_10.json` in the working directory).
//! `ZEIOT_BENCH_ITERS` overrides the per-bench iteration count (CI's
//! smoke profile uses a small value; the default is the stub's 10).
//!
//! The timings are wall-clock and hence machine-dependent — this file
//! is a *trajectory* artifact for humans to compare across PRs, not
//! part of the determinism contract (which is why it lives in
//! `benches/`, outside the audit scope).

use criterion::Criterion;
use std::hint::black_box;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_microdeep::replace::plan_incremental;
use zeiot_microdeep::{
    Assignment, CnnConfig, DistributedCnn, LossyRuntime, QuantizedCnn, WeightUpdate,
};
use zeiot_net::Topology;
use zeiot_nn::quant::dense_i8_blocked;
use zeiot_nn::tensor::Tensor;
use zeiot_serve::{ArrivalProcess, ServeConfig, Server, Tenant, TenantSpec};

/// The paper's temperature-map CNN on its 10×5 sensor grid.
fn temperature_net(seed: u64) -> (DistributedCnn, Topology) {
    let config = CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2).expect("valid config");
    let graph = config.unit_graph().expect("valid graph");
    let topo = Topology::grid(10, 5, 5.0, 7.6).expect("valid grid");
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    let mut rng = SeedRng::new(seed);
    let net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
    (net, topo)
}

fn bench_microdeep_forward(c: &mut Criterion) {
    let (mut net, _) = temperature_net(1);
    let mut rng = SeedRng::new(2);
    let input = Tensor::uniform(vec![1, 17, 25], 1.0, &mut rng);
    c.bench_function("microdeep_forward_temperature", |b| {
        b.iter(|| black_box(net.forward(black_box(&input))))
    });
}

fn bench_microdeep_forward_lossy(c: &mut Criterion) {
    let (mut net, topo) = temperature_net(3);
    let mut rng = SeedRng::new(4);
    let input = Tensor::uniform(vec![1, 17, 25], 1.0, &mut rng);
    let mut rt = LossyRuntime::new(
        FaultPlan::uniform(5, 0.05).expect("valid rate"),
        RecoveryPolicy::Degrade {
            mode: DegradeMode::ZeroFill,
        },
        &topo,
        SimDuration::from_millis(500),
    );
    c.bench_function("microdeep_forward_lossy_zero_fill", |b| {
        b.iter(|| black_box(net.forward_lossy(black_box(&input), &mut rt)))
    });
}

fn bench_microdeep_forward_quantized(c: &mut Criterion) {
    let (mut net, _) = temperature_net(9);
    let mut rng = SeedRng::new(10);
    let input = Tensor::uniform(vec![1, 17, 25], 1.0, &mut rng);
    let mut quantized = QuantizedCnn::new(&mut net, std::slice::from_ref(&input));
    c.bench_function("microdeep_forward_quantized", |b| {
        b.iter(|| black_box(quantized.forward_quantized(black_box(&input))))
    });
}

fn bench_nn_dense_i8_blocked(c: &mut Criterion) {
    // The larger of the two dense layers in the temperature CNN
    // geometry: 32 outputs over a flattened pooled volume.
    let (in_len, out_len) = (4 * 8 * 12, 32);
    let weights: Vec<i8> = (0..in_len * out_len)
        .map(|i| ((i * 37) % 255) as i8)
        .collect();
    let input: Vec<i8> = (0..in_len).map(|i| ((i * 53) % 255) as i8).collect();
    let bias: Vec<i32> = (0..out_len).map(|o| (o as i32) * 11 - 176).collect();
    c.bench_function("nn_dense_i8_blocked", |b| {
        b.iter(|| {
            black_box(dense_i8_blocked(
                black_box(&weights),
                black_box(&bias),
                black_box(&input),
                out_len,
            ))
        })
    });
}

/// A compact serving stack: two tenants on a 3×3 mesh, one second of
/// offered load through admission, EDF queues, batching, and dispatch.
fn serve_second() -> zeiot_serve::ServeOutcome {
    let topo = Topology::grid(3, 3, 2.0, 3.0).expect("valid grid");
    let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).expect("valid config");
    let graph = config.unit_graph().expect("valid graph");
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    let mut rng = SeedRng::new(6);
    let pool: Vec<(Tensor, usize)> = (0..8)
        .map(|i| (Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng), i % 2))
        .collect();
    let tenants: Vec<Tenant> = [
        ("motion", ArrivalProcess::poisson(24.0)),
        (
            "doors",
            ArrivalProcess::periodic(SimDuration::from_millis(80)),
        ),
    ]
    .into_iter()
    .map(|(name, arrivals)| {
        let net = DistributedCnn::new(
            config,
            assignment.clone(),
            WeightUpdate::Independent,
            &mut SeedRng::new(7),
        );
        let spec = TenantSpec::new(name, arrivals, SimDuration::from_millis(400));
        Tenant::new(spec, net, pool.clone()).expect("non-empty pool")
    })
    .collect();
    let serve_config = ServeConfig::new(2, 4, 16, SimDuration::from_millis(40))
        .expect("valid config")
        .with_batch_overhead(SimDuration::from_millis(10));
    let mut server = Server::new(serve_config, topo, tenants).expect("tenants present");
    server.run(8, SimDuration::from_secs(1), None)
}

fn bench_serve_dispatch(c: &mut Criterion) {
    c.bench_function("serve_dispatch_two_tenants_1s", |b| {
        b.iter(|| black_box(serve_second()))
    });
}

fn bench_replace_incremental(c: &mut Criterion) {
    // Re-plan the temperature CNN after a two-node brownout: the warm
    // start should stay proportional to the orphan count, which is
    // what makes per-request polling affordable in the serving loop.
    let (net, topo) = temperature_net(11);
    let graph = net.config().unit_graph().expect("valid graph");
    let assignment = net.assignment().clone();
    let down = [
        zeiot_core::id::NodeId::new(12),
        zeiot_core::id::NodeId::new(27),
    ];
    c.bench_function("microdeep_replace_incremental", |b| {
        b.iter(|| {
            black_box(plan_incremental(
                black_box(&graph),
                black_box(&topo),
                black_box(&assignment),
                black_box(&down),
                usize::MAX,
            ))
        })
    });
}

fn bench_scenario_fuse_step(c: &mut Criterion) {
    // One E14 fusion instant: normalize four modalities' raw scores
    // into bounded log-posteriors and pool them under reliability
    // weights — the per-observation cost of the fusion engine.
    use zeiot_scenario::{
        log_posterior, Evidence, FusionEngine, FusionPolicy, DEFAULT_EVIDENCE_FLOOR,
    };
    let raw: [(Vec<f64>, f64); 4] = [
        (vec![-812.0, -260.0, -905.0], 0.82),
        (vec![-14.2, -9.8, -11.3], 0.61),
        (vec![-3.0, -1.5, -2.2], 0.43),
        (vec![0.4, 1.9, -0.7], 0.72),
    ];
    let mut engine = FusionEngine::new(FusionPolicy::ReliabilityWeighted);
    c.bench_function("scenario_fuse_step", |b| {
        b.iter(|| {
            let evidence: Vec<Evidence> = black_box(&raw)
                .iter()
                .map(|(scores, weight)| Evidence {
                    log_scores: log_posterior(scores, DEFAULT_EVIDENCE_FLOOR),
                    weight: *weight,
                })
                .collect();
            black_box(engine.estimate(&evidence))
        })
    });
}

fn bench_audit_workspace_scan(c: &mut Criterion) {
    // The audit's end-to-end cost: walk every workspace source, lex,
    // parse items, build the symbol graph, and run all ten rules. This
    // bounds the latency the audit adds to CI and local gates.
    use zeiot_audit::{audit_workspace, AuditConfig};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = AuditConfig::default();
    c.bench_function("audit_workspace_scan", |b| {
        b.iter(|| black_box(audit_workspace(black_box(&root), &config).expect("scan runs")))
    });
}

fn results_json(c: &Criterion) -> String {
    let mut out =
        String::from("{\n  \"schema\": \"zeiot-bench-trajectory/1\",\n  \"benches\": [\n");
    let rows: Vec<String> = c
        .results()
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"iterations\": {}}}",
                r.id, r.mean_nanos, r.iterations
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // cargo bench passes --bench through to the target; ignore it.
    args.retain(|a| a != "--bench");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) if i + 1 < args.len() => args[i + 1].clone(),
        Some(_) => {
            eprintln!("--out requires a path");
            std::process::exit(2);
        }
        None => "BENCH_10.json".to_string(),
    };
    let iters: u32 = std::env::var("ZEIOT_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let mut criterion = Criterion::default().with_iterations(iters);
    bench_microdeep_forward(&mut criterion);
    bench_microdeep_forward_lossy(&mut criterion);
    bench_microdeep_forward_quantized(&mut criterion);
    bench_nn_dense_i8_blocked(&mut criterion);
    bench_replace_incremental(&mut criterion);
    bench_serve_dispatch(&mut criterion);
    bench_scenario_fuse_step(&mut criterion);
    bench_audit_workspace_scan(&mut criterion);
    let json = results_json(&criterion);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
