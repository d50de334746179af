//! The traced phase: operations run with a span around every call the
//! benchmark makes, each operation's layer calls are replayed one span
//! per call, and a step of the ladder of layer rungs, timed on the
//! workload's model, follows each operation. The spans reduce to the
//! per-layer metrics.

use crate::digests::Checker;
use crate::spans::Spans;
use crate::stats::{median, Metric};
use crate::workload::{
    Bench, Output, Workload, BATCH, LEARNING_RATE, MIGRATION_BUDGET, PASS_PERIOD, SHARDS,
};
use std::hint::black_box;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_fault::LinkFabric;
use zeiot_microdeep::replace::plan_incremental;
use zeiot_microdeep::{DistributedCnn, LossyRuntime, QuantizedCnn};
use zeiot_net::RoutingTable;
use zeiot_nn::loss::cross_entropy;
use zeiot_nn::quant::{conv2d_i8, dense_i8_blocked};
use zeiot_nn::Tensor;
use zeiot_obs::{Recorder, TraceSampler, Tracer};
use zeiot_serve::{Outcome, ServeOutcome};

/// Operations the traced phase runs.
pub const TRACED_OPS: usize = 20;

/// Held-out inputs each forward mode is replayed on per ladder step.
const LADDER_INPUTS: usize = 8;

/// Training samples whose forward, backward and apply calls are
/// replayed after each traced epoch.
const TRAIN_REPLAY: usize = 256;

/// Calls per span of the rungs too short to time one call at a time.
const TRANSMITS_PER_SPAN: usize = 4096;
const DENSE_CALLS_PER_SPAN: usize = 1000;
const CONV_CALLS_PER_SPAN: usize = 100;

/// The observed-versus-plain epoch pair costs two extra epochs, so
/// training measures it on every 4th traced operation only.
const TRAIN_OBSERVE_EVERY: usize = 4;

/// Calibration repetitions (each a fresh freeze of the model).
const CALIBRATIONS: usize = 3;

pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Numbers printed and written to the trajectory file that are not
    /// benchmark metrics: counts that are fixed by the geometry, and
    /// quantities only some workloads have.
    pub extras: Vec<(String, f64)>,
}

/// What the decomposition needs to know about one traced operation.
struct OpFacts {
    op: usize,
    forwards: f64,
    replace_epochs: f64,
    observed: bool,
}

/// Runs [`TRACED_OPS`] operations from `first_op`, each followed by a
/// ladder step.
pub fn traced_phase(
    bench: &mut Bench,
    spans: &mut Spans,
    checker: &mut Checker,
    first_op: usize,
) -> Layers {
    let calibration: Vec<Tensor> = bench.test.iter().map(|(x, _)| x.clone()).collect();
    let mut quantized = None;
    for _ in 0..CALIBRATIONS {
        let mut net = bench.model.clone();
        quantized = Some(spans.span("microdeep.calibrate", |_| {
            QuantizedCnn::new(&mut net, &calibration)
        }));
    }
    let mut quantized = quantized.expect("calibrated at least once");

    let run_name = if bench.workload.serves() {
        "serve.run"
    } else {
        "microdeep.train_epoch"
    };
    let mut ladder = Ladder::new(bench);
    let mut facts = Vec::new();
    let mut histogram_samples = Vec::new();
    for (step, op) in (first_op..first_op + TRACED_OPS).enumerate() {
        spans.set_op(Some(op));
        spans.span("bench.op", |s| {
            s.span("bench.prepare", |_| bench.prepare(op));
            let output = s.span(run_name, |_| bench.execute(op));
            let digest = bench.digest(op, &output);
            checker.check(op, digest);
            facts.push(match &output {
                Output::Serve(outcome) => {
                    let forwards = replay_serve(bench, outcome, &mut quantized, s);
                    observe_serve(bench, op, digest, checker, s, &mut histogram_samples);
                    OpFacts {
                        op,
                        forwards,
                        replace_epochs: outcome.report.replace.map_or(0, |r| r.epochs) as f64,
                        observed: true,
                    }
                }
                Output::Train(_) => {
                    let mut net = bench.model.clone();
                    s.span("bench.replay", |s| {
                        replay_minibatches(&mut net, &bench.train[..TRAIN_REPLAY], s)
                    });
                    let observed = step.is_multiple_of(TRAIN_OBSERVE_EVERY);
                    if observed {
                        observe_train(bench, checker, s, &mut histogram_samples);
                    }
                    OpFacts {
                        op,
                        forwards: bench.train.len() as f64,
                        replace_epochs: 0.0,
                        observed,
                    }
                }
            });
        });
        spans.set_op(None);
        spans.span("bench.ladder", |s| {
            ladder.step(bench, &mut quantized, s, step)
        });
    }
    let (msgs_per_req, delivered_share, mut extras) = ladder.finish(bench);

    let scaled = |name: &str, div: f64| -> Vec<f64> {
        spans.durations_ns(name).iter().map(|v| v / div).collect()
    };
    let forward_f32 = scaled("microdeep.forward", 1e3);
    let forward_int8 = scaled("microdeep.forward_quantized", 1e3);
    let forward_lossy = scaled("microdeep.forward_lossy", 1e3);
    let transmit = scaled("fault.transmit", TRANSMITS_PER_SPAN as f64);
    let routes = scaled("net.routes_build", 1e3);
    let plan = scaled("replace.plan_incremental", 1e3);
    let lossy_overhead =
        median(&forward_lossy) - median(&forward_f32) - msgs_per_req * median(&transmit) / 1e3;

    // Each operation minus the layer calls it contains, estimated from
    // the replays: what remains is the serving layer's own work
    // (admission, EDF queues, batching, request cloning) or the
    // training loop's own work (shuffling, loss, batching).
    let in_op_ms = |name: &str, op: usize| spans.total_in_op_ns(name, op) / 1e6;
    let mut run_ms = Vec::new();
    let mut self_ms = Vec::new();
    let mut record_ms = Vec::new();
    let mut trace_ms = Vec::new();
    for f in &facts {
        let run = in_op_ms(run_name, f.op);
        let layers_ms = match bench.workload {
            Workload::ServeF32 => in_op_ms("microdeep.forward", f.op),
            Workload::ServeInt8 => in_op_ms("microdeep.forward_quantized", f.op),
            Workload::ServeLossy => {
                in_op_ms("microdeep.forward_lossy", f.op)
                    + SHARDS as f64 * median(&routes) / 1e3
                    + f.replace_epochs * median(&plan) / 1e3
            }
            Workload::TrainLounge => {
                let samples = bench.train.len() as f64;
                let per_sample =
                    in_op_ms("microdeep.forward", f.op) + in_op_ms("microdeep.backward", f.op);
                let batches = (samples / BATCH as f64).ceil();
                per_sample * samples / TRAIN_REPLAY as f64
                    + in_op_ms("microdeep.apply_gradients", f.op) * batches
                        / (TRAIN_REPLAY / BATCH) as f64
            }
        };
        run_ms.push(run);
        self_ms.push(run - layers_ms);
        if f.observed {
            record_ms.push(if bench.workload.serves() {
                in_op_ms("serve.run_recorded", f.op) - run
            } else {
                in_op_ms("microdeep.train_epoch_observed", f.op)
                    - in_op_ms("microdeep.train_epoch_plain", f.op)
            });
        }
        if bench.workload.serves() {
            trace_ms.push(in_op_ms("serve.run_traced", f.op) - run);
        }
    }
    let forwards: Vec<f64> = facts.iter().map(|f| f.forwards).collect();

    if bench.workload.serves() {
        extras.push(("obs.trace_ms".into(), median(&trace_ms)));
    }
    if bench.workload == Workload::ServeLossy {
        // Where one serve-lossy operation's host time goes.
        let n = median(&forwards);
        let epochs = median(&facts.iter().map(|f| f.replace_epochs).collect::<Vec<_>>());
        for (name, ms) in [
            ("forward_f32", n * median(&forward_f32) / 1e3),
            ("fabric", n * msgs_per_req * median(&transmit) / 1e6),
            ("lossy_overhead", n * lossy_overhead / 1e3),
            ("routing", SHARDS as f64 * median(&routes) / 1e3),
            ("replace", epochs * median(&plan) / 1e3),
            ("serve_self", median(&self_ms)),
        ] {
            extras.push((format!("breakdown.{name}_ms"), ms));
        }
    }

    let setup_ms = |name: &str| scaled(name, 1e6);
    let metrics = vec![
        Metric::median("microdeep.forward_f32_us", "us", &forward_f32),
        Metric::median("microdeep.forward_int8_us", "us", &forward_int8),
        Metric::median("microdeep.forward_lossy_us", "us", &forward_lossy),
        Metric::with_value(
            "microdeep.lossy_overhead_us",
            "us",
            lossy_overhead,
            &[lossy_overhead],
        ),
        Metric::median(
            "microdeep.backward_us",
            "us",
            &scaled("microdeep.backward", 1e3),
        ),
        Metric::median(
            "microdeep.apply_us",
            "us",
            &scaled("microdeep.apply_gradients", 1e3),
        ),
        Metric::median("microdeep.assign_ms", "ms", &setup_ms("microdeep.assign")),
        Metric::median(
            "microdeep.from_json_ms",
            "ms",
            &setup_ms("microdeep.from_json"),
        ),
        Metric::median(
            "microdeep.calibrate_ms",
            "ms",
            &setup_ms("microdeep.calibrate"),
        ),
        Metric::median("data.generate_ms", "ms", &setup_ms("data.generate")),
        Metric::median("op.run_ms", "ms", &run_ms),
        Metric::median("op.self_ms", "ms", &self_ms),
        Metric::median("op.forwards", "count", &forwards),
        Metric::median("fault.transmit_ns", "ns", &transmit),
        Metric::with_value("fault.msgs_per_req", "count", msgs_per_req, &[msgs_per_req]),
        Metric::with_value(
            "fault.delivered_share",
            "ratio",
            delivered_share,
            &[delivered_share],
        ),
        Metric::median("net.routes_build_us", "us", &routes),
        Metric::median("replace.plan_us", "us", &plan),
        Metric::median(
            "nn.dense_i8_ns",
            "ns",
            &scaled("nn.dense_i8", DENSE_CALLS_PER_SPAN as f64),
        ),
        Metric::median(
            "nn.conv2d_i8_us",
            "us",
            &scaled("nn.conv2d_i8", CONV_CALLS_PER_SPAN as f64 * 1e3),
        ),
        Metric::median("obs.record_ms", "ms", &record_ms),
        Metric::median("obs.histogram_samples", "count", &histogram_samples),
    ];
    Layers { metrics, extras }
}

/// Replays the operation's answered requests through the workload's own
/// forward on a copy of the served model, one span per call. Returns
/// how many forwards the operation ran.
fn replay_serve(
    bench: &Bench,
    outcome: &ServeOutcome,
    quantized: &mut QuantizedCnn,
    spans: &mut Spans,
) -> f64 {
    let server = bench
        .server
        .as_ref()
        .expect("serving workloads build a server");
    let mut net = bench.model.clone();
    let mut rt = (bench.workload == Workload::ServeLossy).then(|| lossy_runtime(bench));
    spans.span("bench.replay", |s| {
        let mut forwards = 0usize;
        for c in &outcome.completions {
            if !matches!(c.outcome, Outcome::Served { .. }) {
                continue;
            }
            let (input, _) = server.tenants()[c.tenant].sample(c.seq);
            match (bench.workload, rt.as_mut()) {
                (Workload::ServeInt8, _) => {
                    s.span("microdeep.forward_quantized", |_| {
                        black_box(quantized.forward_quantized(input))
                    });
                }
                (_, Some(rt)) => {
                    s.span("microdeep.forward_lossy", |_| {
                        black_box(net.forward_lossy(input, rt))
                    });
                    rt.advance_pass();
                }
                _ => {
                    s.span("microdeep.forward", |_| black_box(net.forward(input)));
                }
            }
            forwards += 1;
        }
        forwards as f64
    })
}

/// Runs the operation's segment again with a recorder, then with a
/// tracer sampling every request, so their overheads read against the
/// plain run. Both must return the plain run's outcome.
fn observe_serve(
    bench: &mut Bench,
    op: usize,
    digest: u64,
    checker: &mut Checker,
    spans: &mut Spans,
    histogram_samples: &mut Vec<f64>,
) {
    spans.span("bench.prepare", |_| bench.prepare(op));
    // A fresh Recorder for every run: virtual time restarts at zero in
    // each Server::run, and a recorder's time series must grow in time
    // order, so one recorder shared across runs panics with "time series
    // must be recorded in order".
    let mut recorder = Recorder::new();
    let recorded = spans.span("serve.run_recorded", |_| {
        Output::Serve(Box::new(bench.serve(op, Some(&mut recorder), None)))
    });
    checker.require(
        bench.digest(op, &recorded) == digest,
        "a recorded run returns the plain run's outcome",
    );
    histogram_samples.push(histogram_len(&recorder));

    spans.span("bench.prepare", |_| bench.prepare(op));
    let mut tracer = Tracer::new(TraceSampler::always());
    let traced = spans.span("serve.run_traced", |_| {
        Output::Serve(Box::new(bench.serve(op, None, Some(&mut tracer))))
    });
    checker.require(
        bench.digest(op, &traced) == digest,
        "a traced run returns the plain run's outcome",
    );
}

/// Trains one epoch plain and one observed from the same state and
/// stream; both must end with the same weights.
fn observe_train(
    bench: &Bench,
    checker: &mut Checker,
    spans: &mut Spans,
    histogram_samples: &mut Vec<f64>,
) {
    let rng = || SeedRng::with_stream(bench.seed, 0x0B5E);
    let mut plain = bench.model.clone();
    spans.span("microdeep.train_epoch_plain", |_| {
        plain.train_epoch(&bench.train, LEARNING_RATE, BATCH, &mut rng())
    });
    let mut observed = bench.model.clone();
    let mut recorder = Recorder::new();
    spans.span("microdeep.train_epoch_observed", |_| {
        observed.train_epoch_observed(
            &bench.train,
            LEARNING_RATE,
            BATCH,
            &mut rng(),
            &mut recorder,
        )
    });
    checker.require(
        plain.to_json() == observed.to_json(),
        "an observed epoch trains the plain epoch's weights",
    );
    histogram_samples.push(histogram_len(&recorder));
}

fn histogram_len(recorder: &Recorder) -> f64 {
    recorder
        .histograms()
        .map(|(_, _, h)| h.len())
        .sum::<usize>() as f64
}

/// Forward, `cross_entropy` gradient and backward per sample, and one
/// gradient apply per batch, each in its own span.
fn replay_minibatches(net: &mut DistributedCnn, data: &[(Tensor, usize)], spans: &mut Spans) {
    for batch in data.chunks(BATCH) {
        for (x, label) in batch {
            let logits = spans.span("microdeep.forward", |_| net.forward(x));
            let (_, grad) = cross_entropy(&logits, *label);
            spans.span("microdeep.backward", |_| net.backward(&grad));
        }
        spans.span("microdeep.apply_gradients", |_| {
            net.apply_gradients(LEARNING_RATE / batch.len() as f32)
        });
    }
}

fn lossy_runtime(bench: &Bench) -> LossyRuntime {
    LossyRuntime::new(
        bench.degraded.plan.clone(),
        bench.degraded.policy,
        &bench.topo,
        PASS_PERIOD,
    )
}

/// The layer rungs, timed on the workload's model and the lossy fabric.
/// One step runs after each traced operation, so a burst of other work on
/// the host touches a few samples of each rung rather than a whole rung.
struct Ladder {
    net: DistributedCnn,
    lossy_net: DistributedCnn,
    rt: LossyRuntime,
    fabric: LinkFabric,
    /// Every ordered node pair with its route length.
    pairs: Vec<(NodeId, NodeId, u32)>,
    /// i8 weights, inputs and i32 biases of dense-1 and of the conv layer.
    dense: (Vec<i8>, Vec<i8>, Vec<i32>),
    conv: (Vec<i8>, Vec<i8>, Vec<i32>),
    migrations: usize,
}

impl Ladder {
    fn new(bench: &Bench) -> Self {
        let topo = &bench.topo;
        let routes = RoutingTable::shortest_paths(topo);
        let pairs = topo
            .node_ids()
            .flat_map(|a| {
                topo.node_ids()
                    .filter(move |&b| b != a)
                    .map(move |b| (a, b))
            })
            .map(|(a, b)| (a, b, routes.hop_distance(a, b).unwrap_or(1) as u32))
            .collect();
        // The int8 kernels at the lounge geometry, on operands drawn from
        // a fixed stream.
        let c = &bench.config;
        let mut rng = SeedRng::with_stream(bench.seed, 0x18);
        let mut operands = |n: usize| -> Vec<i8> {
            (0..n)
                .map(|_| (rng.below(255) as i16 - 127) as i8)
                .collect()
        };
        let (features, hidden) = (c.feature_len(), c.hidden());
        let dense = (
            operands(features * hidden),
            operands(features),
            vec![0; hidden],
        );
        let (ic, k, oc) = (c.in_channels(), c.kernel(), c.conv_channels());
        let conv = (
            operands(ic * c.in_height() * c.in_width()),
            operands(oc * ic * k * k),
            vec![0; oc],
        );
        Self {
            net: bench.model.clone(),
            lossy_net: bench.model.clone(),
            rt: lossy_runtime(bench),
            fabric: LinkFabric::new(bench.degraded.plan.clone(), bench.degraded.policy),
            pairs,
            dense,
            conv,
            migrations: 0,
        }
    }

    fn step(
        &mut self,
        bench: &Bench,
        quantized: &mut QuantizedCnn,
        spans: &mut Spans,
        step: usize,
    ) {
        let inputs = &bench.test[step * LADDER_INPUTS..(step + 1) * LADDER_INPUTS];
        replay_minibatches(&mut self.net, inputs, spans);
        for (x, _) in inputs {
            spans.span("microdeep.forward_quantized", |_| {
                black_box(quantized.forward_quantized(x))
            });
        }
        for (x, _) in inputs {
            spans.span("microdeep.forward_lossy", |_| {
                black_box(self.lossy_net.forward_lossy(x, &mut self.rt))
            });
            self.rt.advance_pass();
        }
        spans.span("net.routes_build", |_| {
            black_box(RoutingTable::shortest_paths(&bench.topo))
        });
        spans.span("fault.transmit", |_| {
            for &(a, b, hops) in self.pairs.iter().cycle().take(TRANSMITS_PER_SPAN) {
                black_box(self.fabric.transmit_over(a, b, hops));
            }
        });
        let (_, plan) = spans.span("replace.plan_incremental", |_| {
            plan_incremental(
                &bench.graph,
                &bench.topo,
                &bench.assignment,
                &bench.down,
                MIGRATION_BUDGET,
            )
        });
        self.migrations = plan.migrations.len();
        let (w, x, b) = &self.dense;
        spans.span("nn.dense_i8", |_| {
            for _ in 0..DENSE_CALLS_PER_SPAN {
                black_box(dense_i8_blocked(black_box(w), b, black_box(x), b.len()));
            }
        });
        let c = &bench.config;
        let (x, w, b) = &self.conv;
        spans.span("nn.conv2d_i8", |_| {
            for _ in 0..CONV_CALLS_PER_SPAN {
                black_box(conv2d_i8(
                    black_box(x),
                    w,
                    b,
                    c.in_channels(),
                    c.in_height(),
                    c.in_width(),
                    b.len(),
                    c.kernel(),
                ));
            }
        });
    }

    /// The lossy forward's messages per request and delivered share, and
    /// the counts fixed by the geometry.
    fn finish(self, bench: &Bench) -> (f64, f64, Vec<(String, f64)>) {
        let stats = *self.rt.stats();
        let forwards = (TRACED_OPS * LADDER_INPUTS) as f64;
        let c = &bench.config;
        let (features, hidden) = (c.feature_len(), c.hidden());
        let (ic, ih, iw, oc, k) = (
            c.in_channels(),
            c.in_height(),
            c.in_width(),
            c.conv_channels(),
            c.kernel(),
        );
        // Work per kernel call from tensor shapes: multiply-accumulates,
        // and bytes of i8 operands, i32 biases and i32 accumulators moved.
        let conv_out = oc * (ih - k + 1) * (iw - k + 1);
        let extras = vec![
            ("replace.migrations_per_plan".into(), self.migrations as f64),
            ("nn.dense_i8_macs".into(), (features * hidden) as f64),
            (
                "nn.dense_i8_bytes".into(),
                (features * hidden + features + 8 * hidden) as f64,
            ),
            ("nn.conv2d_i8_macs".into(), (conv_out * ic * k * k) as f64),
            (
                "nn.conv2d_i8_bytes".into(),
                (ic * ih * iw + oc * ic * k * k + 4 * oc + 4 * conv_out) as f64,
            ),
        ];
        (
            stats.sent as f64 / forwards,
            stats.delivered as f64 / stats.sent as f64,
            extras,
        )
    }
}
