//! The four workloads: the shared lounge set-up, the one call each
//! operation times, and the digest of each operation's output.
//!
//! Every workload runs the paper's lounge CNN on the 10×5 sensor grid
//! under the balanced-correspondence assignment. Simulated arrivals are
//! open-loop (Poisson, periodic and burst schedules inside a segment);
//! on the host the loop is closed: the next operation starts when the
//! previous one returns.

use crate::stats::Fnv;
use std::fmt::Write as _;
use zeiot_core::id::NodeId;
use zeiot_core::rng::{splitmix64, SeedRng};
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_data::temperature::TemperatureFieldGenerator;
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, ReplaceConfig, WeightUpdate};
use zeiot_net::Topology;
use zeiot_nn::{Tensor, UnitGraph};
use zeiot_obs::{Recorder, Tracer};
use zeiot_serve::{
    ArrivalProcess, DegradedServing, QuantMode, ServeConfig, ServeOutcome, Server, Tenant,
    TenantSpec,
};

/// Distinct segments per workload: operation `i` runs segment `i % 8`.
pub const SEGMENTS: usize = 8;

/// Learning rate and batch size of every training call (the E1 values).
pub const LEARNING_RATE: f32 = 0.05;
pub const BATCH: usize = 16;

/// Epochs of the shared baseline the serving workloads answer with.
const BASELINE_EPOCHS: usize = 4;

/// Worker shards; each builds its own fabric routes per degraded run.
pub const SHARDS: usize = 2;

/// The E10 serving contract: worker time per inference and per batch,
/// and the relative deadline of every request.
const SERVICE_TIME: SimDuration = SimDuration::from_millis(40);
const BATCH_OVERHEAD: SimDuration = SimDuration::from_millis(10);
const DEADLINE: SimDuration = SimDuration::from_millis(400);

/// Fabric-clock advance per executed inference (E10's value).
pub const PASS_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Per-attempt loss of the degraded fabric.
const LOSS: f64 = 0.05;

/// Unit migrations per re-placement epoch.
pub const MIGRATION_BUDGET: usize = 8;

/// Fabric-clock outage windows, in seconds, of the two dense-unit hosts.
/// Each shard's fabric advances one pass period per inference, so in a
/// 2 s segment the busier shard's clock runs past both windows.
const OUTAGES: [(u64, u64); 2] = [(2, 6), (4, 9)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeF32,
    ServeInt8,
    ServeLossy,
    TrainLounge,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeF32,
        Workload::ServeInt8,
        Workload::ServeLossy,
        Workload::TrainLounge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeF32 => "serve-f32",
            Workload::ServeInt8 => "serve-int8",
            Workload::ServeLossy => "serve-lossy",
            Workload::TrainLounge => "train-lounge",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn serves(self) -> bool {
        self != Workload::TrainLounge
    }

    /// Simulated time one serving operation covers.
    fn horizon(self) -> SimDuration {
        match self {
            Workload::ServeLossy => SimDuration::from_secs(2),
            _ => SimDuration::from_secs(10),
        }
    }
}

/// Seed of the load: the arrival schedules and the fault draws. A
/// serving operation's host cost follows the requests its segment offers
/// and the messages its fabric loses, so every `--seed` replays the same
/// load and varies the data and the weights instead; otherwise the work
/// itself would differ from seed to seed by more than the bounds the
/// benchmark sets.
const LOAD_SEED: u64 = 0x5E65_0000;

/// The arrival seed of segment `op % SEGMENTS`.
pub fn segment_seed(op: usize) -> u64 {
    splitmix64(LOAD_SEED ^ (op % SEGMENTS) as u64)
}

/// What one operation returned.
pub enum Output {
    Serve(Box<ServeOutcome>),
    /// The epoch's mean training loss.
    Train(f32),
}

/// Everything set-up builds, and the state operations run against.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub config: CnnConfig,
    pub topo: Topology,
    pub graph: UnitGraph,
    pub assignment: Assignment,
    pub train: Vec<(Tensor, usize)>,
    pub test: Vec<(Tensor, usize)>,
    /// The model frozen with `to_json`: the trained baseline when
    /// serving, the initial weights when training.
    frozen: String,
    /// `frozen` restored: what tenants are built from when serving, the
    /// model under training otherwise.
    pub model: DistributedCnn,
    /// The degraded fabric `serve-lossy` serves through; every
    /// workload's traced ladder replays the lossy rungs against it.
    pub degraded: DegradedServing,
    /// The nodes the outage windows darken.
    pub down: Vec<NodeId>,
    pub server: Option<Server>,
    train_rng: SeedRng,
    losses: Vec<f32>,
}

impl Bench {
    /// Builds the workload's inputs and state from `seed`. Each step runs
    /// inside a span so the traced phase can attribute set-up time.
    pub fn setup(workload: Workload, seed: u64, spans: &mut crate::spans::Spans) -> Self {
        let config = CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2).expect("the lounge CNN is valid");
        let topo = Topology::grid(10, 5, 5.0, 7.6).expect("the lounge grid is valid");
        let graph = config.unit_graph().expect("the lounge CNN is valid");
        let (train, test) = spans.span("data.generate", |_| {
            let generator = TemperatureFieldGenerator::paper_lounge().expect("paper lounge");
            let mut data = generator.paper_dataset(&mut SeedRng::with_stream(seed, 0xDA7A));
            TemperatureFieldGenerator::normalize(&mut data);
            let test = data.split_off(data.len() * 4 / 5);
            (data, test)
        });
        let assignment = spans.span("microdeep.assign", |_| {
            Assignment::balanced_correspondence(&graph, &topo)
        });
        let update = if workload.serves() {
            WeightUpdate::Independent
        } else {
            WeightUpdate::PerUnit
        };
        let mut model = DistributedCnn::new(
            config,
            assignment.clone(),
            update,
            &mut SeedRng::with_stream(seed, 0x0DE1),
        );
        if workload.serves() {
            spans.span("microdeep.train_baseline", |_| {
                let mut rng = SeedRng::with_stream(seed, 0x7124);
                for _ in 0..BASELINE_EPOCHS {
                    model.train_epoch(&train, LEARNING_RATE, BATCH, &mut rng);
                }
            });
        }
        let frozen = spans.span("microdeep.to_json", |_| {
            model.to_json().expect("a model serializes")
        });
        let model = spans.span("microdeep.from_json", |_| restore(&frozen));

        let down = dense_hosts(&graph, &assignment);
        let mut plan = FaultPlan::uniform(LOAD_SEED ^ 0xFA17, LOSS).expect("valid loss rate");
        for (&node, &(from, until)) in down.iter().zip(&OUTAGES) {
            plan = plan
                .with_outage(node, SimTime::from_secs(from), SimTime::from_secs(until))
                .expect("valid outage window");
        }
        let degraded = DegradedServing {
            plan,
            policy: RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            pass_period: PASS_PERIOD,
            stale_cache: false,
            replace: Some(ReplaceConfig::incremental(MIGRATION_BUDGET)),
        };

        let mut bench = Self {
            workload,
            seed,
            config,
            topo,
            graph,
            assignment,
            train,
            test,
            frozen,
            model,
            degraded,
            down,
            server: None,
            train_rng: SeedRng::with_stream(seed, 0x7124),
            losses: Vec::new(),
        };
        if workload.serves() {
            bench.server = Some(spans.span("serve.build", |_| bench.build_server()));
        }
        bench
    }

    /// The E10 tenant mix (motion Poisson 8 Hz, doors every 150 ms, hvac
    /// bursts of 3) on 2 shards, batch 4, queue 16, each tenant a copy of
    /// the restored baseline answering from the held-out pool.
    fn build_server(&self) -> Server {
        let quant = match self.workload {
            Workload::ServeInt8 => QuantMode::Int8,
            _ => QuantMode::F32,
        };
        let mix = [
            ("motion", ArrivalProcess::poisson(8.0)),
            (
                "doors",
                ArrivalProcess::periodic(SimDuration::from_millis(150)),
            ),
            (
                "hvac",
                ArrivalProcess::bursts(
                    3,
                    SimDuration::from_millis(5),
                    SimDuration::from_millis(400),
                ),
            ),
        ];
        let tenants = mix
            .into_iter()
            .map(|(name, arrivals)| {
                let spec = TenantSpec::new(name, arrivals, DEADLINE).with_quant(quant);
                Tenant::new(spec, self.model.clone(), self.test.clone()).expect("non-empty pool")
            })
            .collect();
        let config = ServeConfig::new(SHARDS, 4, 16, SERVICE_TIME)
            .expect("valid serving config")
            .with_batch_overhead(BATCH_OVERHEAD);
        let server = Server::new(config, self.topo.clone(), tenants).expect("tenants present");
        match self.workload {
            Workload::ServeLossy => server.with_degraded(self.degraded.clone()),
            _ => server,
        }
    }

    /// Untimed work before operation `op`. Re-placement mutates the
    /// tenants' placements, so `serve-lossy` rebuilds its server from the
    /// frozen model; training restarts from the frozen initial weights
    /// at the start of every 8-epoch cycle.
    pub fn prepare(&mut self, op: usize) {
        match self.workload {
            Workload::ServeLossy => self.server = Some(self.build_server()),
            Workload::TrainLounge if op.is_multiple_of(SEGMENTS) => {
                self.model = restore(&self.frozen);
                self.train_rng = SeedRng::with_stream(self.seed, 0x7124);
                self.losses.clear();
            }
            _ => {}
        }
    }

    /// The timed call of operation `op`: one `Server::run` over the
    /// segment, or one training epoch.
    pub fn execute(&mut self, op: usize) -> Output {
        if self.workload.serves() {
            Output::Serve(Box::new(self.serve(op, None, None)))
        } else {
            Output::Train(self.model.train_epoch(
                &self.train,
                LEARNING_RATE,
                BATCH,
                &mut self.train_rng,
            ))
        }
    }

    /// Serves segment `op % SEGMENTS`, optionally recorded or traced
    /// (`Server::run` is `run_traced` without a tracer).
    pub fn serve(
        &mut self,
        op: usize,
        recorder: Option<&mut Recorder>,
        tracer: Option<&mut Tracer>,
    ) -> ServeOutcome {
        let seed = segment_seed(op);
        let horizon = self.workload.horizon();
        self.server
            .as_mut()
            .expect("serving workloads build a server")
            .run_traced(seed, horizon, recorder, tracer)
    }

    /// FNV-1a 64 of operation `op`'s output: a serving segment's
    /// `ServeOutcome` Debug text, or a training epoch's loss — plus the
    /// trained model's `to_json()` and all eight losses on the last
    /// epoch of a cycle.
    pub fn digest(&mut self, op: usize, output: &Output) -> u64 {
        let mut h = Fnv::new();
        match output {
            Output::Serve(outcome) => write!(h, "{outcome:?}"),
            Output::Train(loss) => {
                self.losses.push(*loss);
                if op % SEGMENTS == SEGMENTS - 1 {
                    let json = self.model.to_json().expect("a model serializes");
                    write!(h, "{json}{:?}", self.losses)
                } else {
                    write!(h, "{loss:?}")
                }
            }
        }
        .expect("hashing cannot fail");
        h.finish()
    }

    /// Held-out accuracy of the model under training.
    pub fn held_out_accuracy(&mut self) -> f64 {
        self.model.accuracy(&self.test)
    }
}

fn restore(frozen: &str) -> DistributedCnn {
    DistributedCnn::from_json(frozen).expect("a frozen model restores")
}

/// The two lowest-numbered nodes hosting dense units: darkening them
/// silences hidden features and logits, which is what re-placement
/// repairs.
fn dense_hosts(graph: &UnitGraph, assignment: &Assignment) -> Vec<NodeId> {
    let dense_layers = graph.layer_count() - 2..graph.layer_count();
    let mut hosts: Vec<NodeId> = dense_layers
        .flat_map(|l| (0..graph.units_in_layer(l)).map(move |u| assignment.host_of(l, u)))
        .collect();
    hosts.sort();
    hosts.dedup();
    hosts.truncate(OUTAGES.len());
    hosts
}
