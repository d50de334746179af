//! The MicroDeep mesh fixture E9–E14 share.
//!
//! E9 fixed the deployment the later mesh experiments extend: a small
//! 8×8 CNN on a 3×3 grid, trained once on synthetic two-class scenes.
//! E10–E13 serve that baseline to the same three-tenant mix under one
//! latency contract, and E14 serves its venue modalities on the same
//! mesh with the same serving constants. Keeping every shared condition
//! here means one edit changes it for every experiment.

use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_core::units::Watt;
use zeiot_energy::capacitor::Capacitor;
use zeiot_energy::consumer::PowerProfile;
use zeiot_energy::harvester::ConstantSource;
use zeiot_energy::intermittent::IntermittentDevice;
use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, WeightUpdate};
use zeiot_net::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_nn::topology::UnitGraph;
use zeiot_serve::{ArrivalProcess, QuantMode, ServeConfig, Server, Tenant, TenantSpec};

/// Worker time per inference.
const SERVICE_TIME: SimDuration = SimDuration::from_millis(40);

/// Fixed worker time per dispatched micro-batch.
const BATCH_OVERHEAD: SimDuration = SimDuration::from_millis(10);

/// Relative deadline granted to every request.
const DEADLINE: SimDuration = SimDuration::from_millis(400);

/// One inference pass's worth of simulated time on the mesh: the fabric
/// clock advance per executed inference.
pub(crate) const PASS_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Simulated-time budget of the capacitor traces driving brownout
/// outage windows.
pub(crate) const TRACE_BUDGET: SimDuration = SimDuration::from_secs(120);

/// The deployment: a 3×3 mesh whose corner-to-corner links need two
/// hops, hosting a small 8×8 CNN.
///
/// # Panics
///
/// Never; the layout is statically valid.
pub(crate) fn deployment() -> Topology {
    Topology::grid(3, 3, 2.0, 3.0).expect("valid layout")
}

/// The mesh CNN.
///
/// # Panics
///
/// Never; the geometry is statically valid.
pub fn cnn_config() -> CnnConfig {
    CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).expect("valid geometry")
}

/// Synthetic two-class 8×8 intensity data: class 0 lights the top-left
/// quadrant, class 1 the bottom-right, with mild Gaussian noise.
pub fn generate_data(samples_per_class: usize, rng: &mut SeedRng) -> Vec<(Tensor, usize)> {
    let mut data = Vec::with_capacity(samples_per_class * 2);
    for _ in 0..samples_per_class {
        for class in 0..2usize {
            let mut img = Tensor::zeros(vec![1, 8, 8]);
            for y in 0..4 {
                for x in 0..4 {
                    let (yy, xx) = if class == 0 { (y, x) } else { (y + 4, x + 4) };
                    img.set(&[0, yy, xx], 1.0 + rng.normal_with(0.0, 0.1) as f32);
                }
            }
            data.push((img, class));
        }
    }
    data
}

/// A duty-cycling zero-energy device: the 15 µW harvest cannot sustain
/// the backscatter tag's 20 µW compute draw, so the capacitor browns out
/// periodically.
///
/// # Panics
///
/// Never; the device is statically valid.
pub(crate) fn brownout_device() -> IntermittentDevice<ConstantSource> {
    IntermittentDevice::new(
        ConstantSource::new(Watt::new(15e-6)).expect("positive harvest"),
        Capacitor::new(100e-6, 2.4, 1.8, 3.0).expect("valid capacitor"),
        PowerProfile::backscatter_tag().expect("valid profile"),
        SimDuration::from_millis(10),
    )
    .expect("valid device")
}

/// The nominal tenant mix at `load_scale`, serving in `mode`: three
/// context-recognition applications with different arrival shapes and
/// the same [`DEADLINE`].
pub(crate) fn tenant_specs(load_scale: f64, mode: QuantMode) -> Vec<TenantSpec> {
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
    mix.into_iter()
        .map(|(name, arrivals)| {
            TenantSpec::new(name, arrivals.scaled(load_scale), DEADLINE).with_quant(mode)
        })
        .collect()
}

/// A server over [`deployment`] with `shards` workers, micro-batches of
/// up to `batch`, 16-deep queues, [`SERVICE_TIME`] per inference and
/// [`BATCH_OVERHEAD`] per batch.
///
/// # Panics
///
/// Panics if `shards` or `batch` is zero or `tenants` is empty.
pub(crate) fn server(shards: usize, batch: usize, tenants: Vec<Tenant>) -> Server {
    let config = ServeConfig::new(shards, batch, 16, SERVICE_TIME)
        .expect("valid config")
        .with_batch_overhead(BATCH_OVERHEAD);
    Server::new(config, deployment(), tenants).expect("tenants present")
}

/// Trains a fresh [`cnn_config`] CNN on `assignment` with the baseline
/// recipe: initial weights from `seed`'s model stream, independent
/// kernel updates, and `epoch` run `epochs` times with `seed`'s training
/// stream.
pub(crate) fn train_fresh(
    assignment: Assignment,
    seed: u64,
    epochs: usize,
    mut epoch: impl FnMut(&mut DistributedCnn, &mut SeedRng),
) -> DistributedCnn {
    let mut model_rng = SeedRng::with_stream(seed, 0x0DE1);
    let mut net = DistributedCnn::new(
        cnn_config(),
        assignment,
        WeightUpdate::Independent,
        &mut model_rng,
    );
    let mut train_rng = SeedRng::with_stream(seed, 0x7124);
    for _ in 0..epochs {
        epoch(&mut net, &mut train_rng);
    }
    net
}

/// The clean baseline every E9–E13 sweep point starts from: the
/// [`generate_data`] scenes split four fifths train to one fifth test,
/// and a [`cnn_config`] CNN placed on [`deployment`] by
/// `balanced_correspondence`, trained losslessly and frozen as JSON.
pub(crate) struct Baseline {
    /// The training split.
    pub train: Vec<(Tensor, usize)>,
    /// The held-out split, which is also every tenant's request pool.
    pub test: Vec<(Tensor, usize)>,
    /// The CNN's unit graph.
    pub graph: UnitGraph,
    /// The placement the model was trained on.
    pub assignment: Assignment,
    /// Accuracy of the trained model on `test`, evaluated directly.
    pub clean_accuracy: f64,
    /// The trained model's validated JSON snapshot.
    json: String,
}

impl Baseline {
    /// Generates `samples_per_class` scenes per class and trains the
    /// baseline for `epochs` epochs, all derived from `seed`.
    pub(crate) fn train(samples_per_class: usize, epochs: usize, seed: u64) -> Self {
        let mut data_rng = SeedRng::with_stream(seed, 0xDA7A);
        let data = generate_data(samples_per_class, &mut data_rng);
        let (train, test) = data.split_at(data.len() * 4 / 5);
        let graph = cnn_config().unit_graph().expect("valid config");
        let assignment = Assignment::balanced_correspondence(&graph, &deployment());
        let mut model = train_fresh(assignment.clone(), seed, epochs, |net, rng| {
            net.train_epoch(train, 0.08, 8, rng);
        });
        let clean_accuracy = model.accuracy(test);
        Self {
            train: train.to_vec(),
            test: test.to_vec(),
            graph,
            assignment,
            clean_accuracy,
            json: model.to_json().expect("serializable model"),
        }
    }

    /// A fresh copy of the trained model, restored from its snapshot.
    pub(crate) fn restore(&self) -> DistributedCnn {
        DistributedCnn::from_json(&self.json).expect("validated snapshot")
    }

    /// The [`tenant_specs`] mix, each tenant serving its own restored
    /// copy of the model over the test pool.
    pub(crate) fn tenants(&self, load_scale: f64, mode: QuantMode) -> Vec<Tenant> {
        tenant_specs(load_scale, mode)
            .into_iter()
            .map(|ts| Tenant::new(ts, self.restore(), self.test.clone()).expect("non-empty pool"))
            .collect()
    }
}
