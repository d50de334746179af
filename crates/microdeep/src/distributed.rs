//! Distributed training semantics.
//!
//! MicroDeep executes the canonical CNN *in place* on the mesh. Dense
//! units own their weight rows, so their updates are local and exact. The
//! convolution is different: its kernel is shared by every spatial unit,
//! but those units live on many nodes — keeping one shared kernel would
//! require gradient aggregation traffic every step. MicroDeep instead
//! gives each hosting node a *replica* of the kernel and lets it update
//! the replica **independently** from the gradients of its own units only
//! (paper §IV.C: "Weights of units are updated independently by each
//! sensor node to avoid communication overhead, sacrificing some
//! accuracy").
//!
//! [`DistributedCnn`] implements both semantics:
//!
//! * [`WeightUpdate::Synchronized`] — replica gradients are summed and a
//!   common update applied everywhere. The forward at initialisation
//!   equals the centralized baseline bit for bit. Training follows
//!   centralized SGD up to float rounding, because the two order the
//!   update's float operations differently: on the lounge CNN, 320
//!   samples over 3 epochs, logits stayed within 2e-6 of centralized SGD
//!   and epoch losses agreed to about 7 significant digits, under the
//!   centralized and the balanced placement alike. Used to verify the
//!   machinery and as the ablation's upper bound;
//! * [`WeightUpdate::Independent`] — each replica applies only its own
//!   accumulated gradient; replicas drift apart and accuracy typically
//!   lands a couple of points below the baseline, with zero
//!   weight-synchronization traffic.

use crate::assignment::Assignment;
use crate::config::CnnConfig;
use crate::exec::{self, Domain, Grads, Perfect, Transport, Workspace};
use serde::{de_field, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_nn::loss::cross_entropy;
use zeiot_nn::tensor::Tensor;
use zeiot_nn::topology::LayerSpec;
use zeiot_obs::{Label, Recorder};

/// How convolution kernel replicas are updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightUpdate {
    /// Sum replica gradients, apply one common update: centralized SGD up
    /// to float rounding.
    Synchronized,
    /// Each node updates its kernel replica from local gradients only —
    /// replicas drift apart.
    Independent,
    /// Every conv unit owns its kernel (locally-connected layer): weight
    /// sharing is dropped so each unit's update is complete with zero
    /// communication — the most faithful reading of the paper's "weights
    /// of units are updated independently by each sensor node".
    PerUnit,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ConvReplica {
    pub(crate) weights: Tensor, // [oc, ic, k, k]
    pub(crate) bias: Tensor,    // [oc]
    pub(crate) grad_weights: Tensor,
    pub(crate) grad_bias: Tensor,
    /// Number of conv units hosted by this replica's node.
    pub(crate) units: usize,
}

/// Weights and biases with their gradient accumulators: a dense layer
/// (`[out, in]`, `[out]`), or the per-unit conv kernels of a
/// [`WeightUpdate::PerUnit`] model (`[units, in_channels, k, k]`,
/// `[units]`, one kernel per conv output unit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Params {
    pub(crate) weights: Tensor,
    pub(crate) bias: Tensor,
    pub(crate) grad_weights: Tensor,
    pub(crate) grad_bias: Tensor,
}

impl Params {
    fn new(in_len: usize, out_len: usize, rng: &mut SeedRng) -> Self {
        let scale = (6.0 / in_len as f32).sqrt();
        Self {
            weights: Tensor::uniform(vec![out_len, in_len], scale, rng),
            bias: Tensor::zeros(vec![out_len]),
            grad_weights: Tensor::zeros(vec![out_len, in_len]),
            grad_bias: Tensor::zeros(vec![out_len]),
        }
    }

    pub(crate) fn apply(&mut self, lr: f32) {
        self.weights.add_scaled(&self.grad_weights, -lr);
        self.bias.add_scaled(&self.grad_bias, -lr);
        self.grad_weights.fill_zero();
        self.grad_bias.fill_zero();
    }
}

/// The canonical CNN executed with per-node convolution replicas.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, WeightUpdate};
/// use zeiot_net::Topology;
/// use zeiot_core::rng::SeedRng;
/// use zeiot_nn::tensor::Tensor;
///
/// let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2)?;
/// let topo = Topology::grid(3, 3, 2.0, 3.0)?;
/// let graph = config.unit_graph()?;
/// let assignment = Assignment::balanced_correspondence(&graph, &topo);
/// let mut rng = SeedRng::new(1);
/// let mut net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
/// let logits = net.forward(&Tensor::zeros(vec![1, 8, 8]));
/// assert_eq!(logits.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct DistributedCnn {
    pub(crate) config: CnnConfig,
    pub(crate) update: WeightUpdate,
    /// The full placement (inputs pinned to sensors, units to hosts) —
    /// what the lossy execution path routes messages against.
    pub(crate) assignment: Assignment,
    /// Host node of each conv output unit (layer-1 unit order).
    pub(crate) conv_unit_host: Vec<NodeId>,
    pub(crate) replicas: BTreeMap<NodeId, ConvReplica>,
    pub(crate) per_unit: Option<Params>,
    pub(crate) dense1: Params,
    pub(crate) dense2: Params,
    // Forward caches.
    pub(crate) last_input: Option<Tensor>,
    pub(crate) conv_pre_relu: Vec<f32>,
    pub(crate) pool_out: Vec<f32>,
    pub(crate) pool_argmax: Vec<usize>,
    pub(crate) hidden_pre_relu: Vec<f32>,
    pub(crate) hidden_out: Vec<f32>,
    // Buffers the passes reuse, never serialized: `to_json` stays the
    // model's alone.
    #[serde(skip)]
    pub(crate) work: Workspace<f32>,
    #[serde(skip)]
    pub(crate) grads: Grads,
}

/// Every deserialization path — [`DistributedCnn::from_json`] or a
/// direct `serde_json::from_str` — validates the model, so an
/// inconsistent one never reaches the kernels.
impl Deserialize for DistributedCnn {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let model = Self {
            config: de_field(value, "config")?,
            update: de_field(value, "update")?,
            assignment: de_field(value, "assignment")?,
            conv_unit_host: de_field(value, "conv_unit_host")?,
            replicas: de_field(value, "replicas")?,
            per_unit: de_field(value, "per_unit")?,
            dense1: de_field(value, "dense1")?,
            dense2: de_field(value, "dense2")?,
            last_input: de_field(value, "last_input")?,
            conv_pre_relu: de_field(value, "conv_pre_relu")?,
            pool_out: de_field(value, "pool_out")?,
            pool_argmax: de_field(value, "pool_argmax")?,
            hidden_pre_relu: de_field(value, "hidden_pre_relu")?,
            hidden_out: de_field(value, "hidden_out")?,
            work: Workspace::default(),
            grads: Grads::default(),
        };
        model.validate().map_err(serde::Error::custom)?;
        Ok(model)
    }
}

impl DistributedCnn {
    /// Builds a distributed CNN over `assignment`. All replicas start
    /// from one common initialization (the initial broadcast every
    /// distributed learner performs).
    ///
    /// # Panics
    ///
    /// Panics if the config's unit graph cannot be built, or the
    /// assignment's layer count disagrees with it.
    pub fn new(
        config: CnnConfig,
        assignment: Assignment,
        update: WeightUpdate,
        rng: &mut SeedRng,
    ) -> Self {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        let graph = config.unit_graph().expect("validated config");
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert_eq!(
            assignment.layer_count(),
            graph.layer_count(),
            "assignment does not match config"
        );
        let conv_units = graph.units_in_layer(1);
        let conv_unit_host: Vec<NodeId> =
            (0..conv_units).map(|u| assignment.host_of(1, u)).collect();

        // Common initial parameters.
        let (oc, ic, k) = (
            config.conv_channels(),
            config.in_channels(),
            config.kernel(),
        );
        let fan_in = (ic * k * k) as f32;
        let init_w = Tensor::uniform(vec![oc, ic, k, k], (6.0 / fan_in).sqrt(), rng);
        let init_b = Tensor::zeros(vec![oc]);

        let mut replicas = BTreeMap::new();
        for host in &conv_unit_host {
            replicas
                .entry(*host)
                .or_insert_with(|| ConvReplica {
                    weights: init_w.clone(),
                    bias: init_b.clone(),
                    grad_weights: Tensor::zeros(vec![oc, ic, k, k]),
                    grad_bias: Tensor::zeros(vec![oc]),
                    units: 0,
                })
                .units += 1;
        }

        // Per-unit kernels start from the shared initialization of their
        // output channel (the one-time broadcast every node receives).
        let per_unit = (update == WeightUpdate::PerUnit).then(|| {
            let per_ch = conv_units / oc;
            let mut weights = Tensor::zeros(vec![conv_units, ic, k, k]);
            let kernel_len = ic * k * k;
            let channels = weights.data_mut().chunks_exact_mut(per_ch * kernel_len);
            for (block, src) in channels.zip(init_w.data().chunks_exact(kernel_len)) {
                for dst in block.chunks_exact_mut(kernel_len) {
                    dst.copy_from_slice(src);
                }
            }
            Params {
                weights,
                bias: Tensor::zeros(vec![conv_units]),
                grad_weights: Tensor::zeros(vec![conv_units, ic, k, k]),
                grad_bias: Tensor::zeros(vec![conv_units]),
            }
        });

        let dense1 = Params::new(config.feature_len(), config.hidden(), rng);
        let dense2 = Params::new(config.hidden(), config.classes(), rng);
        Self {
            config,
            update,
            assignment,
            conv_unit_host,
            replicas,
            per_unit,
            dense1,
            dense2,
            last_input: None,
            conv_pre_relu: Vec::new(),
            pool_out: Vec::new(),
            pool_argmax: Vec::new(),
            hidden_pre_relu: Vec::new(),
            hidden_out: Vec::new(),
            work: Workspace::default(),
            grads: Grads::default(),
        }
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Serializes the full model (placement + every node's weights) to
    /// JSON — what a gateway would persist so a re-deployed mesh can
    /// resume without retraining.
    ///
    /// # Errors
    ///
    /// Returns an error string if serialization fails (it cannot for
    /// well-formed models).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Restores a model from [`DistributedCnn::to_json`] output.
    ///
    /// Deserialization validates the model against its own config's
    /// unit graph: a persisted placement or replica set that no longer
    /// matches the config (a config edit, a truncated file, a
    /// hand-patched deployment) is rejected here instead of panicking
    /// deep inside [`DistributedCnn::forward`].
    ///
    /// # Errors
    ///
    /// Returns an error string on malformed input or on a model whose
    /// placement, replicas or parameter shapes are inconsistent with its
    /// config.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Checks internal consistency: the placement and every parameter
    /// table match the config ([`check_layout`]), per-unit kernels are
    /// present exactly in `PerUnit` mode, and gradient tables match
    /// their parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        check_layout(&self.parts())?;
        if (self.update == WeightUpdate::PerUnit) != self.per_unit.is_some() {
            return Err(format!(
                "per-unit kernels present: {}, update mode: {:?}",
                self.per_unit.is_some(),
                self.update
            ));
        }
        Ok(())
    }

    /// The placement this network executes over.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Mean pairwise L2 distance between replica kernels — 0 under
    /// synchronized updates, growing under independent updates. In
    /// PerUnit mode, the mean L2 distance of each unit's kernel to its
    /// output channel's mean kernel (how far weight sharing has been
    /// abandoned).
    pub fn replica_divergence(&self) -> f64 {
        if let Some(pk) = &self.per_unit {
            let units = pk.bias.len();
            let per_ch = units / self.config.conv_channels();
            let kernel_len = pk.weights.len() / units;
            let mut total = 0.0f64;
            for channel in pk.weights.data().chunks_exact(per_ch * kernel_len) {
                let mut mean = vec![0.0f64; kernel_len];
                for w in channel.chunks_exact(kernel_len) {
                    for (m, &x) in mean.iter_mut().zip(w) {
                        *m += x as f64 / per_ch as f64;
                    }
                }
                for w in channel.chunks_exact(kernel_len) {
                    let d: f64 = w
                        .iter()
                        .zip(&mean)
                        .map(|(&x, &m)| (x as f64 - m).powi(2))
                        .sum();
                    total += d.sqrt();
                }
            }
            return total / units as f64;
        }
        let replicas: Vec<&ConvReplica> = self.replicas.values().collect();
        if replicas.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut pairs = 0usize;
        for (i, a) in replicas.iter().enumerate() {
            for b in replicas.iter().skip(i + 1) {
                let d: f32 = a
                    .weights
                    .data()
                    .iter()
                    .zip(b.weights.data())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                total += (d as f64).sqrt();
                pairs += 1;
            }
        }
        total / pairs as f64
    }

    /// Forward pass; numerically identical to the centralized baseline
    /// whenever all replicas are equal.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        // zeiot-audit: allow(p1) -- the Perfect transport delivers every value, so the pass cannot abort
        exec::forward(self, input, &mut Perfect).expect("a perfect pass completes")
    }

    /// Predicted class for an input.
    pub fn predict(&mut self, input: &Tensor) -> usize {
        self.forward(input).argmax()
    }

    /// Backward pass from a loss gradient on the logits, accumulating
    /// per-replica convolution gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DistributedCnn::forward`].
    pub fn backward(&mut self, grad_logits: &Tensor) {
        exec::backward(self, grad_logits, &mut Perfect);
    }

    /// Applies accumulated gradients according to the update mode.
    pub fn apply_gradients(&mut self, lr: f32) {
        // Every mode changes weights the forward reads: the next forward
        // repacks them.
        self.work.invalidate_pack();
        if let Some(pk) = &mut self.per_unit {
            // Locally-connected: each unit's gradient is complete for its
            // own kernel, but carries ~1/positions of the gradient mass a
            // shared kernel would accumulate; compensate so the units
            // learn at the shared-kernel pace.
            let positions = (self.conv_unit_host.len() / self.config.conv_channels()) as f32;
            pk.apply(lr * positions);
        } else if self.update == WeightUpdate::Synchronized {
            // Sum replica gradients (each unit contributed to exactly
            // one replica, so the sum is the full-batch gradient) and
            // apply the common update to every replica.
            let c = &self.config;
            let (total_w, total_b) = self.grads.sums.get_or_insert_with(|| {
                let (oc, ic, k) = (c.conv_channels(), c.in_channels(), c.kernel());
                (Tensor::zeros(vec![oc, ic, k, k]), Tensor::zeros(vec![oc]))
            });
            total_w.fill_zero();
            total_b.fill_zero();
            for rep in self.replicas.values() {
                total_w.add_scaled(&rep.grad_weights, 1.0);
                total_b.add_scaled(&rep.grad_bias, 1.0);
            }
            for rep in self.replicas.values_mut() {
                rep.weights.add_scaled(total_w, -lr);
                rep.bias.add_scaled(total_b, -lr);
                rep.grad_weights.fill_zero();
                rep.grad_bias.fill_zero();
            }
        } else {
            // Independent (a validated PerUnit model always carries its
            // per-unit kernels, handled above).
            for rep in self.replicas.values_mut() {
                // Mild compensation for seeing only a fraction of the
                // units' gradients: scale by the square root of the
                // hosting ratio. Full compensation (the raw ratio)
                // makes sparse replicas take huge noisy steps and
                // destroys accuracy; none makes them learn too
                // slowly.
                let boost = if rep.units > 0 {
                    (self.conv_unit_host.len() as f32 / rep.units as f32).sqrt()
                } else {
                    0.0
                };
                rep.weights.add_scaled(&rep.grad_weights, -lr * boost);
                rep.bias.add_scaled(&rep.grad_bias, -lr * boost);
                rep.grad_weights.fill_zero();
                rep.grad_bias.fill_zero();
            }
        }
        self.dense1.apply(lr);
        self.dense2.apply(lr);
    }

    /// Trains one epoch; returns the mean loss.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_size` is zero.
    pub fn train_epoch(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
    ) -> f32 {
        let (total, completed) = self.epoch(data, lr, batch_size, rng, &mut Perfect, None);
        total / completed as f32
    }

    /// Like [`DistributedCnn::train_epoch`], additionally recording
    /// per-step observability metrics: after every batch update the
    /// current replica divergence is written to the
    /// `microdeep.replica_drift` gauge and the
    /// `microdeep.replica_drift_step` histogram, and the batch's mean
    /// loss to `microdeep.batch_loss`. The trained weights are bit-for-bit
    /// identical to an unobserved epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_size` is zero.
    pub fn train_epoch_observed(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
        recorder: &mut Recorder,
    ) -> f32 {
        let (total, completed) =
            self.epoch(data, lr, batch_size, rng, &mut Perfect, Some(recorder));
        total / completed as f32
    }

    /// The one training-epoch loop: shuffled mini-batches, forward,
    /// cross-entropy and backward per sample over `t`, one update per
    /// batch of completed samples. Samples whose forward aborts are
    /// skipped. Returns the summed loss and the completed sample count.
    pub(crate) fn epoch<T: Transport>(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
        t: &mut T,
        mut observe: Option<&mut Recorder>,
    ) -> (f32, usize) {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert!(!data.is_empty() && batch_size > 0, "invalid training call");
        let mut order: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut order);
        let mut total = 0.0;
        let mut completed = 0usize;
        for batch in order.chunks(batch_size) {
            // Per-batch sub-accumulator: the loss sum's addition grouping
            // is part of the reported number.
            let mut batch_loss = 0.0;
            let mut batch_completed = 0usize;
            for (x, target) in batch.iter().filter_map(|&i| data.get(i)) {
                let logits = exec::forward(self, x, t);
                if let Some(logits) = &logits {
                    let (loss, grad) = cross_entropy(logits, *target);
                    batch_loss += loss;
                    exec::backward(self, &grad, t);
                    batch_completed += 1;
                }
                t.end_sample(logits.is_some());
            }
            total += batch_loss;
            completed += batch_completed;
            if batch_completed == 0 {
                continue;
            }
            self.apply_gradients(lr / batch_completed as f32);
            if let Some(rec) = observe.as_deref_mut() {
                let drift = self.replica_divergence();
                rec.set_gauge("microdeep.replica_drift", Label::Global, drift);
                rec.observe("microdeep.replica_drift_step", Label::Global, drift);
                rec.observe(
                    "microdeep.batch_loss",
                    Label::Global,
                    f64::from(batch_loss / batch_completed as f32),
                );
            }
        }
        (total, completed)
    }

    /// Accuracy over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn accuracy(&mut self, data: &[(Tensor, usize)]) -> f64 {
        exec::accuracy(self, data, &mut Perfect)
    }
}

impl Domain for DistributedCnn {
    type W = f32;
    type Acc = f32;
    type Replica = ConvReplica;
    type Table = Params;
    const HOPS: [&'static str; 4] = ["hop.conv", "hop.pool", "hop.hidden", "hop.logit"];
    const FLOOR: f32 = f32::NEG_INFINITY;
    const ARGMAX: bool = true;

    fn from_wire(v: f32) -> f32 {
        v
    }

    fn parts(&self) -> Parts<'_, ConvReplica, Params> {
        Parts {
            config: &self.config,
            assignment: &self.assignment,
            conv_unit_host: &self.conv_unit_host,
            replicas: &self.replicas,
            per_unit: self.per_unit.as_ref(),
            dense: [&self.dense1, &self.dense2],
        }
    }

    fn work(&mut self) -> &mut Workspace<f32> {
        &mut self.work
    }

    fn admit<'a>(&mut self, input: &'a Tensor, _: &'a mut Vec<f32>) -> &'a [f32] {
        exec::check_input(&self.config, input);
        input.data()
    }

    fn zero() -> f32 {
        std::iter::empty::<f32>().sum()
    }

    fn activate(&mut self, layer: usize, acc: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(acc.iter().map(|&v| v.max(0.0)));
        if layer == 1 {
            exec::overwrite(&mut self.conv_pre_relu, acc);
        } else {
            exec::overwrite(&mut self.hidden_pre_relu, acc);
            exec::overwrite(&mut self.hidden_out, out);
        }
    }

    fn pool_done(&mut self, pooled: &[f32], argmax: &[usize]) {
        exec::overwrite(&mut self.pool_out, pooled);
        exec::overwrite(&mut self.pool_argmax, argmax);
    }

    fn finish(&mut self, input: &Tensor, logits: &[f32]) -> Tensor {
        match &mut self.last_input {
            Some(last) if last.shape() == input.shape() => {
                last.data_mut().copy_from_slice(input.data());
            }
            last => *last = Some(input.clone()),
        }
        exec::logits_tensor(logits.to_vec())
    }
}

/// A weights-and-biases table: its flat row-major contents, and its
/// shape as [`check_layout`] sees it.
pub(crate) trait Layout {
    /// Weight elements, which the forward reads as their f32 images.
    type W: Copy + Into<f32>;
    type B: Copy;

    fn weights(&self) -> &[Self::W];
    fn bias(&self) -> &[Self::B];

    /// Whether the weights have shape `weights` and the biases `bias`
    /// (flat integer tables compare element counts), gradient
    /// accumulators included.
    fn fits(&self, weights: &[usize], bias: &[usize]) -> bool;

    /// The conv units a replica claims to host, when the model counts
    /// them.
    fn units(&self) -> Option<usize> {
        None
    }
}

/// Whether weights, gradient weights, biases and gradient biases have
/// shapes `weights`, `weights`, `bias` and `bias`.
fn tensors_fit(tensors: [&Tensor; 4], weights: &[usize], bias: &[usize]) -> bool {
    let shapes = [weights, weights, bias, bias];
    tensors.iter().zip(shapes).all(|(t, s)| t.shape() == s)
}

impl Layout for Params {
    type W = f32;
    type B = f32;

    fn weights(&self) -> &[f32] {
        self.weights.data()
    }

    fn bias(&self) -> &[f32] {
        self.bias.data()
    }

    fn fits(&self, weights: &[usize], bias: &[usize]) -> bool {
        let tensors = [
            &self.weights,
            &self.grad_weights,
            &self.bias,
            &self.grad_bias,
        ];
        tensors_fit(tensors, weights, bias)
    }
}

impl Layout for ConvReplica {
    type W = f32;
    type B = f32;

    fn weights(&self) -> &[f32] {
        self.weights.data()
    }

    fn bias(&self) -> &[f32] {
        self.bias.data()
    }

    fn fits(&self, weights: &[usize], bias: &[usize]) -> bool {
        let tensors = [
            &self.weights,
            &self.grad_weights,
            &self.bias,
            &self.grad_bias,
        ];
        tensors_fit(tensors, weights, bias)
    }

    fn units(&self) -> Option<usize> {
        Some(self.units)
    }
}

/// A model's placement and parameter tables, borrowed: what
/// [`check_layout`] validates and the execution kernel reads.
pub(crate) struct Parts<'a, R, P> {
    pub(crate) config: &'a CnnConfig,
    pub(crate) assignment: &'a Assignment,
    /// Host node of each conv output unit.
    pub(crate) conv_unit_host: &'a [NodeId],
    /// One conv kernel replica per hosting node.
    pub(crate) replicas: &'a BTreeMap<NodeId, R>,
    /// Every conv unit's own kernel, in `PerUnit` mode.
    pub(crate) per_unit: Option<&'a P>,
    /// Dense layers 1 and 2.
    pub(crate) dense: [&'a P; 2],
}

/// Checks a model against its config's unit graph: the assignment has
/// the graph's layer sizes, the conv host table agrees with it, exactly
/// the hosting nodes keep a replica, and every parameter table has the
/// shape the config dictates: the conv replicas, the optional per-unit
/// kernels, and dense layers 1 and 2. A persisted model that fails here
/// would otherwise panic deep inside a forward pass.
pub(crate) fn check_layout<R: Layout, P: Layout>(parts: &Parts<'_, R, P>) -> Result<(), String> {
    let Parts {
        config: c,
        assignment,
        conv_unit_host,
        replicas,
        per_unit,
        dense: [dense1, dense2],
    } = *parts;
    let specs = c.layer_specs();
    let inputs = specs.first().map_or(0, LayerSpec::input_len);
    let layers: Vec<usize> = specs.iter().map(LayerSpec::output_len).collect();
    if assignment.layer_count() != layers.len() + 1 {
        return Err(format!(
            "assignment has {} layers, config's unit graph has {}",
            assignment.layer_count(),
            layers.len() + 1
        ));
    }
    if assignment.input_count() != inputs {
        return Err(format!(
            "assignment pins {} input units, config has {inputs}",
            assignment.input_count()
        ));
    }
    let sizes = assignment.layer_sizes();
    for (i, (&size, &expected)) in sizes.iter().zip(&layers).enumerate() {
        if size != expected {
            return Err(format!(
                "assignment layer {} has {size} units, config needs {expected}",
                i + 1
            ));
        }
    }
    let conv_units = layers.first().copied().unwrap_or(0);
    if conv_unit_host.len() != conv_units {
        return Err(format!(
            "conv host table has {} entries, config has {conv_units} conv units",
            conv_unit_host.len()
        ));
    }
    let mut hosted: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (u, &host) in conv_unit_host.iter().enumerate() {
        if host != assignment.host_of(1, u) {
            return Err(format!(
                "conv unit {u} hosted on {host:?} but assigned to {:?}",
                assignment.host_of(1, u)
            ));
        }
        // The execution kernel looks replicas up by node index.
        if host.index() >= assignment.node_count() {
            return Err(format!(
                "conv unit {u} hosted on {host:?}, outside the assignment's {} nodes",
                assignment.node_count()
            ));
        }
        *hosted.entry(host).or_default() += 1;
    }
    if !replicas.keys().eq(hosted.keys()) {
        return Err(format!(
            "replica nodes {:?} disagree with hosting nodes {:?}",
            replicas.keys().collect::<Vec<_>>(),
            hosted.keys().collect::<Vec<_>>()
        ));
    }
    let (oc, ic, k) = (c.conv_channels(), c.in_channels(), c.kernel());
    for (node, rep) in replicas {
        let hosts = hosted.get(node).copied().unwrap_or(0);
        if let Some(units) = rep.units().filter(|&units| units != hosts) {
            return Err(format!(
                "replica on {node:?} claims {units} units, hosts {hosts}"
            ));
        }
        if !rep.fits(&[oc, ic, k, k], &[oc]) {
            return Err(format!("replica on {node:?} has wrong kernel shape"));
        }
    }
    if per_unit.is_some_and(|pk| !pk.fits(&[conv_units, ic, k, k], &[conv_units])) {
        return Err("per-unit kernel table has wrong shape".to_string());
    }
    if !dense1.fits(&[c.hidden(), c.feature_len()], &[c.hidden()]) {
        return Err("dense1 parameters have wrong shape".to_string());
    }
    if !dense2.fits(&[c.classes(), c.hidden()], &[c.classes()]) {
        return Err("dense2 parameters have wrong shape".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_net::Topology;

    fn setup(update: WeightUpdate, seed: u64) -> (DistributedCnn, Vec<(Tensor, usize)>) {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut rng = SeedRng::new(seed);
        let net = DistributedCnn::new(config, assignment, update, &mut rng);

        // Spatial two-class task: bright top-left vs bright bottom-right.
        let mut data = Vec::new();
        let mut drng = SeedRng::new(99);
        for _ in 0..30 {
            for class in 0..2usize {
                let mut img = Tensor::zeros(vec![1, 8, 8]);
                for y in 0..4 {
                    for x in 0..4 {
                        let (yy, xx) = if class == 0 { (y, x) } else { (y + 4, x + 4) };
                        img.set(&[0, yy, xx], 1.0 + drng.normal_with(0.0, 0.1) as f32);
                    }
                }
                data.push((img, class));
            }
        }
        (net, data)
    }

    #[test]
    fn synchronized_matches_centralized_forward() {
        // With equal replicas, the distributed forward equals a
        // centralized conv with the same weights — verified by checking
        // determinism across update modes before any training.
        let (mut a, data) = setup(WeightUpdate::Synchronized, 7);
        let (mut b, _) = setup(WeightUpdate::Independent, 7);
        for (x, _) in data.iter().take(5) {
            assert_eq!(a.forward(x).data(), b.forward(x).data());
        }
    }

    #[test]
    fn synchronized_replicas_never_diverge() {
        let (mut net, data) = setup(WeightUpdate::Synchronized, 8);
        let mut rng = SeedRng::new(1);
        for _ in 0..3 {
            net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        assert!(net.replica_divergence() < 1e-6);
    }

    #[test]
    fn independent_replicas_diverge() {
        let (mut net, data) = setup(WeightUpdate::Independent, 8);
        let mut rng = SeedRng::new(1);
        for _ in 0..3 {
            net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        assert!(
            net.replica_divergence() > 1e-4,
            "{}",
            net.replica_divergence()
        );
    }

    #[test]
    fn both_modes_learn_the_task() {
        for update in [WeightUpdate::Synchronized, WeightUpdate::Independent] {
            let (mut net, data) = setup(update, 9);
            let mut rng = SeedRng::new(2);
            for _ in 0..20 {
                net.train_epoch(&data, 0.08, 8, &mut rng);
            }
            let acc = net.accuracy(&data);
            assert!(acc > 0.85, "{update:?}: acc={acc}");
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let (mut net, data) = setup(WeightUpdate::Independent, 10);
        let mut rng = SeedRng::new(3);
        let first = net.train_epoch(&data, 0.05, 8, &mut rng);
        let mut last = first;
        for _ in 0..10 {
            last = net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        assert!(last < first, "first={first} last={last}");
    }

    #[test]
    fn serde_round_trip_preserves_the_model() {
        let (mut net, data) = setup(WeightUpdate::PerUnit, 21);
        let mut rng = SeedRng::new(9);
        for _ in 0..3 {
            net.train_epoch(&data, 0.05, 8, &mut rng);
        }
        let json = net.to_json().unwrap();
        let mut restored = DistributedCnn::from_json(&json).unwrap();
        for (x, _) in data.iter().take(10) {
            assert_eq!(net.forward(x).data(), restored.forward(x).data());
        }
        assert!(DistributedCnn::from_json("not json").is_err());
    }

    #[test]
    fn from_json_rejects_tampered_models() {
        let (net, _) = setup(WeightUpdate::Independent, 22);
        let json = net.to_json().unwrap();
        assert!(DistributedCnn::from_json(&json).is_ok());

        // Textually tamper the persisted model the way a config edit or a
        // hand-patched deployment would, and require a clean error
        // instead of the pre-validation behavior (a panic deep inside
        // forward()) — from `from_json` and from a direct
        // `serde_json::from_str` alike.
        let tamper = |from: &str, to: &str| -> String {
            let out = json.replacen(from, to, 1);
            assert_ne!(out, json, "tamper target `{from}` missing from JSON");
            out
        };
        let rejects = |tampered: String| -> String {
            assert!(serde_json::from_str::<DistributedCnn>(&tampered).is_err());
            DistributedCnn::from_json(&tampered).unwrap_err()
        };

        // Config no longer matching the persisted placement: the model
        // was built for 8×8 inputs / 2 classes.
        rejects(tamper("\"in_height\":8", "\"in_height\":10"));
        rejects(tamper("\"classes\":2", "\"classes\":3"));

        // A replica claiming to host the wrong number of conv units.
        let err = rejects(tamper("\"units\":8}", "\"units\":9}"));
        assert!(err.contains("replica"), "unexpected error: {err}");

        // A placement entry pointing a conv unit at a node other than
        // the one the assignment records.
        let first_host = json
            .split("\"conv_unit_host\":[")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("conv_unit_host present");
        let other = if first_host == "3" { "4" } else { "3" };
        rejects(tamper(
            &format!("\"conv_unit_host\":[{first_host},"),
            &format!("\"conv_unit_host\":[{other},"),
        ));

        // A replica weight tensor reshaped away from [oc, ic, k, k].
        rejects(tamper("\"shape\":[2,1,3,3]", "\"shape\":[2,1,9]"));

        // A mesh that shrank under the placement: conv units hosted on
        // nodes the assignment no longer has.
        let err = rejects(tamper("\"node_count\":9", "\"node_count\":1"));
        assert!(err.contains("outside"), "unexpected error: {err}");
    }

    #[test]
    fn observed_epoch_trains_identically_and_records_drift() {
        let (mut plain, data) = setup(WeightUpdate::Independent, 30);
        let (mut observed, _) = setup(WeightUpdate::Independent, 30);
        let mut rng_a = SeedRng::new(4);
        let mut rng_b = SeedRng::new(4);
        let mut rec = Recorder::new();
        let loss_a = plain.train_epoch(&data, 0.05, 8, &mut rng_a);
        let loss_b = observed.train_epoch_observed(&data, 0.05, 8, &mut rng_b, &mut rec);
        assert_eq!(loss_a, loss_b);
        for (x, _) in data.iter().take(5) {
            assert_eq!(plain.forward(x).data(), observed.forward(x).data());
        }
        let drift = rec
            .gauge("microdeep.replica_drift", &Label::Global)
            .unwrap();
        assert_eq!(drift, observed.replica_divergence());
        let steps = rec
            .histogram_ref("microdeep.replica_drift_step", &Label::Global)
            .unwrap();
        assert_eq!(steps.len(), data.len().div_ceil(8));
        assert!(rec
            .histogram_ref("microdeep.batch_loss", &Label::Global)
            .is_some());
    }

    #[test]
    #[should_panic]
    fn backward_before_forward_panics() {
        let (mut net, _) = setup(WeightUpdate::Independent, 12);
        let g = Tensor::zeros(vec![2]);
        net.backward(&g);
    }
}
