//! Quantized distributed execution.
//!
//! µW-class backscatter nodes execute integer arithmetic (PAPERS.md,
//! "Energy-Aware Deep Learning on Resource-Constrained Hardware"), so
//! the deployed forward path must not be the f32 training path. This
//! module freezes a trained [`DistributedCnn`] into a [`QuantizedCnn`]:
//! symmetric per-layer i8 weights, per-layer activation scales selected
//! from calibration activations at deploy time, and a forward pass whose
//! every sum is an exact integer: `Σ w · x` over i8 weights and
//! activations, accumulated in i32 (the arithmetic of
//! [`zeiot_nn::quant`]).
//!
//! **Exact integer sums in f32 lanes.** The forward keeps each i8 weight
//! and activation as its exact f32 image and folds `w · x` in the f32
//! lanes the f32 model uses, which the compiler vectorizes on the build's
//! baseline, where i8×i8→i32 products compile to scalar instructions.
//! Every product and partial sum is an integer, and a lane sums at most
//! 256 terms before it settles: 256 · 127 · 128 < 2^22, so each partial
//! sum is an exact f32 integer. The lane settles by adding the integer
//! `(s + 1.5 · 2^23).to_bits() − 0x4B40_0000` into its i32 accumulator
//! ([`zeiot_nn::quant::exact_int`]): 1.5 · 2^23 + s is exact, and its
//! bits are `0x4B40_0000 + s`.
//!
//! **Why this strengthens the determinism contract.** The f32 lossy path
//! keeps its guarantees by replicating one canonical accumulation order
//! everywhere. The quantized path needs no such discipline: each span's
//! f32 sum is exact, and `i32` addition is associative and commutative,
//! so any blocking, any loop order, and any distribution of partial sums
//! across nodes produces the same bits. The audit's d3
//! no-float-order-hazard rule is satisfied *by construction* — no f32
//! sum here ever rounds, so there is no rounding to reorder.
//!
//! **Fabric transport.** A quantized activation is one signed byte. The
//! lossy path ships it through the existing [`LossyRuntime`] as its
//! exact `f32` image (every i8 is exactly representable), so all fault
//! machinery — drops, retransmission, corruption, degrade substitution —
//! applies unchanged. When the plan can corrupt a payload, the receiver
//! re-quantizes deterministically (round half away from zero, clamp to
//! ±127, NaN to 0) before the value ever reaches an accumulator; without
//! corruption every value that lands is already an image within ±127 (a
//! producer's value, a held one, or zero-fill's 0), so it is left as is.
//!
//! **One kernel.** The i8 passes run the same forward loop nest as the
//! f32 ones; this module supplies only the integer number domain (i8
//! weights as f32 images, i32 accumulators, requantization between
//! layers, `hop.q*` span names). With a lossless plan the lossy
//! quantized pass is therefore **bit-identical** to
//! [`QuantizedCnn::forward_quantized`] by construction.

use crate::distributed::{check_layout, DistributedCnn, Layout, Parts};
use crate::exec::{self, Domain, Lossy, Perfect, Workspace};
use crate::lossy::LossyRuntime;
use crate::{Assignment, CnnConfig};
use serde::{de_field, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use zeiot_core::id::NodeId;
use zeiot_nn::quant::{
    quantize_into, quantize_slice, round_half_away, scale_for, Calibration, Requant, MAX_SHIFT,
};
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::SpanScope;
use zeiot_obs::{Label, Recorder};

/// A frozen parameter table — one node's conv replica (`[oc, ic, k,
/// k]`, `[oc]`), the per-unit kernels of a
/// [`crate::WeightUpdate::PerUnit`] model (`[units, ic, k, k]`,
/// `[units]`), or a dense layer (`[out, in]`, `[out]`): i8 weights at
/// the layer's common weight scale, biases pre-scaled into the i32
/// accumulator domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct QTable {
    weights: Vec<i8>,
    bias: Vec<i32>,
}

impl QTable {
    /// Quantizes `weights` at scale `s_w` and `bias` into the
    /// accumulator domain of scale `acc`.
    fn freeze(weights: &Tensor, bias: &Tensor, s_w: f32, acc: f64) -> Self {
        let quant_bias = |&b: &f32| (b as f64 / acc).round() as i32;
        Self {
            weights: quantize_slice(weights.data(), s_w).0,
            bias: bias.data().iter().map(quant_bias).collect(),
        }
    }
}

/// Saturation and usage counters for a quantized model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantStats {
    /// Completed quantized forward passes.
    pub forwards: u64,
    /// Input values that clamped at ±127 when quantized.
    pub input_saturated: u64,
    /// Requantized activations that clamped at ±127.
    pub activation_saturated: u64,
}

impl QuantStats {
    /// Writes the counters into `recorder` under `label` as
    /// `quant.forwards` / `quant.input_saturated` /
    /// `quant.activation_saturated`.
    pub fn record_to(&self, recorder: &mut Recorder, label: Label) {
        recorder.add("quant.forwards", label.clone(), self.forwards);
        recorder.add("quant.input_saturated", label.clone(), self.input_saturated);
        recorder.add(
            "quant.activation_saturated",
            label,
            self.activation_saturated,
        );
    }
}

/// A [`DistributedCnn`] frozen for integer deployment: i8 weights, i32
/// exact accumulation, deterministic fixed-point requantization between
/// layers, and lossy-fabric execution mirroring the f32 runtime.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, QuantizedCnn, WeightUpdate};
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
/// let calibration = vec![Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng)];
/// let mut qnet = QuantizedCnn::new(&mut net, &calibration);
/// let logits = qnet.forward_quantized(&calibration[0]);
/// assert_eq!(logits.len(), 2);
/// # Ok(())
/// # }
/// ```
///
/// Deserializing validates the restored model against its config the
/// way [`DistributedCnn::from_json`] does, so a tampered or truncated
/// persisted model is rejected instead of panicking in a forward pass.
#[derive(Debug, Clone, Serialize)]
pub struct QuantizedCnn {
    config: CnnConfig,
    assignment: Assignment,
    conv_unit_host: Vec<NodeId>,
    replicas: BTreeMap<NodeId, QTable>,
    per_unit: Option<QTable>,
    dense1: QTable,
    dense2: QTable,
    /// Input quantization scale (calibrated).
    input_scale: f32,
    /// Shared conv weight scale — kept so re-placed replicas can be
    /// re-frozen into the exact deployed integer domain.
    conv_weight_scale: f32,
    /// Conv accumulator scale (`input_scale × conv_weight_scale`),
    /// kept for re-freezing migrated replica biases.
    conv_acc_scale: f64,
    /// Conv accumulator → conv activation domain.
    conv_requant: Requant,
    /// Dense-1 accumulator → hidden activation domain.
    hidden_requant: Requant,
    /// Dense-2 accumulator → real logits.
    logit_scale: f64,
    stats: QuantStats,
    /// Buffers the passes reuse; never serialized.
    #[serde(skip)]
    work: Workspace<i32>,
}

/// Deterministically re-quantizes a value received off the fabric: the
/// producer sent an i8 as its exact f32 image, but corruption may have
/// flipped any bit of it — round half away from zero, clamp to the
/// symmetric range, map NaN to 0 (the saturating float→int cast).
fn requantize_received(v: f32) -> i8 {
    round_half_away(v).clamp(-127.0, 127.0) as i8
}

impl QuantizedCnn {
    /// Freezes `net` for integer deployment. Runs f32 forward passes
    /// over `calibration` to select per-layer activation scales (max-abs
    /// range), quantizes every replica's weights at one common per-layer
    /// scale, and pre-scales biases into the accumulator domains.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty.
    pub fn new(net: &mut DistributedCnn, calibration: &[Tensor]) -> Self {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert!(!calibration.is_empty(), "calibration set must be non-empty");
        let mut cal_in = Calibration::new();
        let mut cal_conv = Calibration::new();
        let mut cal_hidden = Calibration::new();
        for x in calibration {
            cal_in.observe(x.data());
            let _ = net.forward(x);
            cal_conv.observe(&net.conv_pre_relu);
            cal_hidden.observe(&net.hidden_pre_relu);
        }
        let s_in = cal_in.scale();
        let s_a1 = cal_conv.scale();
        let s_a2 = cal_hidden.scale();

        // One weight scale per layer, shared by every replica, so all
        // nodes speak the same integer domain over the fabric.
        let max_abs = |xs: &[f32]| xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let kernels = net.replicas.values().map(|r| &r.weights);
        let kernels = kernels.chain(net.per_unit.as_ref().map(|pk| &pk.weights));
        let s_w1 = scale_for(kernels.fold(0.0f32, |m, w| m.max(max_abs(w.data()))));
        let s_w2 = scale_for(max_abs(net.dense1.weights.data()));
        let s_w3 = scale_for(max_abs(net.dense2.weights.data()));

        // Accumulator-domain scales and the fixed-point requantizers
        // that bridge them to the next activation domain.
        let acc1 = s_in as f64 * s_w1 as f64;
        let acc2 = s_a1 as f64 * s_w2 as f64;
        let acc3 = s_a2 as f64 * s_w3 as f64;
        // The f32 model stays only as the re-placement source of this
        // deployment; its calibration forwards' packed weights go.
        net.work.release_pack();
        let replicas = net.replicas.iter();
        Self {
            config: net.config,
            assignment: net.assignment.clone(),
            conv_unit_host: net.conv_unit_host.clone(),
            replicas: replicas
                .map(|(node, r)| (*node, QTable::freeze(&r.weights, &r.bias, s_w1, acc1)))
                .collect(),
            per_unit: net
                .per_unit
                .as_ref()
                .map(|pk| QTable::freeze(&pk.weights, &pk.bias, s_w1, acc1)),
            dense1: QTable::freeze(&net.dense1.weights, &net.dense1.bias, s_w2, acc2),
            dense2: QTable::freeze(&net.dense2.weights, &net.dense2.bias, s_w3, acc3),
            input_scale: s_in,
            conv_weight_scale: s_w1,
            conv_acc_scale: acc1,
            conv_requant: Requant::from_ratio(acc1 / s_a1 as f64),
            hidden_requant: Requant::from_ratio(acc2 / s_a2 as f64),
            logit_scale: acc3,
            stats: QuantStats::default(),
            work: Workspace::default(),
        }
    }

    /// The configuration this network was frozen from.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// The calibrated input quantization scale.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Usage and saturation counters accumulated so far.
    pub fn stats(&self) -> &QuantStats {
        &self.stats
    }

    /// Checks the placement and every integer table against the config
    /// (the same [`check_layout`] a restored [`DistributedCnn`] passes),
    /// and each requantizer against what [`Requant::from_ratio`] makes: a
    /// multiplier of at least 0 and a shift of at most [`MAX_SHIFT`], the
    /// range the forward's requantization is exact on.
    fn validate(&self) -> Result<(), String> {
        check_layout(&self.parts())?;
        let requants = [
            ("conv_requant", self.conv_requant),
            ("hidden_requant", self.hidden_requant),
        ];
        for (name, r) in requants {
            if r.mult() < 0 || r.shift() > MAX_SHIFT {
                return Err(format!(
                    "{name} has multiplier {} and shift {}; it needs a multiplier of at \
                     least 0 and a shift of at most {MAX_SHIFT}",
                    r.mult(),
                    r.shift()
                ));
            }
        }
        Ok(())
    }

    /// Re-aligns this frozen deployment with `net`'s placement after the
    /// re-placement engine migrated units: placement tables are adopted,
    /// replicas on nodes that lost all their units are dropped, and
    /// replicas on newly hosting nodes are frozen from `net`'s f32 state
    /// at the **original** calibrated scales — the migrated i8 image is
    /// therefore exactly the quantization of the shipped f32 replica, as
    /// if the node had been part of the original freeze. Activation
    /// scales and requantizers are untouched (re-placement moves units,
    /// it does not retrain them), so an unchanged placement is a no-op.
    /// Each conv unit whose host changed reads its new host's replica
    /// from here on; per-unit kernels travel with their units.
    pub fn resync_placement(&mut self, net: &DistributedCnn) {
        self.assignment = net.assignment.clone();
        self.replicas
            .retain(|node, _| net.replicas.contains_key(node));
        let (s_w, acc) = (self.conv_weight_scale, self.conv_acc_scale);
        for (node, rep) in &net.replicas {
            let freeze = || QTable::freeze(&rep.weights, &rep.bias, s_w, acc);
            self.replicas.entry(*node).or_insert_with(freeze);
        }
        if self.per_unit.is_none() {
            let hosts = self.conv_unit_host.iter().zip(&net.conv_unit_host);
            for (unit, (_, new)) in hosts.enumerate().filter(|(_, (old, new))| old != new) {
                if let Some(rep) = self.replicas.get(new) {
                    self.work.repoint(&self.config, unit, rep);
                }
            }
        }
        exec::overwrite(&mut self.conv_unit_host, &net.conv_unit_host);
    }

    /// Integer forward pass. Bit-exact under any loop order or thread
    /// count: every sum is an exact integer, settled into i32.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward_quantized(&mut self, input: &Tensor) -> Tensor {
        // zeiot-audit: allow(p1) -- the Perfect transport delivers every value, so the pass cannot abort
        exec::forward(self, input, &mut Perfect).expect("a perfect pass completes")
    }

    /// Integer forward pass through a lossy fabric; the quantized
    /// analogue of [`DistributedCnn::forward_lossy`]. Returns `None`
    /// when a lost message aborts the inference under a non-degrading
    /// policy. With a lossless plan this is bit-identical to
    /// [`QuantizedCnn::forward_quantized`].
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward_quantized_lossy(
        &mut self,
        input: &Tensor,
        rt: &mut LossyRuntime,
    ) -> Option<Tensor> {
        self.forward_quantized_lossy_traced(input, rt, None)
    }

    /// [`QuantizedCnn::forward_quantized_lossy`] with per-unit hop spans
    /// (`hop.qconv`, `hop.qpool`, `hop.qhidden`, `hop.qlogit`) pushed
    /// under `scope` when given; `scope = None` is byte-for-byte the
    /// untraced path.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward_quantized_lossy_traced(
        &mut self,
        input: &Tensor,
        rt: &mut LossyRuntime,
        scope: Option<&mut SpanScope<'_>>,
    ) -> Option<Tensor> {
        exec::forward(self, input, &mut Lossy::new(rt, scope))
    }
}

impl Layout for QTable {
    type W = i8;
    type B = i32;

    fn weights(&self) -> &[i8] {
        &self.weights
    }

    fn bias(&self) -> &[i32] {
        &self.bias
    }

    fn fits(&self, weights: &[usize], bias: &[usize]) -> bool {
        let count = |shape: &[usize]| shape.iter().product::<usize>();
        self.weights.len() == count(weights) && self.bias.len() == count(bias)
    }
}

impl Deserialize for QuantizedCnn {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let model = Self {
            config: de_field(value, "config")?,
            assignment: de_field(value, "assignment")?,
            conv_unit_host: de_field(value, "conv_unit_host")?,
            replicas: de_field(value, "replicas")?,
            per_unit: de_field(value, "per_unit")?,
            dense1: de_field(value, "dense1")?,
            dense2: de_field(value, "dense2")?,
            input_scale: de_field(value, "input_scale")?,
            conv_weight_scale: de_field(value, "conv_weight_scale")?,
            conv_acc_scale: de_field(value, "conv_acc_scale")?,
            conv_requant: de_field(value, "conv_requant")?,
            hidden_requant: de_field(value, "hidden_requant")?,
            logit_scale: de_field(value, "logit_scale")?,
            stats: de_field(value, "stats")?,
            work: Workspace::default(),
        };
        model.validate().map_err(serde::Error::custom)?;
        Ok(model)
    }
}

impl Domain for QuantizedCnn {
    type W = i8;
    type Acc = i32;
    type Replica = QTable;
    type Table = QTable;
    const HOPS: [&'static str; 4] = ["hop.qconv", "hop.qpool", "hop.qhidden", "hop.qlogit"];
    const FLOOR: f32 = i8::MIN as f32;
    const ARGMAX: bool = false;

    fn from_wire(v: f32) -> f32 {
        f32::from(requantize_received(v))
    }

    fn parts(&self) -> Parts<'_, QTable, QTable> {
        Parts {
            config: &self.config,
            assignment: &self.assignment,
            conv_unit_host: &self.conv_unit_host,
            replicas: &self.replicas,
            per_unit: self.per_unit.as_ref(),
            dense: [&self.dense1, &self.dense2],
        }
    }

    fn work(&mut self) -> &mut Workspace<i32> {
        &mut self.work
    }

    fn admit<'a>(&mut self, input: &'a Tensor, buf: &'a mut Vec<f32>) -> &'a [f32] {
        exec::check_input(&self.config, input);
        self.stats.input_saturated += quantize_into(input.data(), self.input_scale, buf);
        buf
    }

    fn zero() -> i32 {
        0
    }

    /// Requantizes into the next activation domain and applies ReLU to
    /// the image (sound because the requantizer is monotone), counting
    /// saturation.
    fn activate(&mut self, layer: usize, acc: &[i32], out: &mut Vec<f32>) {
        let requant = if layer == 1 {
            self.conv_requant
        } else {
            self.hidden_requant
        };
        self.stats.activation_saturated += requant.relu_into(acc, out);
    }

    fn pool_done(&mut self, _: &[f32], _: &[usize]) {}

    fn finish(&mut self, _: &Tensor, logits: &[i32]) -> Tensor {
        self.stats.forwards += 1;
        exec::logits_tensor(
            logits
                .iter()
                .map(|&a| (a as f64 * self.logit_scale) as f32)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::WeightUpdate;
    use crate::replace::{apply_offline, plan_incremental};
    use zeiot_core::rng::SeedRng;
    use zeiot_core::time::SimDuration;
    use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
    use zeiot_net::Topology;

    fn trained_setup(update: WeightUpdate, seed: u64) -> (DistributedCnn, Vec<(Tensor, usize)>) {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut rng = SeedRng::new(seed);
        let mut net = DistributedCnn::new(config, assignment, update, &mut rng);

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
        let mut trng = SeedRng::new(7);
        for _ in 0..15 {
            net.train_epoch(&data, 0.08, 8, &mut trng);
        }
        (net, data)
    }

    fn grid_topology() -> Topology {
        Topology::grid(3, 3, 2.0, 3.0).unwrap()
    }

    #[test]
    fn quantized_model_agrees_with_f32_on_a_trained_task() {
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 20);
        let calibration: Vec<Tensor> = data.iter().take(16).map(|(x, _)| x.clone()).collect();
        let mut qnet = QuantizedCnn::new(&mut net, &calibration);
        let f32_acc = net.accuracy(&data);
        let correct = data
            .iter()
            .filter(|(x, y)| qnet.forward_quantized(x).argmax() == *y)
            .count();
        let q_acc = correct as f64 / data.len() as f64;
        assert!(f32_acc > 0.85, "f32 baseline failed to train: {f32_acc}");
        assert!(
            (f32_acc - q_acc).abs() <= 0.1,
            "quantization cost too much accuracy: f32={f32_acc} i8={q_acc}"
        );
        assert_eq!(qnet.stats().forwards, data.len() as u64);
    }

    #[test]
    fn resync_placement_tracks_migrations_and_preserves_the_function() {
        // Per-unit kernels travel with their units, so the quantized
        // function is placement-invariant: the resynced model must
        // produce bit-identical logits after a migration epoch.
        let (mut net, data) = trained_setup(WeightUpdate::PerUnit, 23);
        let calibration: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
        let mut qnet = QuantizedCnn::new(&mut net, &calibration);

        // Unchanged placement: resync is a no-op on the frozen state.
        let frozen = serde_json::to_string(&qnet).unwrap();
        let mut clone = qnet.clone();
        clone.resync_placement(&net);
        assert_eq!(serde_json::to_string(&clone).unwrap(), frozen);

        let baseline: Vec<Vec<f32>> = data
            .iter()
            .take(6)
            .map(|(x, _)| qnet.forward_quantized(x).data().to_vec())
            .collect();

        let topo = grid_topology();
        let graph = net.config.unit_graph().unwrap();
        let down = vec![NodeId::new(4)];
        let (_, outcome) = plan_incremental(&graph, &topo, &net.assignment, &down, usize::MAX);
        assert!(!outcome.migrations.is_empty(), "center node hosted nothing");
        apply_offline(&mut net, &graph, &outcome.migrations, &down);

        qnet.resync_placement(&net);
        assert_eq!(qnet.assignment, net.assignment);
        assert_eq!(qnet.conv_unit_host, net.conv_unit_host);
        assert!(qnet.replicas.keys().eq(net.replicas.keys()));
        for (i, (x, _)) in data.iter().take(6).enumerate() {
            assert_eq!(qnet.forward_quantized(x).data(), &baseline[i][..]);
        }
    }

    #[test]
    fn resynced_replicas_match_a_fresh_freeze() {
        // Under replica sharing the destination's new i8 replica must be
        // exactly the quantization of the f32 replica it adopted — i.e.
        // what QuantizedCnn::new would have produced had the node hosted
        // units at freeze time.
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 24);
        let calibration: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
        let mut qnet = QuantizedCnn::new(&mut net, &calibration);

        let topo = grid_topology();
        let graph = net.config.unit_graph().unwrap();
        let down = vec![NodeId::new(4)];
        let (_, outcome) = plan_incremental(&graph, &topo, &net.assignment, &down, usize::MAX);
        apply_offline(&mut net, &graph, &outcome.migrations, &down);
        qnet.resync_placement(&net);

        for (node, qrep) in &qnet.replicas {
            let frep = &net.replicas[node];
            let (expect_w, _) = quantize_slice(frep.weights.data(), qnet.conv_weight_scale);
            assert_eq!(qrep.weights, expect_w, "node {node}");
        }
    }

    #[test]
    fn quantized_forward_is_reproducible() {
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 21);
        let calibration: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
        let mut a = QuantizedCnn::new(&mut net, &calibration);
        let mut b = a.clone();
        for (x, _) in data.iter().take(10) {
            assert_eq!(a.forward_quantized(x).data(), b.forward_quantized(x).data());
        }
    }

    #[test]
    fn lossless_lossy_pass_is_bit_identical_to_plain_quantized() {
        for update in [
            WeightUpdate::Synchronized,
            WeightUpdate::Independent,
            WeightUpdate::PerUnit,
        ] {
            let (mut net, data) = trained_setup(update, 22);
            let calibration: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
            let mut a = QuantizedCnn::new(&mut net, &calibration);
            let mut b = a.clone();
            let topo = grid_topology();
            let mut rt = LossyRuntime::new(
                FaultPlan::lossless(),
                RecoveryPolicy::FailFast,
                &topo,
                SimDuration::from_millis(500),
            );
            for (x, _) in data.iter().take(10) {
                let plain = a.forward_quantized(x);
                let lossy = b
                    .forward_quantized_lossy(x, &mut rt)
                    .expect("lossless never aborts");
                assert_eq!(plain.data(), lossy.data(), "{update:?}");
                rt.advance_pass();
            }
        }
    }

    #[test]
    fn degraded_quantized_pass_never_aborts_and_is_reproducible() {
        let run = |mode| {
            let (mut net, data) = trained_setup(WeightUpdate::Independent, 23);
            let calibration: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
            let mut qnet = QuantizedCnn::new(&mut net, &calibration);
            let topo = grid_topology();
            let mut rt = LossyRuntime::new(
                FaultPlan::uniform(3, 0.2).unwrap(),
                RecoveryPolicy::Degrade { mode },
                &topo,
                SimDuration::from_millis(500),
            );
            let mut out = Vec::new();
            for (x, _) in data.iter().take(10) {
                let logits = qnet
                    .forward_quantized_lossy(x, &mut rt)
                    .expect("degrade never aborts");
                out.extend_from_slice(logits.data());
                rt.advance_pass();
            }
            assert!(rt.stats().degraded > 0, "{mode:?}");
            out
        };
        for mode in [DegradeMode::ZeroFill, DegradeMode::LastValueHold] {
            assert_eq!(run(mode), run(mode));
        }
    }

    #[test]
    fn fail_fast_aborts_under_certain_loss() {
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 24);
        let calibration: Vec<Tensor> = data.iter().take(4).map(|(x, _)| x.clone()).collect();
        let mut qnet = QuantizedCnn::new(&mut net, &calibration);
        let topo = grid_topology();
        let mut rt = LossyRuntime::new(
            FaultPlan::uniform(1, 1.0).unwrap(),
            RecoveryPolicy::FailFast,
            &topo,
            SimDuration::from_millis(500),
        );
        assert!(qnet.forward_quantized_lossy(&data[0].0, &mut rt).is_none());
    }

    #[test]
    fn traced_quantized_pass_matches_untraced_and_emits_hop_spans() {
        use zeiot_core::time::SimTime;
        use zeiot_obs::trace::{ClockDomain, SpanEvent, SpanLayer, TraceSampler, Tracer};
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 25);
        let calibration: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
        let mut a = QuantizedCnn::new(&mut net, &calibration);
        let mut b = a.clone();
        let topo = grid_topology();
        let mk = || {
            LossyRuntime::new(
                FaultPlan::uniform(7, 0.1).unwrap(),
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                &topo,
                SimDuration::from_millis(500),
            )
        };
        let (mut rt_a, mut rt_b) = (mk(), mk());
        let mut tracer = Tracer::new(TraceSampler::always());
        let root = tracer
            .begin(0, 0, "serve.request", SpanLayer::Request, SimTime::ZERO)
            .unwrap();
        let mut scope = tracer.scope(0, 0, root).unwrap();
        let plain = a.forward_quantized_lossy(&data[0].0, &mut rt_a).unwrap();
        let traced = b
            .forward_quantized_lossy_traced(&data[0].0, &mut rt_b, Some(&mut scope))
            .unwrap();
        assert_eq!(plain.data(), traced.data());
        assert_eq!(*rt_a.stats(), *rt_b.stats());
        tracer.finish(0, 0, SimTime::ZERO);
        let trace = tracer.take_finished().remove(0);
        let hop_spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.layer == SpanLayer::Hop)
            .collect();
        assert!(!hop_spans.is_empty(), "cross-node fetches must leave spans");
        assert!(hop_spans.iter().all(|s| s.clock == ClockDomain::Fabric));
        assert!(hop_spans.iter().any(|s| s.name.starts_with("hop.q")));
        let span_messages: u64 = hop_spans
            .iter()
            .flat_map(|s| &s.events)
            .map(|e| match e.event {
                SpanEvent::Messages { sent } => sent,
                _ => 0,
            })
            .sum();
        assert_eq!(span_messages, rt_b.stats().sent);
    }

    #[test]
    fn stats_reach_the_recorder() {
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 26);
        let calibration: Vec<Tensor> = data.iter().take(4).map(|(x, _)| x.clone()).collect();
        let mut qnet = QuantizedCnn::new(&mut net, &calibration);
        for (x, _) in data.iter().take(5) {
            let _ = qnet.forward_quantized(x);
        }
        let mut rec = Recorder::new();
        qnet.stats().record_to(&mut rec, Label::Global);
        assert_eq!(rec.counter_value("quant.forwards", &Label::Global), 5);
    }

    #[test]
    fn serde_round_trip_preserves_the_quantized_model() {
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 27);
        let calibration: Vec<Tensor> = data.iter().take(4).map(|(x, _)| x.clone()).collect();
        let mut qnet = QuantizedCnn::new(&mut net, &calibration);
        let json = serde_json::to_string(&qnet).unwrap();
        let mut restored: QuantizedCnn = serde_json::from_str(&json).unwrap();
        for (x, _) in data.iter().take(5) {
            assert_eq!(
                qnet.forward_quantized(x).data(),
                restored.forward_quantized(x).data()
            );
        }
    }

    #[test]
    fn deserialize_rejects_tampered_models() {
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 28);
        let calibration: Vec<Tensor> = data.iter().take(4).map(|(x, _)| x.clone()).collect();
        let qnet = QuantizedCnn::new(&mut net, &calibration);
        let json = serde_json::to_string(&qnet).unwrap();
        let restore =
            |text: &str| serde_json::from_str::<QuantizedCnn>(text).map_err(|e| e.to_string());
        assert!(restore(&json).is_ok());

        // Textually tamper the frozen model the way a config edit or a
        // hand-patched deployment would; each must be rejected cleanly
        // instead of panicking inside forward_quantized().
        let tamper = |from: &str, to: &str| -> String {
            let out = json.replacen(from, to, 1);
            assert_ne!(out, json, "tamper target `{from}` missing from JSON");
            out
        };
        assert!(restore(&tamper("\"in_height\":8", "\"in_height\":10")).is_err());
        assert!(restore(&tamper("\"classes\":2", "\"classes\":3")).is_err());

        // A conv unit pointed at a node that keeps no replica (one past
        // the 3×3 grid), which a forward pass would hit at the replica
        // lookup.
        let first_host = qnet.conv_unit_host[0];
        let orphan = NodeId::new(9);
        assert!(!qnet.replicas.contains_key(&orphan));
        let err = restore(&tamper(
            &format!("\"conv_unit_host\":[{},", first_host.raw()),
            &format!("\"conv_unit_host\":[{},", orphan.raw()),
        ))
        .unwrap_err();
        assert!(err.contains("conv unit 0"), "unexpected error: {err}");
    }

    #[test]
    fn deserialize_rejects_requantizers_out_of_range() {
        let (mut net, data) = trained_setup(WeightUpdate::Independent, 29);
        let calibration: Vec<Tensor> = data.iter().take(4).map(|(x, _)| x.clone()).collect();
        let qnet = QuantizedCnn::new(&mut net, &calibration);
        let json = serde_json::to_string(&qnet).unwrap();
        let restore =
            |text: &str| serde_json::from_str::<QuantizedCnn>(text).map_err(|e| e.to_string());
        let requants = [
            ("conv_requant", qnet.conv_requant),
            ("hidden_requant", qnet.hidden_requant),
        ];
        for (field, r) in requants {
            let frozen = |mult: i32, shift: u32| {
                format!("\"{field}\":{{\"mult\":{mult},\"shift\":{shift}}}")
            };
            let with = |mult, shift| {
                let out = json.replacen(&frozen(r.mult(), r.shift()), &frozen(mult, shift), 1);
                assert_ne!(out, json, "`{field}` missing from JSON");
                out
            };
            // Shifts past 62 leave the exact range; at 64 the forward's
            // `1 << shift` would panic.
            for (mult, shift) in [
                (r.mult(), 63),
                (r.mult(), 64),
                (-r.mult(), r.shift()),
                (-1, 0),
            ] {
                let err = restore(&with(mult, shift)).unwrap_err();
                assert!(err.contains(field), "unexpected error: {err}");
            }
            // The edges of the range restore and run.
            for (mult, shift) in [(0, r.shift()), (r.mult(), MAX_SHIFT), (i32::MAX, 0)] {
                let mut model = restore(&with(mult, shift)).unwrap();
                assert_eq!(model.forward_quantized(&data[0].0).len(), 2);
            }
        }
    }

    #[test]
    fn received_value_requantization_is_total() {
        assert_eq!(requantize_received(5.0), 5);
        assert_eq!(requantize_received(5.4), 5);
        assert_eq!(requantize_received(-5.5), -6);
        assert_eq!(requantize_received(1e9), 127);
        assert_eq!(requantize_received(-1e9), -127);
        assert_eq!(requantize_received(f32::NAN), 0);
        assert_eq!(requantize_received(f32::INFINITY), 127);
    }
}
