//! The MicroDeep execution kernel: one forward and one backward loop
//! nest for every execution mode.
//!
//! MicroDeep runs one CNN in place on the mesh (paper §IV.C). The
//! plain, lossy, integer and traced passes differ only in how a value
//! crosses from a producer unit's node to a consumer unit's node — the
//! [`Transport`]: [`Perfect`], where every fetch is the identity and
//! nothing is copied, or [`Lossy`], which carries each cross-node edge
//! over a [`LossyRuntime`] and, when traced, spans each consumer unit's
//! fetches — and in the number [`Domain`] the units compute in: f32 over
//! [`crate::DistributedCnn`], or i8 with exact i32 accumulation over
//! [`crate::QuantizedCnn`]. "Lossless equals plain" therefore holds by
//! construction: a lossless fabric hands every value back unchanged,
//! and the arithmetic around each fetch is the same code.

use crate::assignment::Assignment;
use crate::config::CnnConfig;
use crate::distributed::{DistributedCnn, Params};
use crate::lossy::{
    HopProbe, LossyRuntime, STAGE_CONV_POOL, STAGE_HIDDEN_LOGIT, STAGE_INPUT_CONV,
    STAGE_POOL_HIDDEN,
};
use std::borrow::Cow;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::SpanScope;

/// `(stage, producer, consumer)`: edge stage `s` (a `STAGE_*` constant)
/// links unit `producer` of unit-graph layer `s` to unit `consumer` of
/// layer `s + 1`.
pub(crate) type Edge = (u64, usize, usize);

/// A row-major weight matrix and its biases.
pub(crate) type Weights<'a, W, Acc> = (&'a [W], &'a [Acc]);

/// How values move between the nodes hosting CNN units.
pub(crate) trait Transport {
    /// Carries one forward value over `edge`; `None` aborts the pass.
    fn fetch<D: Domain>(&mut self, v: D::A, at: &Assignment, edge: Edge) -> Option<D::A>;

    /// Carries a dense unit's whole input (element `i` from unit `i`)
    /// over `(stage, consumer)` and returns what the unit computes on.
    fn gather<'v, D: Domain>(
        &mut self,
        x: &'v [D::A],
        buf: &'v mut Vec<D::A>,
        at: &Assignment,
        (stage, consumer): (u64, usize),
    ) -> Option<&'v [D::A]> {
        buf.clear();
        for (producer, &v) in x.iter().enumerate() {
            buf.push(self.fetch::<D>(v, at, (stage, producer, consumer))?);
        }
        Some(buf)
    }

    /// Carries one gradient contribution back over `edge`, consumer to
    /// producer; a lost contribution is zero.
    fn gradient(&mut self, g: f32, at: &Assignment, edge: Edge) -> f32;

    /// Brackets one consumer unit's fetches; `close_unit` names the hop
    /// span.
    fn open_unit(&mut self);
    fn close_unit(&mut self, hop: &'static str);

    /// Ends one training or evaluation sample, `completed` or aborted.
    fn end_sample(&mut self, completed: bool);
}

/// The perfect radio: every value arrives as sent.
pub(crate) struct Perfect;

impl Transport for Perfect {
    fn fetch<D: Domain>(&mut self, v: D::A, _: &Assignment, _: Edge) -> Option<D::A> {
        Some(v)
    }

    fn gather<'v, D: Domain>(
        &mut self,
        x: &'v [D::A],
        _: &'v mut Vec<D::A>,
        _: &Assignment,
        _: (u64, usize),
    ) -> Option<&'v [D::A]> {
        Some(x)
    }

    fn gradient(&mut self, g: f32, _: &Assignment, _: Edge) -> f32 {
        g
    }

    fn open_unit(&mut self) {}

    fn close_unit(&mut self, _: &'static str) {}

    fn end_sample(&mut self, _: bool) {}
}

/// The lossy fabric, with per-unit hop spans under `scope` when given.
pub(crate) struct Lossy<'r, 's, 'b> {
    rt: &'r mut LossyRuntime,
    scope: Option<&'s mut SpanScope<'b>>,
    probe: Option<HopProbe>,
}

impl<'r, 's, 'b> Lossy<'r, 's, 'b> {
    pub(crate) fn new(rt: &'r mut LossyRuntime, scope: Option<&'s mut SpanScope<'b>>) -> Self {
        let probe = None;
        Self { rt, scope, probe }
    }
}

impl Transport for Lossy<'_, '_, '_> {
    fn fetch<D: Domain>(&mut self, v: D::A, at: &Assignment, edge: Edge) -> Option<D::A> {
        let (stage, producer, consumer) = edge;
        let src = at.host_of(stage as usize, producer);
        let dst = at.host_of(stage as usize + 1, consumer);
        let got = self
            .rt
            .transport(D::to_wire(v), src, dst, stage, producer, consumer);
        got.map(D::from_wire)
    }

    fn gradient(&mut self, g: f32, at: &Assignment, (stage, producer, consumer): Edge) -> f32 {
        let src = at.host_of(stage as usize + 1, consumer);
        let dst = at.host_of(stage as usize, producer);
        self.rt.fetch_gradient(g, src, dst)
    }

    fn open_unit(&mut self) {
        if self.scope.is_some() {
            self.probe = Some(HopProbe::open(self.rt));
        }
    }

    fn close_unit(&mut self, hop: &'static str) {
        if let (Some(scope), Some(probe)) = (self.scope.as_deref_mut(), self.probe.take()) {
            probe.close(self.rt, scope, hop);
        }
    }

    fn end_sample(&mut self, completed: bool) {
        if !completed {
            self.rt.note_aborted();
        }
        self.rt.advance_pass();
    }
}

/// A model's number domain and parameters, as the forward nest sees
/// them. `activate`, `pool_done` and `finish` run as each stage
/// completes, so a pass that aborts mid-way has updated exactly the
/// earlier stages' caches and counters.
pub(crate) trait Domain {
    /// Weight, activation and accumulator elements; biases live in the
    /// accumulator domain.
    type W: Copy;
    type A: Copy + PartialOrd;
    type Acc: Copy + Default;
    /// Hop-span names of conv, pool, hidden and logit units.
    const HOPS: [&'static str; 4];
    /// The max-pooling identity: every activation compares above it.
    const FLOOR: Self::A;

    /// An activation's image on the fabric, and the receiver's reading
    /// of a (possibly corrupted or substituted) image.
    fn to_wire(a: Self::A) -> f32;
    fn from_wire(v: f32) -> Self::A;
    fn config(&self) -> &CnnConfig;
    fn assignment(&self) -> &Assignment;
    /// Checks the input's shape and converts it to activations.
    fn admit<'a>(&mut self, input: &'a Tensor) -> Cow<'a, [Self::A]>;
    /// The kernel and bias of conv unit `unit` in output `channel`.
    fn conv_kernel(&self, unit: usize, channel: usize) -> (&[Self::W], Self::Acc);
    /// `acc + w · x`.
    fn mac(acc: Self::Acc, w: Self::W, x: Self::A) -> Self::Acc;
    /// Accumulators of unit-graph layer 1 (conv) or 3 (hidden) → ReLU'd
    /// activations.
    fn activate(&mut self, layer: usize, acc: Vec<Self::Acc>) -> Vec<Self::A>;
    /// Pooled activations and the conv unit each one came from.
    fn pool_done(&mut self, pooled: &[Self::A], argmax: Vec<usize>);
    /// Row-major weights and biases of dense layers 1 and 2.
    fn dense(&self) -> [Weights<'_, Self::W, Self::Acc>; 2];
    /// `bias + row · x`.
    fn dot(bias: Self::Acc, row: &[Self::W], x: &[Self::A]) -> Self::Acc;
    /// Logit accumulators → the logits of a completed pass.
    fn finish(&mut self, input: &Tensor, logits: Vec<Self::Acc>) -> Tensor;
}

/// Offsets of a conv unit's receptive field in kernel order `(in
/// channel, ky, kx)`, relative to the input index of its top-left corner.
fn receptive_field(c: &CnnConfig) -> Vec<usize> {
    let (k, ih, iw) = (c.kernel(), c.in_height(), c.in_width());
    let rows = (0..c.in_channels()).flat_map(|icn| (0..k).map(move |ky| icn * ih * iw + ky * iw));
    rows.flat_map(|row| row..row + k).collect()
}

/// Panics unless `input` has the `[in_channels, in_height, in_width]`
/// shape the config dictates.
pub(crate) fn check_input(c: &CnnConfig, input: &Tensor) {
    let expected = [c.in_channels(), c.in_height(), c.in_width()];
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    assert_eq!(input.shape(), &expected, "input shape mismatch");
}

/// Wraps a logit vector as a `[classes]` tensor.
pub(crate) fn logits_tensor(logits: Vec<f32>) -> Tensor {
    let n = logits.len();
    // zeiot-audit: allow(p1) -- the shape is the data's own non-zero length
    Tensor::from_vec(vec![n], logits).expect("logit shape")
}

/// The forward pass — conv, ReLU, max-pool, dense, ReLU, dense — with
/// every CNN edge carried by `t`. `None` when `t` drops a value it
/// cannot substitute.
pub(crate) fn forward<D: Domain, T: Transport>(
    m: &mut D,
    input: &Tensor,
    t: &mut T,
) -> Option<Tensor> {
    let admitted = m.admit(input);
    let x: &[D::A] = &admitted;
    let c = *m.config();
    let ((oh, ow), (ph, pw)) = (c.conv_dims(), c.pool_dims());
    let (oc, p, iw) = (c.conv_channels(), c.pool(), c.in_width());
    let field = receptive_field(&c);
    let [hop_conv, hop_pool, hop_hidden, hop_logit] = D::HOPS;

    // Convolution: each conv unit pulls its receptive field from the
    // sensors hosting the input units.
    let mut conv = vec![D::Acc::default(); oc * oh * ow];
    let at = m.assignment();
    for o in 0..oc {
        for oy in 0..oh {
            for ox in 0..ow {
                let unit = o * oh * ow + oy * ow + ox;
                let (weights, bias) = m.conv_kernel(unit, o);
                t.open_unit();
                let mut acc = bias;
                for (&w, &off) in weights.iter().zip(&field) {
                    let i = oy * iw + ox + off;
                    // zeiot-audit: allow(p1) -- every index derives from the config dims admit() checked the input against
                    let v = t.fetch::<D>(x[i], at, (STAGE_INPUT_CONV, i, unit))?;
                    acc = D::mac(acc, w, v);
                }
                t.close_unit(hop_conv);
                conv[unit] = acc;
            }
        }
    }
    let relu = m.activate(1, conv);

    // Max pooling: each pool unit pulls its window from the conv hosts.
    let mut pooled = Vec::with_capacity(oc * ph * pw);
    let mut argmax = Vec::with_capacity(oc * ph * pw);
    let at = m.assignment();
    for ch in 0..oc {
        for py in 0..ph {
            for px in 0..pw {
                let punit = pooled.len();
                t.open_unit();
                let (mut best, mut best_off) = (D::FLOOR, 0);
                for ky in 0..p {
                    for kx in 0..p {
                        let off = ch * oh * ow + (py * p + ky) * ow + (px * p + kx);
                        let v = t.fetch::<D>(relu[off], at, (STAGE_CONV_POOL, off, punit))?;
                        if v > best {
                            (best, best_off) = (v, off);
                        }
                    }
                }
                t.close_unit(hop_pool);
                pooled.push(best);
                argmax.push(best_off);
            }
        }
    }
    m.pool_done(&pooled, argmax);

    // Dense 1 + ReLU, dense 2: each unit pulls the whole previous layer.
    let mut buf = Vec::new();
    let hidden = dense(m, 3, &pooled, &mut buf, t, hop_hidden)?;
    let hidden = m.activate(3, hidden);
    let logits = dense(m, 4, &hidden, &mut buf, t, hop_logit)?;
    Some(m.finish(input, logits))
}

/// Unit-graph layer 3 or 4 over the previous layer's activations `x`.
fn dense<D: Domain, T: Transport>(
    m: &D,
    layer: usize,
    x: &[D::A],
    buf: &mut Vec<D::A>,
    t: &mut T,
    hop: &'static str,
) -> Option<Vec<D::Acc>> {
    let [dense1, dense2] = m.dense();
    let (weights, bias) = if layer == 3 { dense1 } else { dense2 };
    let at = m.assignment();
    let mut out = Vec::with_capacity(bias.len());
    for (unit, (row, &b)) in weights.chunks_exact(x.len()).zip(bias).enumerate() {
        t.open_unit();
        let got = t.gather::<D>(x, buf, at, (layer as u64 - 1, unit))?;
        t.close_unit(hop);
        out.push(D::dot(b, row, got));
    }
    Some(out)
}

/// The share of `data` whose forward over `t` completes with the
/// labelled class.
///
/// # Panics
///
/// Panics if `data` is empty.
pub(crate) fn accuracy<D: Domain, T: Transport>(
    m: &mut D,
    data: &[(Tensor, usize)],
    t: &mut T,
) -> f64 {
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    assert!(!data.is_empty(), "empty evaluation set");
    let mut correct = 0usize;
    for (x, target) in data {
        let logits = forward(m, x, t);
        correct += usize::from(logits.as_ref().map(Tensor::argmax) == Some(*target));
        t.end_sample(logits.is_some());
    }
    correct as f64 / data.len() as f64
}

/// The backward pass from a loss gradient on the logits, accumulating
/// dense and conv-kernel gradients; every cross-node gradient
/// contribution is carried by `t`.
///
/// # Panics
///
/// Panics if `net` has not completed a forward pass.
pub(crate) fn backward<T: Transport>(net: &mut DistributedCnn, grad_logits: &Tensor, t: &mut T) {
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    let input = net.last_input.as_ref().expect("backward before forward");
    let (at, c) = (&net.assignment, net.config);

    // Dense layers: weight gradients stay on the consumer unit's host,
    // input gradients travel back to the producers.
    let grad = grad_logits.data();
    let grad = dense_backward(
        &mut net.dense2,
        &net.hidden_out,
        grad,
        at,
        STAGE_HIDDEN_LOGIT,
        t,
    );
    let grad = relu_mask(grad, &net.hidden_pre_relu);
    let grad_pool = dense_backward(
        &mut net.dense1,
        &net.pool_out,
        &grad,
        at,
        STAGE_POOL_HIDDEN,
        t,
    );

    // Un-pool: each pool unit's gradient flows to its argmax conv unit.
    let mut grad_relu = vec![0.0f32; net.conv_pre_relu.len()];
    for (i, (&src, &g)) in net.pool_argmax.iter().zip(&grad_pool).enumerate() {
        if g != 0.0 {
            // zeiot-audit: allow(p1) -- conv units, kernel slots and receptive fields index tables the completed forward pass sized
            grad_relu[src] += t.gradient(g, at, (STAGE_CONV_POOL, src, i));
        }
    }
    let grad_conv = relu_mask(grad_relu, &net.conv_pre_relu);

    // Conv: accumulate into the owning kernel (the host's replica, or
    // the unit's own in PerUnit mode) from the inputs the unit cached on
    // its own node at forward time.
    let ((oh, ow), iw) = (c.conv_dims(), c.in_width());
    let field = receptive_field(&c);
    for o in 0..c.conv_channels() {
        for oy in 0..oh {
            for ox in 0..ow {
                let unit = o * oh * ow + oy * ow + ox;
                let g = grad_conv[unit];
                if g == 0.0 {
                    continue;
                }
                let kernel = match net.per_unit.as_mut() {
                    Some(pk) => Some((&mut pk.grad_weights, &mut pk.grad_bias, unit)),
                    None => net
                        .replicas
                        .get_mut(&net.conv_unit_host[unit])
                        .map(|rep| (&mut rep.grad_weights, &mut rep.grad_bias, o)),
                };
                let Some((grad_w, grad_b, slot)) = kernel else {
                    continue;
                };
                grad_b.data_mut()[slot] += g;
                let grad_w = grad_w.data_mut().chunks_exact_mut(field.len()).nth(slot);
                for (gw, &off) in grad_w.into_iter().flatten().zip(&field) {
                    *gw += g * input.data()[oy * iw + ox + off];
                }
            }
        }
    }
}

/// Accumulates one dense layer's weight and bias gradients for input `x`
/// (arriving over `stage`) and output gradient `grad_out`, returning the
/// gradient reaching each input unit.
fn dense_backward<T: Transport>(
    p: &mut Params,
    x: &[f32],
    grad_out: &[f32],
    at: &Assignment,
    stage: u64,
    t: &mut T,
) -> Vec<f32> {
    let mut grad_in = vec![0.0f32; x.len()];
    let rows = p.weights.data().chunks_exact(x.len());
    let grad_rows = p.grad_weights.data_mut().chunks_exact_mut(x.len());
    let outs = grad_out
        .iter()
        .zip(p.grad_bias.data_mut())
        .zip(rows.zip(grad_rows));
    for (o, ((&g, grad_b), (row, grad_row))) in
        outs.enumerate().filter(|(_, ((&g, _), _))| g != 0.0)
    {
        *grad_b += g;
        let cells = grad_row.iter_mut().zip(row).zip(grad_in.iter_mut().zip(x));
        for (i, ((gw, &w), (gi, &xi))) in cells.enumerate() {
            *gw += g * xi;
            *gi += t.gradient(g * w, at, (stage, i, o));
        }
    }
    grad_in
}

/// ReLU's backward: the gradient passes where the pre-activation was
/// positive.
fn relu_mask(mut grad: Vec<f32>, pre: &[f32]) -> Vec<f32> {
    for (g, &v) in grad.iter_mut().zip(pre) {
        *g = if v > 0.0 { *g } else { 0.0 };
    }
    grad
}
